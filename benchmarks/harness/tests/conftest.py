import pathlib
import sys

HARNESS = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HARNESS), str(HARNESS.parents[1] / "src")]
