"""Result types shared by every Level-2 estimator and the exact evaluator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RELATION_FIELDS", "Level2Counts", "Level2CountsBatch"]

#: Browsable relation name -> :class:`Level2Counts` field.
RELATION_FIELDS: dict[str, str] = {
    "contains": "n_cs",
    "contained": "n_cd",
    "overlap": "n_o",
    "disjoint": "n_d",
    "intersect": "n_intersect",
}


@dataclass(frozen=True, slots=True)
class Level2Counts:
    """Counts (or estimates) of the Level-2 relations for one query.

    Fields mirror the paper's notation:

    - ``n_d``  -- disjoint objects,
    - ``n_cs`` -- objects *contained in* the query (paper: ``N_cs``, the
      query's *contains* result),
    - ``n_cd`` -- objects *containing* the query (paper: ``N_cd``, the
      query's *contained* result),
    - ``n_o``  -- overlapping objects.

    Under the shrinking convention ``N_eq`` is identically zero and is not
    carried.  Values are floats because approximation algorithms can
    legitimately produce non-integral or even negative estimates (e.g.
    S-EulerApprox's ``N_o`` in the presence of crossover objects); the
    estimators report raw solutions of their equation systems and leave any
    clamping to presentation layers.
    """

    n_d: float
    n_cs: float
    n_cd: float
    n_o: float

    @property
    def total(self) -> float:
        """Sum of the four counts; equals ``|S|`` for every estimator in
        this library (the equation systems are built around that identity).
        """
        return self.n_d + self.n_cs + self.n_cd + self.n_o

    @property
    def n_intersect(self) -> float:
        """The Level-1 intersect count ``n_ii = N_cs + N_cd + N_o``."""
        return self.n_cs + self.n_cd + self.n_o

    def clamped(self) -> "Level2Counts":
        """Non-negative version for display purposes."""
        return Level2Counts(
            max(self.n_d, 0.0), max(self.n_cs, 0.0), max(self.n_cd, 0.0), max(self.n_o, 0.0)
        )

    def __add__(self, other: "Level2Counts") -> "Level2Counts":
        return Level2Counts(
            self.n_d + other.n_d,
            self.n_cs + other.n_cs,
            self.n_cd + other.n_cd,
            self.n_o + other.n_o,
        )


@dataclass(frozen=True)
class Level2CountsBatch:
    """Struct-of-arrays form of :class:`Level2Counts` for a query batch.

    ``n_d[i] .. n_o[i]`` are the Level-2 counts of the ``i``-th query of
    the batch that produced this result.  Arrays are float64 (same
    rationale as the scalar type: raw equation-system solutions, clamping
    left to presentation layers) and every element is bit-identical to
    what the scalar ``estimate`` path computes for the same query -- the
    parity test suite asserts exact equality, not approximation.
    """

    n_d: np.ndarray
    n_cs: np.ndarray
    n_cd: np.ndarray
    n_o: np.ndarray

    def __post_init__(self) -> None:
        for name in ("n_d", "n_cs", "n_cd", "n_o"):
            object.__setattr__(
                self, name, np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            )
        shapes = {getattr(self, name).shape for name in ("n_d", "n_cs", "n_cd", "n_o")}
        if len(shapes) != 1 or self.n_d.ndim != 1:
            raise ValueError(f"count arrays must be 1-d and equal-length, got {shapes}")

    def __len__(self) -> int:
        return len(self.n_d)

    def __getitem__(self, i: int) -> Level2Counts:
        """The ``i``-th query's counts as a scalar :class:`Level2Counts`."""
        return Level2Counts(
            float(self.n_d[i]), float(self.n_cs[i]), float(self.n_cd[i]), float(self.n_o[i])
        )

    @property
    def total(self) -> np.ndarray:
        """Per-query sum of the four counts (``|S|`` for every estimator)."""
        return self.n_d + self.n_cs + self.n_cd + self.n_o

    @property
    def n_intersect(self) -> np.ndarray:
        """Per-query Level-1 intersect count ``n_ii = N_cs + N_cd + N_o``."""
        return self.n_cs + self.n_cd + self.n_o

    def clamped(self) -> "Level2CountsBatch":
        """Non-negative version for display purposes."""
        return Level2CountsBatch(
            np.maximum(self.n_d, 0.0),
            np.maximum(self.n_cs, 0.0),
            np.maximum(self.n_cd, 0.0),
            np.maximum(self.n_o, 0.0),
        )

    @classmethod
    def from_counts(cls, counts: "list[Level2Counts]") -> "Level2CountsBatch":
        """Pack scalar results (e.g. from a fallback loop) into a batch."""
        return cls(
            np.array([c.n_d for c in counts], dtype=np.float64),
            np.array([c.n_cs for c in counts], dtype=np.float64),
            np.array([c.n_cd for c in counts], dtype=np.float64),
            np.array([c.n_o for c in counts], dtype=np.float64),
        )
