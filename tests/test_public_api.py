"""Public API integrity: everything advertised is importable and every
subpackage's __all__ is consistent."""

import importlib
import inspect

import pytest

import repro

from tests.conftest import fresh_interpreter_json

SUBPACKAGES = [
    "repro.geometry",
    "repro.grid",
    "repro.cube",
    "repro.euler",
    "repro.exact",
    "repro.baselines",
    "repro.index",
    "repro.selectivity",
    "repro.datasets",
    "repro.workloads",
    "repro.metrics",
    "repro.browse",
    "repro.cache",
    "repro.joins",
    "repro.experiments",
    "repro.gateway",
    "repro.ingest",
]


def test_top_level_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing name {name}"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} has no __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing name {name}"


#: Package inits that resolve their public names on first use
#: (:mod:`repro._exports`), so a spawned build worker imports only what it runs.
LAZY_PACKAGES = ["repro", "repro.euler", "repro.ingest"]

#: Where each exported constant is assigned; classes and functions name
#: their own module in ``__module__``.
CONSTANT_HOMES = {
    "DATASET_NAMES": "repro.datasets",
    "PAPER_QUERY_SET_SIZES": "repro.workloads.tiles",
    "CURVES": "repro.ingest.zones",
}


@pytest.mark.parametrize("module_name", LAZY_PACKAGES)
def test_lazy_names_are_the_defining_modules_objects(module_name):
    module = importlib.import_module(module_name)
    for name in module.__all__:
        if name == "__version__":
            continue
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            home = obj.__module__
        else:
            home = CONSTANT_HOMES[name]
        assert getattr(importlib.import_module(home), name) is obj, f"{module_name}.{name}"
        # The first read stores the value, so later reads are plain lookups.
        assert vars(module)[name] is obj


def test_lazy_package_dir_lists_every_public_name_before_it_loads():
    """In a fresh interpreter no public name is in its package's
    namespace before it is read, yet ``dir()`` lists every one."""
    report = fresh_interpreter_json(
        "import importlib, json\n"
        "report = {}\n"
        f"for package in {LAZY_PACKAGES!r}:\n"
        "    module = importlib.import_module(package)\n"
        "    names = set(module.__all__) - {'__version__'}\n"
        "    loaded = sorted(names & vars(module).keys())\n"
        "    report[package] = [loaded, sorted(names - set(dir(module)))]\n"
        "print(json.dumps(report))"
    )
    assert report == {package: [[], []] for package in LAZY_PACKAGES}


@pytest.mark.parametrize("module_name", LAZY_PACKAGES)
def test_lazy_package_rejects_unknown_names(module_name):
    module = importlib.import_module(module_name)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


def test_star_import_binds_every_top_level_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    for name in repro.__all__:
        assert namespace[name] is getattr(repro, name), name


def test_no_duplicate_top_level_names():
    assert len(repro.__all__) == len(set(repro.__all__))


def test_version_is_a_string():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") >= 1


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_public_classes_and_functions_have_docstrings(module_name):
    """Deliverable (e): doc comments on every public item."""
    module = importlib.import_module(module_name)
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{module_name}.{name} lacks a docstring"
            # Public methods of public classes too.
            if inspect.isclass(obj):
                for meth_name, meth in inspect.getmembers(obj, inspect.isfunction):
                    if meth_name.startswith("_"):
                        continue
                    assert meth.__doc__, (
                        f"{module_name}.{name}.{meth_name} lacks a docstring"
                    )


def test_estimators_satisfy_protocol():
    from repro.euler.base import Level2Estimator

    instances = []
    import numpy as np

    grid = repro.Grid(repro.Rect(0.0, 4.0, 0.0, 4.0), 4, 4)
    data = repro.RectDataset(
        np.array([0.5]), np.array([1.5]), np.array([0.5]), np.array([1.5]), grid.extent
    )
    hist = repro.EulerHistogram.from_dataset(data, grid)
    instances.append(repro.SEulerApprox(hist))
    instances.append(repro.EulerApprox(hist))
    instances.append(repro.MEulerApprox(data, grid, [1.0]))
    instances.append(repro.ExactEvaluator(data, grid))
    for instance in instances:
        assert isinstance(instance, Level2Estimator)
