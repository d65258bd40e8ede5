"""The benchmark's traced mode wraps hrbench functions by name and binds some
of their parameters; a rename must fail here, not only under `--trace 1`.
Its oracles restate the task's constants, which are the only definition of
the task in hrbench; a change on one side must fail here too."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from hrbench import ingest, metrics

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# function -> the parameters the tracer's hooks read
HOOKED = {
    ("hrbench.training", "train_model"): ("task", "model_kind", "dataset", "config"),
    ("hrbench.metrics", "grouped_bootstrap"): ("metric", "n_draws"),
    ("hrbench.ingest", "save_prepared"): ("windows",),
    ("hrbench.autodiff", "backward"): ("loss",),
}


def _perfbench(name: str):
    """The module perfbench/`name`.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(namespace: str):
    module_name, _, class_name = namespace.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def test_tracer_installs_and_uninstalls_on_hrbench():
    spans = _perfbench("spans")
    before = {(ns, attr): getattr(_owner(ns), attr)
              for ns, names in spans.WRAPPED.items() for attr in names}
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (ns, attr), original in before.items():
            assert getattr(_owner(ns), attr).__wrapped__ is original
    finally:
        tracer.uninstall()
    for (ns, attr), original in before.items():
        assert getattr(_owner(ns), attr) is original


def test_hooked_parameters_exist():
    for (module, name), params in HOOKED.items():
        signature = inspect.signature(getattr(importlib.import_module(module), name))
        missing = set(params) - set(signature.parameters)
        assert not missing, f"{module}.{name} lost {sorted(missing)}"


# an hrbench.ingest constant -> the oracles' constant of the same meaning
PROTOCOL = {
    "CONTEXT_LEN": "T",
    "HORIZON": "H",
    "THETA_CANDIDATES": "THETAS",
    "MIN_POSITIVE_RECORDS": "MIN_RECORDS",
    "MIN_POSITIVE_WINDOWS": "MIN_WINDOWS",
    "HR_MIN": "HR_LOW",
    "HR_MAX": "HR_HIGH",
}


@pytest.mark.parametrize("name", sorted(PROTOCOL))
def test_protocol_constant_equals_the_oracles(name):
    assert getattr(ingest, name) == getattr(_perfbench("oracles"), PROTOCOL[name])


def test_ece_bins_equal_the_oracles():
    oracle = _perfbench("oracles").ece_enumerated
    assert metrics.ECE_BINS == inspect.signature(oracle).parameters["n_bins"].default
