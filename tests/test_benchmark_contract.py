"""The benchmark's traced mode wraps hrbench functions by name and binds some
of their parameters; a rename must fail here, not only under `--trace 1`."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# function -> the parameters the tracer's hooks read
HOOKED = {
    ("hrbench.training", "train_model"): ("task", "model_kind", "dataset", "config"),
    ("hrbench.metrics", "grouped_bootstrap"): ("metric", "n_draws"),
    ("hrbench.ingest", "save_prepared"): ("windows",),
    ("hrbench.autodiff", "backward"): ("loss",),
}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(namespace: str):
    module_name, _, class_name = namespace.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def test_tracer_installs_and_uninstalls_on_hrbench():
    spans = _spans()
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
