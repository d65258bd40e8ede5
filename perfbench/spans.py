"""Traced mode: spans around the calls into each hrbench layer, from outside.

Each wrapped function is replaced in the namespace its caller looks it up in:
`pipeline` imports the ingest functions by name, so those are wrapped on
`hrbench.pipeline`; `ad.backward`, `training.adamw_step`,
`models.encoder_forward`, `met.grouped_bootstrap` and `cal.fit_temperature`
are looked up on their own modules. A span is (name, parent, start, end,
attributes); spans stay in memory and are written out when the run ends.
The layer of a span is the first part of its name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

# namespace ("module" or "module:Class") -> {attribute: span name}
WRAPPED = {
    "hrbench.pipeline": {
        "run_prepare": "pipeline.run_prepare",
        "run_train": "pipeline.run_train",
        "run_evaluate": "pipeline.run_evaluate",
        "run_report": "pipeline.run_report",
        "read_manifest": "ingest.read_manifest",
        "derive_hr": "ingest.derive_hr",
        "select_threshold": "ingest.select_threshold",
        "build_windows": "ingest.build_windows",
        "split_records": "ingest.split_records",
        "standardize": "ingest.standardize",
        "save_prepared": "ingest.save_prepared",
        "load_prepared": "ingest.load_prepared",
    },
    # select_threshold calls build_windows, and the prepare_corpus timed part
    # calls load_prepared, through the ingest module itself
    "hrbench.ingest": {
        "build_windows": "ingest.build_windows",
        "load_prepared": "ingest.load_prepared",
    },
    "hrbench.models": {
        "encoder_forward": "models.encoder_forward",
        "grud_forward": "models.grud_forward",
        "transformer_forward": "models.transformer_forward",
        "heads_forward": "models.heads_forward",
        "model_predictions": "models.model_predictions",
    },
    "hrbench.autodiff": {"zero_grads": "autodiff.zero_grads", "backward": "autodiff.backward"},
    "hrbench.training": {"train_model": "training.train_model", "adamw_step": "training.adamw_step"},
    "hrbench.calibration": {
        "fit_temperature": "calibration.fit_temperature",
        "select_threshold_fbeta": "calibration.select_threshold_fbeta",
    },
    "hrbench.metrics": {
        "grouped_bootstrap": "metrics.grouped_bootstrap",
        "auroc": "metrics.auroc",
        "auprc": "metrics.auprc",
        "ece": "metrics.ece",
    },
    "hrbench.metrics:PredictionSet": {"take": "metrics.take"},
}
LAYERS = ("pipeline", "ingest", "models", "autodiff", "training", "calibration", "metrics")
ENCODERS = ("grud", "transformer")


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end, attrs]
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._tape_probed: set[int] = set()

    def _enter(self, name: str, attrs: dict) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, time.perf_counter(), None, attrs])
        self._open.append(index)
        return index

    def _leave(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn, name: str):
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs: dict = {}
            if hook is None:
                index = self._enter(name, attrs)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._leave(index)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            after = hook(bound.arguments, attrs)
            index = self._enter(name, attrs)
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                self._leave(index)
            if after is not None:
                after(result)
            return result

        return wrapper

    # hooks see the bound arguments before the call, fill the span's
    # attributes, and may return a callback that sees the result

    def _hook_training_train_model(self, args, attrs):
        attrs["kind"] = args["model_kind"]
        attrs["task"] = args["task"]
        attrs["windows"] = args["dataset"].split_sizes()["train"] * args["config"].epochs

    def _hook_autodiff_backward(self, args, attrs):
        # the tape of the first step of each run: a full batch, so the
        # count and size repeat exactly; the probe's time is kept so the
        # step timings can leave it out
        run = self._innermost("training.train_model")
        if run is None or run in self._tape_probed:
            return None
        self._tape_probed.add(run)
        from hrbench import autodiff

        start = time.perf_counter()
        nodes = autodiff.Tape(args["loss"]).nodes
        attrs["tape_nodes"] = len(nodes)
        attrs["tape_bytes"] = int(sum(node.data.nbytes for node in nodes))
        attrs["probe_s"] = time.perf_counter() - start
        return None

    def _hook_metrics_grouped_bootstrap(self, args, attrs):
        metric = args["metric"]
        attrs["metric_calls"] = 0

        def counted(predictions):
            attrs["metric_calls"] += 1
            return metric(predictions)

        args["metric"] = counted
        attrs["draws"] = int(args["n_draws"])

        def after(result):
            attrs["valid_draws"] = int(result.n_valid_draws)

        return after

    def _hook_ingest_save_prepared(self, args, attrs):
        attrs["windows"] = len(args["windows"])

    def _innermost(self, name: str):
        for index in reversed(self._open):
            if self.spans[index][0] == name:
                return index
        return None

    def install(self, wrapped=WRAPPED) -> None:
        for namespace, names in wrapped.items():
            module_name, _, class_name = namespace.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            for attr, span_name in names.items():
                self._replace(owner, attr, self._wrap(getattr(owner, attr), span_name))

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end, attrs in self.spans:
                fh.write(json.dumps([name, parent, start, end, attrs]) + "\n")


def read_spans(paths) -> list[list]:
    """The spans of several files as one list, parent indices shifted to match."""
    out: list[list] = []
    for path in paths:
        offset = len(out)
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                span = json.loads(line)
                if span[1] >= 0:
                    span[1] += offset
                out.append(span)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics


def _children(spans) -> dict[int, list[int]]:
    out: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        out[span[1]].append(index)
    return out


def training_steps(spans) -> list[dict]:
    """One entry per train_model span: its encoder, task, and per-step
    timings split into forward, backward and AdamW, plus the per-epoch
    validation forward and the first step's tape size.

    A step runs from zero_grads to the end of adamw_step; its forward is the
    gap between zero_grads and backward. An encoder forward that starts after
    an AdamW step and before the next zero_grads is the validation forward.
    """
    children = _children(spans)
    runs = []
    for index, (name, _, run_start, run_end, attrs) in enumerate(spans):
        if name != "training.train_model":
            continue
        run = {"kind": attrs["kind"], "task": attrs["task"], "run_s": run_end - run_start,
               "windows": attrs.get("windows", 0), "step_s": [], "forward_s": [],
               "backward_s": [], "adamw_s": [], "val_forward_s": 0.0, "tape": []}
        in_step, step_start, grads_zeroed, val_start, probe = False, 0.0, 0.0, 0.0, 0.0
        for child in children[index]:
            cname, _, start, end, cattrs = spans[child]
            if cname == "autodiff.zero_grads":
                in_step, step_start, grads_zeroed, probe = True, start, end, 0.0
            elif cname == "autodiff.backward":
                probe = cattrs.get("probe_s", 0.0)
                if "tape_nodes" in cattrs:
                    run["tape"].append((cattrs["tape_nodes"], cattrs["tape_bytes"]))
                run["forward_s"].append(start - grads_zeroed - probe)
                run["backward_s"].append(end - start)
            elif cname == "training.adamw_step":
                run["adamw_s"].append(end - start)
                run["step_s"].append(end - step_start - probe)
                in_step = False
            elif cname == "models.encoder_forward" and not in_step:
                val_start = start
            elif cname == "models.heads_forward" and not in_step:
                run["val_forward_s"] += end - val_start
        runs.append(run)
    return runs


def round_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one round's spans. Keys starting with "_" are not
    metrics: the step samples, so percentiles can pool rounds, and the step
    count of each run."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_time: dict[str, float] = defaultdict(float)
    children = _children(spans)
    attr_sum: dict[str, float] = defaultdict(float)
    for index, (name, _, start, end, attrs) in enumerate(spans):
        duration = end - start
        total[name] += duration
        calls[name] += 1
        covered = sum(spans[c][3] - spans[c][2] for c in children[index])
        self_time[name.split(".")[0]] += duration - covered
        for key in ("metric_calls", "draws", "valid_draws", "windows"):
            if key in attrs:
                attr_sum[f"{name}:{key}"] += attrs[key]

    out: dict = {}
    for stage in ("run_prepare", "run_train", "run_evaluate", "run_report"):
        out[f"pipeline.{stage}_s"] = total[f"pipeline.{stage}"]
    for fn in ("read_manifest", "derive_hr", "select_threshold", "build_windows",
               "split_records", "standardize", "save_prepared", "load_prepared"):
        out[f"ingest.{fn}_s"] = total[f"ingest.{fn}"]
    out["ingest.build_windows_calls"] = calls["ingest.build_windows"]
    out["ingest.load_prepared_calls"] = calls["ingest.load_prepared"]
    out["ingest.windows"] = attr_sum["ingest.save_prepared:windows"]
    for kind in ENCODERS:
        out[f"models.{kind}_forward_s"] = total[f"models.{kind}_forward"]
        out[f"models.{kind}_forward_calls"] = calls[f"models.{kind}_forward"]
    out["models.heads_forward_s"] = total["models.heads_forward"]
    out["models.model_predictions_s"] = total["models.model_predictions"]

    runs = training_steps(spans)
    steps = {kind: [] for kind in ENCODERS}
    for kind in ENCODERS:
        mine = [r for r in runs if r["kind"] == kind]
        n_steps = sum(len(r["step_s"]) for r in mine)
        tapes = [t for r in mine for t in r["tape"]]

        def per_step(key):
            return 1e3 * sum(sum(r[key]) for r in mine) / n_steps if n_steps else 0.0

        run_s = sum(r["run_s"] for r in mine)
        out[f"training.{kind}.train_windows_per_s"] = (
            sum(r["windows"] for r in mine) / run_s if run_s else 0.0)
        out[f"autodiff.{kind}.backward_s"] = sum(sum(r["backward_s"]) for r in mine)
        out[f"autodiff.{kind}.tape_nodes_per_step"] = (
            sum(t[0] for t in tapes) / len(tapes) if tapes else 0.0)
        out[f"autodiff.{kind}.tape_mb_per_step"] = (
            sum(t[1] for t in tapes) / len(tapes) / 1e6 if tapes else 0.0)
        out[f"training.{kind}.forward_ms_per_step"] = per_step("forward_s")
        out[f"training.{kind}.backward_ms_per_step"] = per_step("backward_s")
        out[f"training.{kind}.adamw_ms_per_step"] = per_step("adamw_s")
        out[f"training.{kind}.val_forward_s"] = sum(r["val_forward_s"] for r in mine)
        steps[kind] = [1e3 * s for r in mine for s in r["step_s"]]
    out["training.steps"] = sum(len(r["step_s"]) for r in runs)
    out["_steps_per_run"] = [len(r["step_s"]) for r in runs]

    out["calibration.fit_temperature_s"] = total["calibration.fit_temperature"]
    out["calibration.select_threshold_fbeta_s"] = total["calibration.select_threshold_fbeta"]
    out["metrics.grouped_bootstrap_s"] = total["metrics.grouped_bootstrap"]
    out["metrics.grouped_bootstrap_calls"] = calls["metrics.grouped_bootstrap"]
    out["metrics.take_s"] = total["metrics.take"]
    out["metrics.metric_calls"] = attr_sum["metrics.grouped_bootstrap:metric_calls"]
    for fn in ("auroc", "auprc", "ece"):
        out[f"metrics.{fn}_s"] = total[f"metrics.{fn}"]
    draws = attr_sum["metrics.grouped_bootstrap:draws"]
    out["metrics.valid_draw_ratio"] = (
        attr_sum["metrics.grouped_bootstrap:valid_draws"] / draws if draws else 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer]
    out["trace.spans"] = len(spans)
    out["_steps"] = steps
    return out


# the highest percentile with at least ten samples beyond it at one
# train_grid round: 84 steps per encoder (2 tasks x 6 epochs x 7 batches)
TAIL_PERCENTILE = 80


def combine(rounds: list[dict]) -> dict[str, float]:
    """Median over rounds of each per-round metric; step-time percentiles
    over the steps of every round."""
    out = {}
    for key in rounds[0]:
        if not key.startswith("_"):
            out[key] = float(np.median([r[key] for r in rounds]))
    for kind in ENCODERS:
        samples = [s for r in rounds for s in r["_steps"][kind]]
        for q in (50, TAIL_PERCENTILE):
            out[f"training.{kind}.step_ms_p{q}"] = (
                float(np.percentile(samples, q)) if samples else 0.0)
    return out

