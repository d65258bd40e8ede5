"""Span recording and the per-layer metrics derived from spans."""

import json
import sys
import types
from pathlib import Path

import pytest

import spans


def test_self_time_subtracts_children_of_other_layers():
    recorded = [
        ["pipeline.run_evaluate", -1, 0.0, 10.0, {}],
        ["models.model_predictions", 0, 1.0, 3.0, {}],
        ["models.grud_forward", 1, 1.5, 2.5, {}],
        ["metrics.grouped_bootstrap", 0, 4.0, 9.0,
         {"metric_calls": 11, "draws": 10, "valid_draws": 8}],
        ["metrics.take", 3, 5.0, 6.0, {}],
    ]
    m = spans.round_metrics(recorded)
    assert m["pipeline.self_s"] == pytest.approx(3.0)
    assert m["models.self_s"] == pytest.approx(2.0)
    assert m["metrics.self_s"] == pytest.approx(5.0)
    assert m["models.grud_forward_calls"] == 1
    assert m["metrics.take_s"] == pytest.approx(1.0)
    assert m["metrics.metric_calls"] == 11
    assert m["metrics.valid_draw_ratio"] == pytest.approx(0.8)


def test_training_steps_split_forward_backward_adamw_and_validation():
    run = ["training.train_model", -1, 0.0, 100.0, {"kind": "grud", "task": "forecasting"}]
    step = [
        ["autodiff.zero_grads", 0, 1.0, 1.5, {}],
        ["models.encoder_forward", 0, 1.5, 4.0, {}],
        ["models.heads_forward", 0, 4.0, 4.5, {}],
        ["autodiff.backward", 0, 6.0, 9.0, {"tape_nodes": 7, "tape_bytes": 2_000_000,
                                            "probe_s": 0.5}],
        ["training.adamw_step", 0, 9.0, 10.0, {}],
    ]
    second = [
        ["autodiff.zero_grads", 0, 11.0, 11.5, {}],
        ["autodiff.backward", 0, 13.5, 15.5, {}],
        ["training.adamw_step", 0, 15.5, 16.0, {}],
    ]
    val = [
        ["models.encoder_forward", 0, 20.0, 23.0, {}],
        ["models.heads_forward", 0, 23.0, 24.0, {}],
    ]
    (result,) = spans.training_steps([run] + step + second + val)
    assert result["kind"] == "grud"
    assert result["step_s"] == pytest.approx([8.5, 5.0])
    assert result["forward_s"] == pytest.approx([4.0, 2.0])
    assert result["backward_s"] == pytest.approx([3.0, 2.0])
    assert result["adamw_s"] == pytest.approx([1.0, 0.5])
    assert result["val_forward_s"] == pytest.approx(4.0)
    m = spans.round_metrics([run] + step + second + val)
    assert m["autodiff.grud.tape_nodes_per_step"] == 7
    assert m["autodiff.grud.tape_mb_per_step"] == pytest.approx(2.0)
    assert m["training.steps"] == 2


def test_tracer_wraps_in_the_callers_namespace_and_restores(monkeypatch):
    lib = types.ModuleType("fake_lib")
    lib.inner = lambda x: x + 1
    caller = types.ModuleType("fake_caller")
    caller.inner = lib.inner  # imported by name, as pipeline imports ingest
    caller.outer = lambda x: caller.inner(x) * 2
    monkeypatch.setitem(sys.modules, "fake_lib", lib)
    monkeypatch.setitem(sys.modules, "fake_caller", caller)
    original = caller.outer
    tracer = spans.Tracer()
    tracer.install({"fake_caller": {"outer": "pipeline.outer", "inner": "ingest.inner"}})
    assert caller.outer(1) == 4
    tracer.uninstall()
    assert caller.outer is original
    assert [(s[0], s[1]) for s in tracer.spans] == [("pipeline.outer", -1), ("ingest.inner", 0)]
    assert all(s[3] >= s[2] for s in tracer.spans)


def test_read_spans_joins_files_and_shifts_parents(tmp_path):
    first = spans.Tracer()
    first.spans = [["pipeline.run_train", -1, 0.0, 2.0, {}], ["autodiff.backward", 0, 0.5, 1.0, {}]]
    second = spans.Tracer()
    second.spans = [["pipeline.run_train", -1, 3.0, 5.0, {}], ["training.adamw_step", 0, 4.0, 4.5, {}]]
    first.write(tmp_path / "a.jsonl")
    second.write(tmp_path / "b.jsonl")
    joined = spans.read_spans([tmp_path / "a.jsonl", tmp_path / "b.jsonl"])
    assert [s[1] for s in joined] == [-1, 0, -1, 2]
    assert spans.round_metrics(joined)["pipeline.self_s"] == pytest.approx(3.0)


def test_every_declared_metric_gets_a_value():
    # the traced run adds trace.timed_s and each encoder's worker peak memory
    # to what the spans give
    declared = json.loads((Path(spans.__file__).parent.parent / "BENCHMARK.json").read_text())
    names = {d["name"] for d in declared["per_layer"]}
    added = {"trace.timed_s"} | {f"training.{k}.peak_rss_mb" for k in spans.ENCODERS}
    values = spans.combine([spans.round_metrics([])])
    assert names - added == set(values)
