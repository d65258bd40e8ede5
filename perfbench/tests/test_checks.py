"""Each check passes on real program output and fails when one output is perturbed."""

import csv
import json
import shutil
from pathlib import Path

import pytest

import checks
from corpus import CorpusSpec, make_corpus
from hrbench import pipeline
from hrbench.config import BenchConfig, DataConfig, EvaluationConfig, ModelsConfig
from hrbench.training import TrainConfig

SPEC = CorpusSpec(n_records=12, seconds=1800, base_hr=78.0, episode_rate_per_hour=4.0,
                  episode_amplitude=42.0, osc_amplitude=10.0)


def small_config(base: Path) -> BenchConfig:
    return BenchConfig(
        data=DataConfig(peaks_manifest=str(base / "corpus" / "manifest.csv"),
                        dataset_dir=str(base / "dataset")),
        models=ModelsConfig(grud_hidden=8, d_model=8, layers=1, heads=2, ffn_dim=16),
        train=TrainConfig(epochs=3, seeds=(0,)),
        evaluation=EvaluationConfig(bootstrap_draws=60),
        runs_dir=str(base / "runs"),
    )


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    base = tmp_path_factory.mktemp("made")
    corpus = make_corpus(SPEC, seed=4, stream=5)
    corpus.write(base / "corpus")
    cfg = small_config(base)
    pipeline.run_prepare(cfg)
    pipeline.run_train(cfg)
    pipeline.run_evaluate(cfg)
    return corpus, cfg, base


@pytest.fixture()
def copy(made, tmp_path):
    corpus, cfg, base = made
    shutil.copytree(base, tmp_path, dirs_exist_ok=True)
    return corpus, small_config(tmp_path), tmp_path


def grid(cfg):
    return [(k, t, s) for k in cfg.models.kinds for t in ("classification", "forecasting")
            for s in cfg.train.seeds]


def edit_csv(path: Path, row: int, column: str, value) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row + 1][rows[0].index(column)] = value
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def edit_json(path: Path, **changes) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.update(changes)
    path.write_text(json.dumps(doc), encoding="utf-8")


def prepared_errors(corpus, base):
    return checks.check_prepared(corpus.record_ids, corpus.peaks,
                                 checks.Prepared.read(base / "dataset"))


# ---------------------------------------------------------------------------
# prepare


def test_prepared_passes(copy):
    corpus, _, base = copy
    assert prepared_errors(corpus, base) == ([], 0)


def test_flipped_label_fails(copy):
    corpus, _, base = copy
    prep = checks.Prepared.read(base / "dataset")
    edit_csv(base / "dataset" / "windows.csv", 5, "cls_label", str(1 - prep.labels[5]))
    assert any("cls_label" in e for e in prepared_errors(corpus, base)[0])


def test_moved_target_fails(copy):
    corpus, _, base = copy
    prep = checks.Prepared.read(base / "dataset")
    edit_csv(base / "dataset" / "windows.csv", 3, "fc_target", repr(float(prep.targets[3]) + 1e-6))
    assert any("fc_target" in e for e in prepared_errors(corpus, base)[0])


def test_dropped_window_fails(copy):
    corpus, _, base = copy
    path = base / "dataset" / "windows.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:7] + lines[8:]), encoding="utf-8")
    assert any("windows, expected" in e for e in prepared_errors(corpus, base)[0])


def test_wrong_theta_fails(copy):
    corpus, _, base = copy
    meta = json.loads((base / "dataset" / "dataset.json").read_text(encoding="utf-8"))
    edit_json(base / "dataset" / "dataset.json", theta=95.0 if meta["theta"] != 95.0 else 90.0)
    assert any("theta" in e for e in prepared_errors(corpus, base)[0])


def test_wrong_sigma_fails(copy):
    corpus, _, base = copy
    meta = json.loads((base / "dataset" / "dataset.json").read_text(encoding="utf-8"))
    edit_json(base / "dataset" / "dataset.json", sigma=meta["sigma"] * (1 + 1e-7))
    assert any("mu/sigma" in e for e in prepared_errors(corpus, base)[0])


def test_record_missing_from_split_is_a_failed_operation(copy):
    corpus, _, base = copy
    meta = json.loads((base / "dataset" / "dataset.json").read_text(encoding="utf-8"))
    split = dict(meta["split"])
    del split[corpus.record_ids[0]]
    edit_json(base / "dataset" / "dataset.json", split=split)
    assert prepared_errors(corpus, base)[1] == 1


def test_split_sizes_must_match_rows(copy):
    corpus, _, base = copy
    prep = checks.Prepared.read(base / "dataset")
    sizes = {s: int(prep.mask(s).sum()) for s in checks.SPLITS}
    assert checks.check_prepared(corpus.record_ids, corpus.peaks, prep, sizes)[0] == []
    sizes["val"] += 1
    errors = checks.check_prepared(corpus.record_ids, corpus.peaks, prep, sizes)[0]
    assert any("split sizes" in e for e in errors)


def test_first_theta_rejection_is_checked(copy):
    corpus, _, base = copy
    prep = checks.Prepared.read(base / "dataset")
    errors = checks.check_prepared(corpus.record_ids, corpus.peaks, prep,
                                   first_theta_rejected=prep.meta["theta"] == 100.0)
    assert any("reject" in e for e in errors[0]) == (prep.meta["theta"] == 100.0)


# ---------------------------------------------------------------------------
# train


def trained_errors(cfg, base):
    return checks.check_trained(checks.Prepared.read(base / "dataset"), base / "runs", grid(cfg),
                                cfg.train.epochs)


def test_trained_passes(copy):
    _, cfg, base = copy
    assert trained_errors(cfg, base) == ([], 0)


def test_missing_checkpoint_is_a_failed_run(copy):
    _, cfg, base = copy
    next((base / "runs").glob("forecasting_grud*/checkpoint.json")).unlink()
    assert trained_errors(cfg, base)[1] == 1


def test_nan_loss_fails(copy):
    _, cfg, base = copy
    edit_csv(next((base / "runs").glob("classification_grud*/train_log.csv")), 2, "loss", "nan")
    assert any("finite" in e for e in trained_errors(cfg, base)[0])


def test_untrained_final_loss_fails(copy):
    _, cfg, base = copy
    log = next((base / "runs").glob("forecasting_transformer*/train_log.csv"))
    edit_csv(log, 2 * cfg.train.epochs - 1, "loss", "10.0")
    assert any("initial predictor" in e for e in trained_errors(cfg, base)[0])


# ---------------------------------------------------------------------------
# evaluate


def report_errors(cfg, base):
    return checks.check_report(checks.Prepared.read(base / "dataset"), base / "runs", grid(cfg),
                               cfg.train.seeds)


def report_row(base, task, model, metric):
    rows = checks.read_report(base / "runs")
    return next(i for i, r in enumerate(rows)
                if (r["task"], r["model"], r["metric"]) == (task, model, metric))


def test_report_passes(copy):
    _, cfg, base = copy
    assert report_errors(cfg, base) == ([], 0)


@pytest.mark.parametrize("task,model,metric", [
    ("classification", "grud", "auroc"),
    ("classification", "transformer", "auprc"),
    ("classification", "grud", "ece"),
    ("classification", "grud", "f1_at_threshold"),
    ("classification", "transformer", "brier"),
    ("forecasting", "grud", "mae"),
    ("forecasting", "transformer", "rmse"),
    ("forecasting", "grud", "crps"),
    ("forecasting", "persistence", "crps"),
    ("classification", "always_negative", "auprc"),
])
def test_moved_point_fails(copy, task, model, metric):
    _, cfg, base = copy
    i = report_row(base, task, model, metric)
    point = checks.read_report(base / "runs")[i]["point"]
    edit_csv(base / "runs" / "report.csv", i, "point", repr(point * (1 + 1e-6) + 1e-9))
    assert any(metric in e for e in report_errors(cfg, base)[0])


def test_temperature_change_fails(copy):
    _, cfg, base = copy
    path = next((base / "runs").glob("classification_grud*/calibration.json"))
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit_json(path, temperature=doc["temperature"] * 1.01)
    assert any("brier" in e for e in report_errors(cfg, base)[0])


def test_always_negative_auroc_interval_is_checked(copy):
    _, cfg, base = copy
    i = report_row(base, "classification", "always_negative", "auroc")
    edit_csv(base / "runs" / "report.csv", i, "ci_high", "0.51")
    assert any("expected 0.5" in e for e in report_errors(cfg, base)[0])


def test_inverted_interval_fails(copy):
    _, cfg, base = copy
    i = report_row(base, "forecasting", "transformer", "mae")
    row = checks.read_report(base / "runs")[i]
    edit_csv(base / "runs" / "report.csv", i, "ci_low", repr(row["ci_high"] + 0.1))
    assert any("ci_low" in e for e in report_errors(cfg, base)[0])


def test_interval_outside_per_record_range_fails(copy):
    _, cfg, base = copy
    i = report_row(base, "forecasting", "grud", "mae")
    edit_csv(base / "runs" / "report.csv", i, "ci_high", "1000.0")
    assert any("per-record range" in e for e in report_errors(cfg, base)[0])


def test_missing_and_extra_rows_fail(copy):
    _, cfg, base = copy
    path = base / "runs" / "report.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")
    assert any("report.csv rows" in e for e in report_errors(cfg, base)[0])
    path.write_text("".join(lines + lines[-1:]), encoding="utf-8")
    assert any("report.csv rows" in e for e in report_errors(cfg, base)[0])


# ---------------------------------------------------------------------------
# determinism


def test_identical_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.write_text("x")
    b.write_text("x")
    assert checks.check_identical("f", [a, b]) == []
    b.write_text("y")
    assert checks.check_identical("f", [a, b]) != []
    assert checks.check_identical("f", [a, tmp_path / "missing"]) != []
