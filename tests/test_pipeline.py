import csv
import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from hrbench import cli, pipeline, training
from hrbench.autodiff import save_checkpoint
from hrbench.config import (
    BenchConfig,
    CalibrationConfig,
    DataConfig,
    EvaluationConfig,
    ModelsConfig,
    SplitConfig,
    load_config,
    write_default_config,
)
from hrbench.errors import EvaluationError
from hrbench.ingest import load_prepared
from hrbench.models import GrudConfig
from hrbench.synth import SyntheticSpec
from hrbench.training import TrainConfig


def micro_config(tmp_path, **overrides) -> BenchConfig:
    base = BenchConfig(
        data=DataConfig(
            dataset_dir=str(tmp_path / "dataset"), synth_dir=str(tmp_path / "synth")
        ),
        split=SplitConfig(ratios=(0.5, 0.25, 0.25), seed=0),
        models=ModelsConfig(grud_hidden=8, d_model=8, layers=1, heads=2, ffn_dim=16),
        train=TrainConfig(epochs=2, seeds=(0,)),
        calibration=CalibrationConfig(),
        evaluation=EvaluationConfig(bootstrap_draws=40, bootstrap_seed=5),
        synth=SyntheticSpec(n_records=10, record_seconds=500, episode_rate_per_hour=22.0, seed=3),
        runs_dir=str(tmp_path / "runs"),
    )
    return replace(base, **overrides)


@pytest.fixture()
def prepared(tmp_path):
    config = micro_config(tmp_path)
    pipeline.run_synth(config)
    summary = pipeline.run_prepare(config)
    return config, summary


class TestPrepare:
    def test_summary_and_files(self, prepared, capsys):
        config, summary = prepared
        assert summary.theta in (100.0, 95.0, 90.0, 85.0)
        assert summary.n_positive_records >= 3
        assert summary.n_positive_windows >= 40
        assert (Path(config.data.dataset_dir) / "windows.csv").exists()
        assert (Path(config.data.dataset_dir) / "dataset.json").exists()

    def test_no_records_is_exit_code_2(self, tmp_path):
        manifest = tmp_path / "empty.csv"
        manifest.write_text("record_id,path\n", encoding="utf-8")
        ini = tmp_path / "bench.ini"
        ini.write_text(
            f"[data]\npeaks_manifest = {manifest}\n", encoding="utf-8"
        )
        code = cli.main(["prepare", "--config", str(ini)])
        assert code == 2

    def test_exclusion_list(self, tmp_path, capsys):
        config = micro_config(tmp_path)
        pipeline.run_synth(config)
        excluded = replace(
            config, data=replace(config.data, exclude=("synth000", "synth001"))
        )
        pipeline.run_prepare(excluded)
        sidecar = json.loads(
            (Path(config.data.dataset_dir) / "dataset.json").read_text(encoding="utf-8")
        )
        assert "synth000" not in sidecar["split"]


class TestTrain:
    def test_grid_and_artifacts(self, prepared):
        config, _ = prepared
        run_ids = pipeline.run_train(config)
        assert len(run_ids) == 4  # 2 models x 2 tasks x 1 seed
        for run_id in run_ids:
            run_dir = Path(config.runs_dir) / run_id
            assert (run_dir / "checkpoint.json").exists()
            assert (run_dir / "manifest.json").exists()
            log = (run_dir / "train_log.csv").read_text(encoding="utf-8").splitlines()
            assert log[0] == "run_id,epoch,split,loss"
            assert len(log) == 1 + 2 * config.train.epochs

    def test_hidden_sweep_adds_classification_runs(self, prepared):
        config, _ = prepared
        swept = replace(config, hidden_sweep=(4,), runs_dir=config.runs_dir + "_sweep")
        run_ids = pipeline.run_train(swept)
        assert "classification_grud_h4_seed0" in run_ids
        assert len(run_ids) == 5

    def test_rerun_is_byte_identical(self, prepared, tmp_path):
        config, _ = prepared
        a_dir, b_dir = tmp_path / "runs_a", tmp_path / "runs_b"
        ids_a = pipeline.run_train(replace(config, runs_dir=str(a_dir)))
        ids_b = pipeline.run_train(replace(config, runs_dir=str(b_dir)))
        assert ids_a == ids_b
        for run_id in ids_a:
            a = (a_dir / run_id / "checkpoint.json").read_bytes()
            b = (b_dir / run_id / "checkpoint.json").read_bytes()
            assert a == b

    def test_sweep_and_absolute_runs_evaluate_under_their_labels(self, prepared):
        config, _ = prepared
        config = replace(config, hidden_sweep=(4,),
                         train=replace(config.train, target_mode="absolute"))
        run_ids = pipeline.run_train(config)
        assert "classification_grud_h4_seed0" in run_ids
        assert "forecasting_grud_absolute_seed0" in run_ids
        manifest = json.loads((Path(config.runs_dir) / "classification_grud_h4_seed0"
                               / "manifest.json").read_text(encoding="utf-8"))
        assert (manifest["hidden"], manifest["target_mode"]) == (4, "absolute")
        rows = pipeline.run_evaluate(config)
        labels = {(r["task"], r["model"]) for r in rows}
        assert ("classification", "grud_h4") in labels
        assert ("forecasting", "grud_absolute") in labels
        assert ("classification", "grud") in labels  # classification ignores target_mode

    def test_training_never_reads_test_split(self, prepared):
        config, _ = prepared
        dataset = load_prepared(config.data.dataset_dir)
        from hrbench.training import train_model
        from hrbench.models import GrudConfig

        train_model(
            "classification", "grud", dataset, config.train, 0,
            encoder_config=GrudConfig(hidden_dim=8),
        )
        assert "test" not in dataset.access_log


class TestEvaluate:
    def test_report_contents(self, prepared):
        config, _ = prepared
        pipeline.run_train(config)
        rows = pipeline.run_evaluate(config)
        by_model = {(r["task"], r["model"], r["metric"]) for r in rows}
        assert ("classification", "grud", "auroc") in by_model
        assert ("classification", "transformer", "ece") in by_model
        assert ("forecasting", "grud", "crps") in by_model
        assert ("forecasting", "persistence", "mae") in by_model
        assert ("classification", "always_negative", "auroc") in by_model
        baseline = {
            r["metric"]: r for r in rows if r["model"] == "always_negative"
        }
        assert baseline["auroc"]["point"] == 0.5
        assert baseline["auprc"]["point"] == pytest.approx(baseline["prevalence"]["point"])
        assert baseline["brier"]["point"] == pytest.approx(baseline["prevalence"]["point"])
        assert baseline["ece"]["point"] is None
        assert baseline["f1_at_threshold"]["point"] is None
        report = Path(config.runs_dir) / "report.csv"
        assert report.exists()
        assert (Path(config.runs_dir) / "report.json").exists()
        for run_dir in Path(config.runs_dir).iterdir():
            if run_dir.is_dir() and run_dir.name.startswith("classification"):
                sidecar = json.loads((run_dir / "calibration.json").read_text("utf-8"))
                assert set(sidecar) == {"temperature", "threshold", "beta"}

    def test_baselines_scored_once_for_all_seeds(self, prepared, monkeypatch):
        config, _ = prepared
        config = replace(config, train=replace(config.train, seeds=(0, 1, 2), epochs=1))
        pipeline.run_train(config)
        calls = []
        bootstrap = pipeline.met.grouped_bootstrap

        def counted(*args, **kwargs):
            calls.append(args[2:])
            return bootstrap(*args, **kwargs)

        monkeypatch.setattr(pipeline.met, "grouped_bootstrap", counted)
        rows = pipeline.run_evaluate(config)
        # 6 classification runs x 6 metrics + 6 forecasting runs x 3, plus
        # 4 always-negative and 3 persistence metrics once, not once per seed
        assert len(calls) == 61
        baselines = {
            seed: [{k: v for k, v in r.items() if k != "seed"} for r in rows
                   if r["model"] in ("always_negative", "persistence") and r["seed"] == seed]
            for seed in (0, 1, 2)
        }
        assert len(baselines[0]) == 9
        assert baselines[0] == baselines[1] == baselines[2]

    def test_no_calibration_flag_pins_temperature(self, prepared):
        config, _ = prepared
        pipeline.run_train(config)
        off = replace(config, calibration=replace(config.calibration, enabled=False))
        pipeline.run_evaluate(off)
        for run_dir in Path(config.runs_dir).iterdir():
            if run_dir.is_dir() and run_dir.name.startswith("classification"):
                sidecar = json.loads((run_dir / "calibration.json").read_text("utf-8"))
                assert sidecar["temperature"] == 1.0

    def test_scores_exactly_the_grid(self, prepared, capsys):
        config, _ = prepared
        config = replace(config, train=replace(config.train, seeds=(0, 1, 2), epochs=1))
        pipeline.run_train(config)
        # a directory outside the grid is never read, however broken
        stray = Path(config.runs_dir) / "classification_grud_seed9"
        stray.mkdir()
        (stray / "manifest.json").write_text("{", encoding="utf-8")
        only_seed0 = replace(config, train=replace(config.train, seeds=(0,)))
        capsys.readouterr()
        rows = pipeline.run_evaluate(only_seed0)
        assert {r["seed"] for r in rows} == {0}
        # the trained runs left out are named; the stray one holds no checkpoint
        warning = capsys.readouterr().err
        assert "8 trained run(s)" in warning and "forecasting_transformer_seed2" in warning
        assert "seed9" not in warning
        learned = {(r["task"], r["model"]) for r in rows
                   if r["model"] not in ("always_negative", "persistence")}
        assert learned == {(task, kind) for task in ("classification", "forecasting")
                           for kind in ("grud", "transformer")}
        (Path(config.runs_dir) / "forecasting_transformer_seed2" / "checkpoint.json").unlink()
        with pytest.raises(EvaluationError, match="forecasting_transformer_seed2"):
            pipeline.run_evaluate(config)

    def test_evaluate_without_runs_fails(self, prepared):
        config, _ = prepared
        Path(config.runs_dir).mkdir(parents=True, exist_ok=True)
        with pytest.raises(Exception):
            pipeline.run_evaluate(config)

    def test_end_to_end_reports_byte_identical(self, prepared, tmp_path):
        config, _ = prepared
        for sub in ("x", "y"):
            runs = replace(config, runs_dir=str(tmp_path / f"runs_{sub}"))
            pipeline.run_train(runs)
            pipeline.run_evaluate(runs)
        a = (tmp_path / "runs_x" / "report.csv").read_bytes()
        b = (tmp_path / "runs_y" / "report.csv").read_bytes()
        assert a == b


class TestReport:
    def test_seed_aggregation_hand_numbers(self):
        rows = [
            {"task": "classification", "model": "grud", "seed": s, "metric": "auroc",
             "point": p, "ci_low": p, "ci_high": p, "n_valid_draws": 10}
            for s, p in ((0, 0.90), (1, 0.92), (2, 0.91))
        ]
        agg = pipeline.aggregate_rows(rows)
        assert len(agg) == 1
        assert agg[0]["mean"] == pytest.approx(0.91)
        assert agg[0]["std"] == pytest.approx(0.01)  # sample std
        assert agg[0]["n_seeds"] == 3

    def test_identical_seeds_zero_std(self):
        rows = [
            {"task": "t", "model": "m", "seed": s, "metric": "mae",
             "point": 5.0, "ci_low": 4.0, "ci_high": 6.0, "n_valid_draws": 10}
            for s in (0, 1, 2)
        ]
        agg = pipeline.aggregate_rows(rows)
        assert agg[0]["std"] == 0.0

    def test_missing_seed_flagged(self):
        rows = [
            {"task": "t", "model": "m", "seed": s, "metric": "mae",
             "point": p, "ci_low": p, "ci_high": p, "n_valid_draws": 10}
            for s, p in ((0, 1.0), (2, 3.0))
        ]
        agg = pipeline.aggregate_rows(rows)
        assert agg[0]["n_seeds"] == 2

    def test_summary_files(self, prepared):
        config, _ = prepared
        pipeline.run_train(config)
        pipeline.run_evaluate(config)
        agg = pipeline.run_report(config.runs_dir)
        assert agg
        base = Path(config.runs_dir)
        assert (base / "summary.csv").exists()
        assert (base / "summary_classification.csv").exists()
        assert (base / "summary_forecasting.csv").exists()
        with open(base / "summary_classification.csv", newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        assert header[0] == "model"
        assert "auroc" in header and "prevalence" in header


class TestCli:
    def test_init_config_then_load(self, tmp_path):
        out = tmp_path / "bench.ini"
        assert cli.main(["init-config", "--out", str(out)]) == 0
        config = load_config(out)
        assert config.train.epochs == 6
        assert config.train.seeds == (0, 1, 2)
        assert config.windows.theta_candidates == (100.0, 95.0, 90.0, 85.0)
        assert config.evaluation.bootstrap_draws == 1000
        assert config.calibration.beta == 2.0
        # every key the file repeats from the dataclasses holds their default
        assert config == BenchConfig()

    def test_full_cycle_through_cli(self, tmp_path):
        ini = tmp_path / "bench.ini"
        ini.write_text(
            "\n".join(
                [
                    "[data]",
                    f"dataset_dir = {tmp_path / 'ds'}",
                    f"synth_dir = {tmp_path / 'synth'}",
                    "[split]",
                    "ratios = 0.5,0.25,0.25",
                    "[models]",
                    "grud_hidden = 8",
                    "d_model = 8",
                    "layers = 1",
                    "heads = 2",
                    "ffn_dim = 16",
                    "[train]",
                    "epochs = 1",
                    "seeds = 0",
                    f"runs_dir = {tmp_path / 'runs'}",
                    "[evaluation]",
                    "bootstrap_draws = 25",
                    "[synth]",
                    "n_records = 10",
                    "record_seconds = 500",
                    "episode_rate_per_hour = 22.0",
                    "seed = 3",
                ]
            ),
            encoding="utf-8",
        )
        assert cli.main(["synth", "--config", str(ini)]) == 0
        assert cli.main(["prepare", "--config", str(ini)]) == 0
        assert cli.main(["train", "--config", str(ini)]) == 0
        assert cli.main(["evaluate", "--config", str(ini)]) == 0
        assert cli.main(["report", "--config", str(ini)]) == 0
        assert (tmp_path / "runs" / "summary.csv").exists()

    @staticmethod
    def _grud_ini(config, suffix) -> Path:
        """A one-epoch, seed-0, GRU-D-only config on the prepared dataset."""
        ini = Path(config.runs_dir).parent / f"{suffix}.ini"
        ini.write_text(
            "\n".join(
                [
                    "[data]",
                    f"dataset_dir = {config.data.dataset_dir}",
                    "[models]",
                    "kinds = grud",
                    "grud_hidden = 8",
                    "[train]",
                    "epochs = 1",
                    "seeds = 0",
                    f"runs_dir = {config.runs_dir}_{suffix}",
                ]
            ),
            encoding="utf-8",
        )
        return ini

    def test_target_mode_flag(self, prepared):
        config, _ = prepared
        ini = self._grud_ini(config, "abs")
        assert cli.main(["train", "--config", str(ini), "--target-mode", "absolute"]) == 0
        manifest = json.loads(
            (Path(f"{config.runs_dir}_abs") / "forecasting_grud_absolute_seed0" / "manifest.json")
            .read_text(encoding="utf-8")
        )
        assert manifest["target_mode"] == "absolute"
        # evaluate names the same grid with the same flag; without it the
        # residual forecasting runs it expects are missing
        assert cli.main(["evaluate", "--config", str(ini), "--target-mode", "absolute"]) == 0
        assert cli.main(["evaluate", "--config", str(ini)]) == EvaluationError.exit_code

    def test_hidden_sweep_flag(self, prepared, capsys):
        config, _ = prepared
        ini = self._grud_ini(config, "sweep")
        assert cli.main(["train", "--config", str(ini), "--hidden-sweep", "4,6"]) == 0
        capsys.readouterr()

        def swept_models():
            report = pipeline.read_report(f"{config.runs_dir}_sweep")
            return {r["model"] for r in report if r["model"].startswith("grud_h")}

        # without the flag the sweep runs are outside the grid: not scored,
        # but named on stderr
        assert cli.main(["evaluate", "--config", str(ini)]) == 0
        warning = capsys.readouterr().err
        assert "classification_grud_h4_seed0" in warning
        assert "classification_grud_h6_seed0" in warning
        assert swept_models() == set()
        assert cli.main(["evaluate", "--config", str(ini), "--hidden-sweep", "4,6"]) == 0
        assert capsys.readouterr().err == ""
        assert swept_models() == {"grud_h4", "grud_h6"}


def _peak_manifest(tmp_path, peaks: str, row: str = "r1,r1.txt") -> str:
    (tmp_path / "r1.txt").write_text(peaks, encoding="utf-8")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"record_id,path\n{row}\n", encoding="utf-8")
    return f"[data]\npeaks_manifest = {manifest}\n"


def _combined(tmp_path, body: str) -> str:
    combined = tmp_path / "peaks.csv"
    combined.write_text("record_id,peak_time\n" + body, encoding="utf-8")
    return f"[data]\npeaks_combined = {combined}\n"


SIDECAR = {"mu": 80.0, "sigma": 10.0, "theta": 100.0, "T": 60, "H": 10, "split": {"r1": "train"}}


def _bad_windows_file(tmp_path, text="id,start\n", sidecar=json.dumps(SIDECAR)) -> str:
    dataset = tmp_path / "ds"
    dataset.mkdir()
    (dataset / "dataset.json").write_text(sidecar, encoding="utf-8")
    (dataset / "windows.csv").write_text(text, encoding="utf-8")
    return f"[data]\ndataset_dir = {dataset}\n"


def _sidecar_without(key: str) -> str:
    return json.dumps({k: v for k, v in SIDECAR.items() if k != key})


def _windows_row(tmp_path, row: str, sidecar=SIDECAR) -> str:
    header = ",".join(["record_id", "start_index", "cls_label", "fc_target"]
                      + [f"ctx_{i}" for i in range(60)])
    return _bad_windows_file(tmp_path, f"{header}\n{row}\n", json.dumps(sidecar))


def _full_row(record_id="r1", start="0", value="70.0") -> str:
    return ",".join([record_id, start, "1", "80.0"] + [value] * 60)


def _truncated_checkpoint(tmp_path) -> str:
    """A prepared dataset and a GRU-D grid whose checkpoints were cut off
    mid-write."""
    for run_id in ("classification_grud_seed0", "forecasting_grud_seed0"):
        run = tmp_path / "runs" / run_id
        run.mkdir(parents=True)
        (run / "checkpoint.json").write_text('{"grud.proj.w": {"shape": [2, 8], "da',
                                             encoding="utf-8")
    return _windows_row(tmp_path, _full_row()) + (
        f"[models]\nkinds = grud\n[train]\nseeds = 0\nruns_dir = {tmp_path / 'runs'}\n")


def _edited_checkpoint(tmp_path, edit) -> str:
    """A prepared dataset and a GRU-D grid whose checkpoints parse but were
    changed by `edit(doc)` after a hidden-8 model's was written."""
    for run_id in ("classification_grud_seed0", "forecasting_grud_seed0"):
        run = tmp_path / "runs" / run_id
        run.mkdir(parents=True)
        config = GrudConfig(hidden_dim=8)
        save_checkpoint(run / "checkpoint.json", training._build_model("grud", config, 0).values(),
                        config={"model_kind": "grud", **asdict(config)})
        doc = json.loads((run / "checkpoint.json").read_text(encoding="utf-8"))
        edit(doc)
        (run / "checkpoint.json").write_text(json.dumps(doc), encoding="utf-8")
    return _windows_row(tmp_path, _full_row()) + (
        f"[models]\nkinds = grud\n[train]\nseeds = 0\nruns_dir = {tmp_path / 'runs'}\n")


def _without_dtypes(doc):
    # a checkpoint as written before each parameter's dtype was stored
    for name, entry in doc.items():
        if name != "config":
            del entry["dtype"]


def _report(tmp_path, row: str,
            header="task,model,seed,metric,point,ci_low,ci_high,n_valid_draws") -> str:
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "report.csv").write_text(f"{header}\n{row}\n", encoding="utf-8")
    return f"[train]\nruns_dir = {runs}\n"


MALFORMED = {
    # case -> (command, INI text from tmp_path, text the error must name[,
    # exit code if not DataError's])
    "one_column_manifest_row": ("prepare", lambda t: _peak_manifest(t, "1\n2\n", row="r1"),
                                "manifest.csv:2"),
    "non_numeric_peak": ("prepare", lambda t: _peak_manifest(t, "1.0\nabc\n"), "r1.txt:2"),
    "non_increasing_peaks": ("prepare", lambda t: _peak_manifest(t, "1.0\n0.5\n"),
                             "manifest.csv:2"),
    "non_numeric_combined": ("prepare", lambda t: _combined(t, "r1,1.0\nr1,x\n"),
                             "peaks.csv:3"),
    "unknown_key": ("prepare", lambda t: "[train]\nbogus = 1\n", "bogus"),
    "unparsable_value": ("prepare", lambda t: "[train]\nepochs = six\n", "[train] epochs"),
    "zero_epochs": ("prepare", lambda t: "[train]\nepochs = 0\n", "[train]"),
    "windows_header": ("train", _bad_windows_file, "windows.csv"),
    "short_windows_row": ("train", lambda t: _windows_row(t, "r1,0,1,80.0,70.0,71.0"),
                          "windows.csv:2"),
    "windows_row_outside_split": ("train", lambda t: _windows_row(t, _full_row("r9")),
                                  "windows.csv:2"),
    "non_integer_start_index": ("train", lambda t: _windows_row(t, _full_row(start="x")),
                                "windows.csv:2"),
    "non_numeric_context": ("train", lambda t: _windows_row(t, _full_row(value="abc")),
                            "windows.csv:2"),
    "unknown_section": ("prepare", lambda t: "[trian]\nepochs = 1\n", "[trian]"),
    "misspelt_boolean": ("prepare", lambda t: "[models]\nlayer_norm = ture\n",
                         "[models] layer_norm"),
    "heads_not_dividing_d_model": ("prepare", lambda t: "[models]\nheads = 3\n", "[models]"),
    "unknown_model_kind": ("prepare", lambda t: "[models]\nkinds = gru\n", "'gru'"),
    "zero_d_model": ("train", lambda t: "[models]\nd_model = 0\n", "[models]"),
    "zero_layers": ("train", lambda t: "[models]\nlayers = 0\n", "[models]"),
    "negative_layers": ("train", lambda t: "[models]\nlayers = -1\n", "[models]"),
    "non_integer_sweep": ("train --hidden-sweep x", lambda t: "[train]\n", "--hidden-sweep"),
    "zero_sweep_flag": ("train --hidden-sweep 32,0", lambda t: "[train]\n", "--hidden-sweep"),
    "zero_sweep_key": ("prepare", lambda t: "[train]\nhidden_sweep = 0\n", "hidden_sweep"),
    "duplicate_manifest_record": ("prepare", lambda t: _peak_manifest(
        t, "1.0\n2.0\n", row="r1,r1.txt\nr1,r1.txt"), "manifest.csv:3"),
    "zero_context_seconds": ("prepare", lambda t: "[windows]\ncontext_seconds = 0\n",
                             "[windows]"),
    "negative_context_seconds": ("prepare", lambda t: "[windows]\ncontext_seconds = -5\n",
                                 "[windows]"),
    "zero_horizon_seconds": ("prepare", lambda t: "[windows]\nhorizon_seconds = 0\n",
                             "[windows]"),
    "empty_theta_candidates": ("prepare", lambda t: "[windows]\ntheta_candidates =\n",
                               "[windows]"),
    "two_split_ratios": ("prepare", lambda t: "[split]\nratios = 0.5,0.5\n", "[split]"),
    "zero_batch_size": ("train", lambda t: "[train]\nbatch_size = 0\n", "[train]"),
    "negative_batch_size": ("train", lambda t: "[train]\nbatch_size = -3\n", "[train]"),
    "zero_ece_bins": ("evaluate", lambda t: "[evaluation]\nece_bins = 0\n", "[evaluation]"),
    "zero_bootstrap_draws": ("evaluate", lambda t: "[evaluation]\nbootstrap_draws = 0\n",
                             "[evaluation]"),
    "zero_beta": ("evaluate", lambda t: "[calibration]\nbeta = 0\n", "[calibration]"),
    "negative_beta": ("evaluate", lambda t: "[calibration]\nbeta = -1\n", "[calibration]"),
    "zero_beta_flag": ("evaluate --beta 0", lambda t: "[calibration]\n", "--beta"),
    "non_numeric_beta_flag": ("evaluate --beta x", lambda t: "[calibration]\n", "--beta"),
    "unknown_target_mode_flag": ("train --target-mode sideways", lambda t: "[train]\n",
                                 "--target-mode"),
    "empty_seeds": ("train", lambda t: "[train]\nseeds =\n", "[train]"),
    "empty_seeds_with_sweep": ("train --hidden-sweep 8", lambda t: "[train]\nseeds =\n",
                               "[train]"),
    "negative_seed": ("train", lambda t: "[train]\nseeds = 0,-1\n", "[train]"),
    "empty_model_kinds": ("train", lambda t: "[models]\nkinds =\n", "[models]"),
    "negative_synth_seed": ("synth", lambda t: "[synth]\nseed = -1\n", "[synth]"),
    "negative_bootstrap_seed": ("evaluate", lambda t: "[evaluation]\nbootstrap_seed = -1\n",
                                "[evaluation]"),
    "infinite_peak": ("prepare", lambda t: _peak_manifest(t, "1.0\n2.0\ninf\n"), "r1.txt:3"),
    "duplicate_key": ("prepare", lambda t: "[train]\nepochs = 1\nepochs = 2\n", "'epochs'"),
    "no_section_header": ("prepare", lambda t: "epochs = 1\n", "no section headers"),
    "infinite_combined_peak": ("prepare", lambda t: _combined(t, "r1,1.0\nr1,inf\n"),
                               "peaks.csv:3"),
    "truncated_dataset_json": ("train", lambda t: _bad_windows_file(t, sidecar='{"mu": 80.0, "si'),
                               "dataset.json"),
    "dataset_json_without_mu": ("train", lambda t: _bad_windows_file(
        t, sidecar=_sidecar_without("mu")), "dataset.json: no 'mu'"),
    "dataset_json_without_split": ("train", lambda t: _bad_windows_file(
        t, sidecar=_sidecar_without("split")), "dataset.json: no 'split'"),
    "non_numeric_report_point": ("report", lambda t: _report(
        t, "classification,grud,0,auroc,high,,,"), "report.csv:2"),
    "report_without_a_result_column": ("report", lambda t: _report(
        t, "classification,grud,0,auroc,0.5,0.4,0.6",
        header="task,model,seed,metric,point,ci_low,ci_high"), "report.csv"),
    "truncated_checkpoint": ("evaluate", _truncated_checkpoint, "classification_grud_seed0",
                             EvaluationError.exit_code),
    "checkpoint_without_a_parameter": ("evaluate", lambda t: _edited_checkpoint(
        t, lambda doc: doc.pop("grud.proj.b")),
        "classification_grud_seed0, parameter grud.proj.b", EvaluationError.exit_code),
    "checkpoint_parameter_of_another_shape": ("evaluate", lambda t: _edited_checkpoint(
        t, lambda doc: doc["grud.gru.w_hh"].update(shape=[24, 8])),
        "classification_grud_seed0, parameter grud.gru.w_hh", EvaluationError.exit_code),
    "checkpoint_without_dtypes": ("evaluate", lambda t: _edited_checkpoint(t, _without_dtypes),
                                  "has float64 (1, 8), the model float32 (1, 8)",
                                  EvaluationError.exit_code),
    "dataset_json_with_negative_T": ("train", lambda t: _windows_row(
        t, _full_row(), sidecar={**SIDECAR, "T": -5}), "dataset.json: T"),
    "dataset_json_split_not_a_map": ("train", lambda t: _windows_row(
        t, _full_row(), sidecar={**SIDECAR, "split": ["r1"]}), "dataset.json: split"),
    "blank_windows_line": ("train", lambda t: _windows_row(t, f"{_full_row()}\n\n{_full_row()}"),
                           "windows.csv:3"),
    # split ids are at most two characters long, so a parse that cut ids to
    # that width would read r10 as r1
    "windows_row_of_a_longer_id": ("train", lambda t: _windows_row(t, _full_row("r10")),
                                   "windows.csv:2"),
    "digit_separator_in_context": ("train", lambda t: _windows_row(t, _full_row(value="1_0")),
                                   "windows.csv:2"),
    "fullwidth_digit_in_context": ("train", lambda t: _windows_row(t, _full_row(value="１.5")),
                                   "windows.csv:2"),
    "digit_separator_peak": ("prepare", lambda t: _peak_manifest(t, "1.0\n1_0\n"), "r1.txt:2"),
    "fullwidth_digit_peak": ("prepare", lambda t: _peak_manifest(t, "１.5\n2.0\n"), "r1.txt:1"),
    "two_numbers_on_a_peak_line": ("prepare", lambda t: _peak_manifest(t, "1.0\n2.0 3.0\n"),
                                   "r1.txt:2"),
    "two_numbers_on_every_peak_line": ("prepare", lambda t: _peak_manifest(t, "1.0 2.0\n"),
                                       "r1.txt:1"),
    "comment_line_in_peak_file": ("prepare", lambda t: _peak_manifest(t, "# peaks\n1.0\n2.0\n"),
                                  "r1.txt:1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_a_data_error(case, tmp_path, capsys):
    command, ini_text, where, *exit_code = MALFORMED[case]
    ini = tmp_path / "bench.ini"
    ini.write_text(ini_text(tmp_path), encoding="utf-8")
    assert cli.main([*command.split(), "--config", str(ini)]) == (exit_code or [2])[0]
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert where in err[0]


class TestGrid:
    def test_default_grid_is_twelve_runs(self):
        grid = pipeline._grid(BenchConfig())
        assert len(grid) == 12  # 2 models x 2 tasks x 3 seeds

    def test_capacity_sweep_adds_three_runs(self):
        config = replace(BenchConfig(), hidden_sweep=(32, 64, 128))
        grid = pipeline._grid(config)
        assert len(grid) == 15
        sweep = [g for g in grid if g.hidden is not None]
        assert [g.hidden for g in sweep] == [32, 64, 128]
        assert all(g.task == "classification" and g.model_kind == "grud" for g in sweep)


@pytest.mark.parametrize("preset", [None, "2"])
def test_the_cli_runs_blas_on_one_thread_unless_the_environment_says_otherwise(preset):
    # the variables must be set before numpy loads BLAS, so the package
    # itself must not load numpy
    script = ("import os, sys, hrbench\n"
              "assert 'numpy' not in sys.modules\n"
              "import hrbench.cli\n"
              "print(*(os.environ[v] for v in "
              "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.split() == [preset or "1", "1", "1"]
