"""Orchestration of prepare / synth / train / evaluate / report.

Each stage reads and writes plain files (CSV + JSON) so stages can be rerun
independently; identical configs and inputs produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import calibration as cal
from . import metrics as met
from . import models, synth, training
from .autodiff import load_checkpoint, save_checkpoint
from .config import BenchConfig
from .errors import DataError, EvaluationError
from .ingest import (
    SplitData,
    WindowedDataset,
    build_windows,
    derive_hr,
    load_prepared,
    read_combined_peaks,
    read_manifest,
    save_prepared,
    select_threshold,
    split_records,
    standardize,
)

CLS_METRICS = ("auroc", "auprc", "brier", "ece", "f1_at_threshold", "prevalence")
FC_METRICS = ("mae", "rmse", "crps")


@dataclass(frozen=True)
class PrepareSummary:
    theta: float
    n_windows: int
    n_positive_windows: int
    n_positive_records: int
    dataset_dir: str


def run_synth(config: BenchConfig, out_dir=None) -> Path:
    records, bookkeeping = synth.generate_corpus(config.synth)
    target = Path(out_dir) if out_dir else Path(config.data.synth_dir)
    manifest = synth.write_corpus(target, records, bookkeeping)
    print(f"wrote {len(records)} synthetic records to {target}")
    return manifest


def _load_peak_records(config: BenchConfig):
    data = config.data
    if data.peaks_manifest:
        records = read_manifest(data.peaks_manifest)
    elif data.peaks_combined:
        records = read_combined_peaks(data.peaks_combined)
    else:
        fallback = Path(data.synth_dir) / "manifest.csv"
        if not fallback.exists():
            raise DataError(
                "no records: set data.peaks_manifest or data.peaks_combined, "
                "or run `bench synth` first"
            )
        records = read_manifest(fallback)
    excluded = set(data.exclude)
    records = [r for r in records if r.record_id not in excluded]
    if not records:
        raise DataError("no records: the peak source is empty after exclusions")
    return records


def run_prepare(config: BenchConfig) -> PrepareSummary:
    """derive -> threshold guard -> windows -> record split -> standardize."""
    records = _load_peak_records(config)
    T, H = config.windows.context_seconds, config.windows.horizon_seconds
    corpus = [derive_hr(r) for r in records]
    guard = select_threshold(corpus, config.windows.theta_candidates, T=T, H=H)

    windows = []
    positivity = {}
    for series in corpus:
        ws = build_windows(series, T=T, H=H, theta=guard.theta)
        windows.extend(ws)
        positivity[series.record_id] = any(w.cls_label for w in ws)
    assignment = split_records(positivity, config.split.ratios, config.split.seed)
    _, stats = standardize(windows, assignment, theta=guard.theta, T=T, H=H)
    save_prepared(config.data.dataset_dir, windows, stats, assignment, guard.theta, T=T, H=H)

    summary = PrepareSummary(
        theta=guard.theta,
        n_windows=len(windows),
        n_positive_windows=guard.n_positive_windows,
        n_positive_records=guard.n_positive_records,
        dataset_dir=config.data.dataset_dir,
    )
    print(
        f"theta={summary.theta:g} windows={summary.n_windows} "
        f"positives={summary.n_positive_windows} "
        f"positive_records={summary.n_positive_records}"
    )
    return summary


def _run_id(task: str, model_kind: str, seed: int, hidden: int | None, target_mode: str) -> str:
    parts = [task, model_kind]
    if hidden is not None:
        parts.append(f"h{hidden}")
    if task == "forecasting" and target_mode != "residual":
        parts.append(target_mode)
    parts.append(f"seed{seed}")
    return "_".join(parts)


def _encoder_config(config: BenchConfig, model_kind: str, hidden: int | None):
    m = config.models
    if model_kind == "grud":
        return models.GrudConfig(hidden_dim=hidden or m.grud_hidden)
    return models.TransformerConfig(
        d_model=m.d_model,
        layers=m.layers,
        heads=m.heads,
        ffn_dim=m.ffn_dim,
        max_len=config.windows.context_seconds,
        use_layer_norm=m.layer_norm,
    )


def _grid(config: BenchConfig) -> list[dict]:
    """The (model x task x seed) grid, plus capacity-sweep classification runs.

    Sweep entries are one run per hidden size at the first seed: the sweep
    compares capacities, not seed variance.
    """
    runs = []
    for model_kind in config.models.kinds:
        for task in ("classification", "forecasting"):
            for seed in config.train.seeds:
                runs.append(
                    {"task": task, "model_kind": model_kind, "seed": seed, "hidden": None}
                )
    if "grud" in config.models.kinds:
        for hidden in config.hidden_sweep:
            runs.append(
                {"task": "classification", "model_kind": "grud",
                 "seed": config.train.seeds[0], "hidden": hidden}
            )
    return runs


def run_train(config: BenchConfig, runs_dir=None) -> list[str]:
    dataset = load_prepared(config.data.dataset_dir)
    base = Path(runs_dir) if runs_dir else Path(config.runs_dir)
    base.mkdir(parents=True, exist_ok=True)
    run_ids = []
    for entry in _grid(config):
        run_id = _run_id(entry["task"], entry["model_kind"], entry["seed"],
                         entry["hidden"], config.train.target_mode)
        enc_config = _encoder_config(config, entry["model_kind"], entry["hidden"])
        trained = training.train_model(
            entry["task"],
            entry["model_kind"],
            dataset,
            config.train,
            entry["seed"],
            encoder_config=enc_config,
        )
        run_dir = base / run_id
        run_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(
            run_dir / "checkpoint.json",
            trained.params.values(),
            config={"model_kind": entry["model_kind"], **asdict(trained.encoder_config)},
        )
        manifest = {
            "run_id": run_id,
            "task": entry["task"],
            "model_kind": entry["model_kind"],
            "seed": entry["seed"],
            "target_mode": config.train.target_mode,
            "train": asdict(config.train),
            "dataset_dir": str(config.data.dataset_dir),
        }
        with open(run_dir / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
        with open(run_dir / "train_log.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run_id", "epoch", "split", "loss"])
            for row in trained.history:
                writer.writerow([run_id, row["epoch"], "train", repr(row["train_loss"])])
                writer.writerow([run_id, row["epoch"], "val", repr(row["val_loss"])])
        run_ids.append(run_id)
        final = trained.history[-1]
        print(f"{run_id}: train_loss={final['train_loss']:.4f} val_loss={final['val_loss']:.4f}")
        if "test" in dataset.access_log:
            raise EvaluationError("training touched the test split")
    return run_ids


def _rebuild_encoder_config(blob: dict):
    kind = blob.pop("model_kind")
    if kind == "grud":
        blob["train_mean"] = tuple(blob["train_mean"])
        return kind, models.GrudConfig(**blob)
    return kind, models.TransformerConfig(**blob)


def _report_row(task, model, seed, metric, result, n_draws=None):
    if result is None:
        return {"task": task, "model": model, "seed": seed, "metric": metric,
                "point": None, "ci_low": None, "ci_high": None, "n_valid_draws": None}
    return {"task": task, "model": model, "seed": seed, "metric": metric,
            "point": result.point, "ci_low": result.ci_low, "ci_high": result.ci_high,
            "n_valid_draws": result.n_valid_draws}


def _classification_rows(run_id, manifest, split_val: SplitData, split_test: SplitData,
                         logits_val, logits_test, config: BenchConfig, run_dir) -> list[dict]:
    if config.calibration.enabled:
        fit = cal.fit_temperature(logits_val, split_val.cls_labels)
    else:
        fit = cal.TemperatureFit(temperature=1.0, skipped=True)
    probs_val = cal.apply_temperature(logits_val, fit.temperature)
    tau = cal.select_threshold_fbeta(probs_val, split_val.cls_labels, config.calibration.beta)
    probs_test = cal.apply_temperature(logits_test, fit.temperature)

    sidecar = {"temperature": fit.temperature, "threshold": tau, "beta": config.calibration.beta}
    with open(Path(run_dir) / "calibration.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)

    pred = met.PredictionSet(
        record_ids=split_test.record_ids,
        arrays={"probs": probs_test, "labels": split_test.cls_labels.astype(np.float64)},
    )
    draws, seed_b = config.evaluation.bootstrap_draws, config.evaluation.bootstrap_seed
    bins = config.evaluation.ece_bins
    closures = {
        "auroc": lambda p: met.auroc(p["probs"], p["labels"], p.weights),
        "auprc": lambda p: met.auprc(p["probs"], p["labels"], p.weights),
        "brier": lambda p: met.brier(p["probs"], p["labels"], p.weights),
        "ece": lambda p: met.ece(p["probs"], p["labels"], bins, p.weights),
        "f1_at_threshold": lambda p: met.f1_at_threshold(p["probs"], p["labels"], tau, p.weights),
        "prevalence": lambda p: met.weighted_mean(p["labels"], p.weights),
    }
    rows = []
    task, model, seed = manifest["task"], manifest["model_kind"], manifest["seed"]
    model_label = _model_label(run_id, manifest)
    for name, closure in closures.items():
        result = met.grouped_bootstrap(pred, closure, draws, seed_b)
        rows.append(_report_row(task, model_label, seed, name, result))
    return rows


def _model_label(run_id: str, manifest: dict) -> str:
    # strip the task prefix and seed suffix: the model plus its variant tags
    label = run_id
    prefix = manifest["task"] + "_"
    if label.startswith(prefix):
        label = label[len(prefix):]
    suffix = f"_seed{manifest['seed']}"
    if label.endswith(suffix):
        label = label[: -len(suffix)]
    return label


def _forecast_rows(run_id, manifest, dataset: WindowedDataset, split_test: SplitData,
                   outputs, config: BenchConfig) -> list[dict]:
    stats = dataset.stats
    if manifest["target_mode"] == "residual":
        mu_tilde = outputs["mu_tilde"]
    else:
        mu_tilde = outputs["delta_mu"]
    mu_bpm = stats.denormalize(mu_tilde)
    sigma_bpm = stats.scale_to_bpm(outputs["sigma_n"])
    return _forecast_metric_rows(
        manifest["task"], _model_label(run_id, manifest), manifest["seed"],
        split_test, mu_bpm, sigma_bpm, config,
    )


def _forecast_metric_rows(task, model_label, seed, split_test: SplitData,
                          mu_bpm, sigma_bpm, config: BenchConfig) -> list[dict]:
    targets = split_test.fc_targets_bpm
    abs_err = np.abs(mu_bpm - targets)
    sq_err = (mu_bpm - targets) ** 2
    crps_vals = met.crps_gaussian(mu_bpm, sigma_bpm, targets)
    pred = met.PredictionSet(
        record_ids=split_test.record_ids,
        arrays={"abs_err": abs_err, "sq_err": sq_err, "crps": crps_vals},
    )
    draws, seed_b = config.evaluation.bootstrap_draws, config.evaluation.bootstrap_seed
    closures = {
        "mae": lambda p: met.weighted_mean(p["abs_err"], p.weights),
        "rmse": lambda p: np.sqrt(met.weighted_mean(p["sq_err"], p.weights)),
        "crps": lambda p: met.weighted_mean(p["crps"], p.weights),
    }
    rows = []
    for name, closure in closures.items():
        result = met.grouped_bootstrap(pred, closure, draws, seed_b)
        rows.append(_report_row(task, model_label, seed, name, result))
    return rows


def _baseline_rows(dataset: WindowedDataset, config: BenchConfig) -> list[dict]:
    """Rows of the non-learned baselines, which depend on no training seed:
    their seed column is None until the caller fills it in."""
    rows = []
    test = dataset.split("test")
    # always-negative classifier: ECE and the operating point are meaningless
    # for a constant rule, so those rows are emitted as undefined
    probs = models.always_negative_probs(test.n)
    pred = met.PredictionSet(
        record_ids=test.record_ids,
        arrays={"probs": probs, "labels": test.cls_labels.astype(np.float64)},
    )
    draws, seed_b = config.evaluation.bootstrap_draws, config.evaluation.bootstrap_seed
    closures = {
        "auroc": lambda p: met.auroc(p["probs"], p["labels"], p.weights),
        "auprc": lambda p: met.auprc(p["probs"], p["labels"], p.weights),
        "brier": lambda p: met.brier(p["probs"], p["labels"], p.weights),
        "prevalence": lambda p: met.weighted_mean(p["labels"], p.weights),
    }
    for name, closure in closures.items():
        result = met.grouped_bootstrap(pred, closure, draws, seed_b)
        rows.append(_report_row("classification", "always_negative", None, name, result))
    for name in ("ece", "f1_at_threshold"):
        rows.append(_report_row("classification", "always_negative", None, name, None))

    train = dataset.split("train")
    resid_std = float(np.std(train.fc_targets_bpm - train.contexts_bpm[:, -1]))
    mu_bpm, sigma_bpm = models.persistence_forecast(test.contexts_bpm, resid_std)
    rows.extend(
        _forecast_metric_rows("forecasting", "persistence", None, test, mu_bpm, sigma_bpm, config)
    )
    return rows


def run_evaluate(config: BenchConfig, runs_dir=None) -> list[dict]:
    """Score every trained run plus the non-learned baselines; write reports."""
    base = Path(runs_dir) if runs_dir else Path(config.runs_dir)
    run_dirs = sorted(p for p in base.iterdir() if (p / "manifest.json").exists())
    if not run_dirs:
        raise EvaluationError(f"no trained runs under {base}")
    dataset = load_prepared(config.data.dataset_dir)
    rows: list[dict] = []
    for run_dir in run_dirs:
        with open(run_dir / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        params, blob = load_checkpoint(run_dir / "checkpoint.json")
        kind, enc_config = _rebuild_encoder_config(blob)
        val = dataset.split("val")
        test = dataset.split("test")
        out_val = models.model_predictions(kind, enc_config, params,
                                           val.contexts_norm, val.last_context_norm)
        out_test = models.model_predictions(kind, enc_config, params,
                                            test.contexts_norm, test.last_context_norm)
        if manifest["task"] == "classification":
            rows.extend(
                _classification_rows(manifest["run_id"], manifest, val, test,
                                     out_val["cls_logit"], out_test["cls_logit"],
                                     config, run_dir)
            )
        else:
            rows.extend(
                _forecast_rows(manifest["run_id"], manifest, dataset, test, out_test, config)
            )
    baselines = _baseline_rows(dataset, config)
    for seed in config.train.seeds:
        rows.extend({**row, "seed": seed} for row in baselines)

    _write_report(base, rows)
    return rows


def _fmt(value) -> str:
    return "" if value is None else repr(value)


def _write_report(base: Path, rows: list[dict]) -> None:
    with open(base / "report.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "model", "seed", "metric", "point", "ci_low",
                         "ci_high", "n_valid_draws"])
        for r in rows:
            writer.writerow([r["task"], r["model"], r["seed"], r["metric"],
                             _fmt(r["point"]), _fmt(r["ci_low"]), _fmt(r["ci_high"]),
                             "" if r["n_valid_draws"] is None else r["n_valid_draws"]])
    with open(base / "report.json", "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2)


def read_report(runs_dir) -> list[dict]:
    rows = []
    with open(Path(runs_dir) / "report.csv", encoding="utf-8", newline="") as fh:
        for r in csv.DictReader(fh):
            for key in ("point", "ci_low", "ci_high"):
                r[key] = float(r[key]) if r[key] else None
            r["seed"] = int(r["seed"])
            r["n_valid_draws"] = int(r["n_valid_draws"]) if r["n_valid_draws"] else None
            rows.append(r)
    return rows


def aggregate_rows(rows: list[dict]) -> list[dict]:
    """mean +/- sample std of point estimates across seeds per (task, model, metric)."""
    grouped: dict[tuple, list[float]] = {}
    for r in rows:
        if r["point"] is None:
            continue
        grouped.setdefault((r["task"], r["model"], r["metric"]), []).append(r["point"])
    out = []
    for (task, model, metric), points in sorted(grouped.items()):
        arr = np.array(points)
        std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        out.append({"task": task, "model": model, "metric": metric,
                    "mean": float(arr.mean()), "std": std, "n_seeds": len(arr)})
    return out


def run_report(runs_dir) -> list[dict]:
    """Aggregate per-seed reports into the final summary tables."""
    rows = read_report(runs_dir)
    aggregated = aggregate_rows(rows)
    base = Path(runs_dir)
    with open(base / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        # std across seeds is the sample (n-1) standard deviation
        writer.writerow(["task", "model", "metric", "mean", "std", "n_seeds"])
        for r in aggregated:
            writer.writerow([r["task"], r["model"], r["metric"],
                             repr(r["mean"]), repr(r["std"]), r["n_seeds"]])
    for task, metric_names in (("classification", CLS_METRICS), ("forecasting", FC_METRICS)):
        models_seen = sorted({r["model"] for r in aggregated if r["task"] == task})
        path = base / f"summary_{task}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            header = ["model"]
            for m in metric_names:
                header += [m, f"{m}_std"]
            writer.writerow(header)
            for model in models_seen:
                row = [model]
                for m in metric_names:
                    match = [r for r in aggregated
                             if r["task"] == task and r["model"] == model and r["metric"] == m]
                    if match:
                        row += [repr(match[0]["mean"]), repr(match[0]["std"])]
                    else:
                        row += ["", ""]
                writer.writerow(row)
    print(f"wrote {base / 'summary.csv'}")
    return aggregated
