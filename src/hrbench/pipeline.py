"""Orchestration of prepare / synth / train / evaluate / report.

Each stage reads and writes plain files (CSV + JSON) so stages can be rerun
independently; identical configs and inputs produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
import sys
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
    Windows,
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

TASKS = ("classification", "forecasting")
# a report row's result columns, all None for a metric the model has no value for
UNDEFINED = dict.fromkeys(("point", "ci_low", "ci_high", "n_valid_draws"))
REPORT_COLUMNS = ["task", "model", "seed", "metric", *UNDEFINED]


@dataclass(frozen=True)
class PrepareSummary:
    theta: float
    n_windows: int
    n_positive_windows: int
    n_positive_records: int
    dataset_dir: str


def run_synth(config: BenchConfig) -> Path:
    records, bookkeeping = synth.generate_corpus(config.synth)
    target = Path(config.data.synth_dir)
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
    T, H = config.windows.context_seconds, config.windows.horizon_seconds
    # the peak times outsize the HR series; nothing after derive_hr reads them
    corpus = [derive_hr(r) for r in _load_peak_records(config)]
    guard = select_threshold(corpus, config.windows.theta_candidates, T=T, H=H)

    tables = [build_windows(series, T=T, H=H, theta=guard.theta) for series in corpus]
    positivity = {series.record_id: bool(t.cls_labels.any())
                  for series, t in zip(corpus, tables)}
    windows = Windows.concat(tables)
    split = split_records(positivity, config.split.ratios, config.split.seed)
    stats = standardize(windows, split)
    save_prepared(config.data.dataset_dir, windows, stats, split, guard.theta, H=H)

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


@dataclass(frozen=True)
class RunSpec:
    """One run of the grid; `run_train` writes it into the run's manifest."""

    task: str
    model_kind: str
    seed: int
    hidden: int | None
    target_mode: str

    @property
    def model_label(self) -> str:
        """The report's model name: the model kind plus its variant tags."""
        parts = [self.model_kind]
        if self.hidden is not None:
            parts.append(f"h{self.hidden}")
        if self.task == "forecasting" and self.target_mode != "residual":
            parts.append(self.target_mode)
        return "_".join(parts)

    @property
    def run_id(self) -> str:
        return f"{self.task}_{self.model_label}_seed{self.seed}"


def _grid(config: BenchConfig) -> list[RunSpec]:
    """The (model x task x seed) grid, plus capacity-sweep classification runs.

    Sweep entries are one run per hidden size at the first seed: the sweep
    compares capacities, not seed variance.
    """
    mode = config.train.target_mode
    runs = [
        RunSpec(task, model_kind, seed, None, mode)
        for model_kind in config.models.kinds
        for task in TASKS
        for seed in config.train.seeds
    ]
    if "grud" in config.models.kinds:
        runs += [
            RunSpec("classification", "grud", config.train.seeds[0], hidden, mode)
            for hidden in config.hidden_sweep
        ]
    return runs


def _encoder_from_blob(blob: dict):
    """(model kind, encoder config) from a checkpoint's config blob, which
    `run_train` writes as the model kind plus the encoder config's fields."""
    values = dict(blob)
    kind = values.pop("model_kind")
    encoder = {"grud": models.GrudConfig, "transformer": models.TransformerConfig}[kind]
    return kind, encoder(**values)


def run_train(config: BenchConfig) -> list[str]:
    dataset = load_prepared(config.data.dataset_dir)
    base = Path(config.runs_dir)
    base.mkdir(parents=True, exist_ok=True)
    run_ids = []
    for spec in _grid(config):
        run_id = spec.run_id
        enc_config = config.encoder_config(spec.model_kind, spec.hidden)
        trained = training.train_model(
            spec.task, spec.model_kind, dataset, config.train, spec.seed,
            encoder_config=enc_config,
        )
        run_dir = base / run_id
        run_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(
            run_dir / "checkpoint.json",
            trained.params.values(),
            config={"model_kind": spec.model_kind, **asdict(enc_config)},
        )
        manifest = {
            "run_id": run_id,
            **asdict(spec),
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


def metric_table(task: str, ece_bins: int | None = None, threshold: float | None = None) -> dict:
    """The report's metrics for `task`, in column order: name -> metric of a
    PredictionSet, or None where the model has no value for it.

    Classification predictions are the columns `probs` and `labels`;
    forecasting predictions are `mu`, `sigma` and `target` in bpm. ECE (over
    `ece_bins` bins) and F1 (at the F-beta `threshold`) score a calibration
    step's output, so a model without one (no threshold), such as
    always-negative, gets them undefined.
    """
    if task == "forecasting":
        return {
            "mae": lambda p: met.weighted_mean(np.abs(p["mu"] - p["target"]), p.weights),
            "rmse": lambda p: np.sqrt(met.weighted_mean((p["mu"] - p["target"]) ** 2, p.weights)),
            "crps": lambda p: met.weighted_mean(
                met.crps_gaussian(p["mu"], p["sigma"], p["target"]), p.weights),
        }

    def calibrated(metric):
        return None if threshold is None else metric

    return {
        "auroc": lambda p: met.auroc(p["probs"], p["labels"], p.weights),
        "auprc": lambda p: met.auprc(p["probs"], p["labels"], p.weights),
        "brier": lambda p: met.brier(p["probs"], p["labels"], p.weights),
        "ece": calibrated(lambda p: met.ece(p["probs"], p["labels"], ece_bins, p.weights)),
        "f1_at_threshold": calibrated(
            lambda p: met.f1_at_threshold(p["probs"], p["labels"], threshold, p.weights)),
        "prevalence": lambda p: met.weighted_mean(p["labels"], p.weights),
    }


def _scored_rows(task, model, seed, split: SplitData, columns: dict, table: dict,
                 config: BenchConfig) -> list[dict]:
    """One report row per metric in `table`, bootstrapped over the test records."""
    pred = met.PredictionSet(record_ids=split.record_ids, arrays=columns)
    draws, seed_b = config.evaluation.bootstrap_draws, config.evaluation.bootstrap_seed
    rows = []
    for name, metric in table.items():
        result = UNDEFINED if metric is None else asdict(
            met.grouped_bootstrap(pred, metric, draws, seed_b))
        rows.append({"task": task, "model": model, "seed": seed, "metric": name, **result})
    return rows


def _calibrate(run_dir: Path, val: SplitData, logits_val, config: BenchConfig):
    """Temperature and F-beta threshold from the validation logits, written to
    the run's calibration.json."""
    if config.calibration.enabled:
        fit = cal.fit_temperature(logits_val, val.cls_labels)
    else:
        fit = cal.TemperatureFit(temperature=1.0, skipped=True)
    probs_val = cal.apply_temperature(logits_val, fit.temperature)
    tau = cal.select_threshold_fbeta(probs_val, val.cls_labels, config.calibration.beta)
    sidecar = {"temperature": fit.temperature, "threshold": tau, "beta": config.calibration.beta}
    with open(run_dir / "calibration.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
    return fit.temperature, tau


def run_evaluate(config: BenchConfig) -> list[dict]:
    """Score the runs of the config's grid plus the non-learned baselines;
    write reports. Run directories outside the grid are not read; those that
    hold a checkpoint (other seeds, a capacity sweep the config leaves out)
    are named in a warning on stderr."""
    base = Path(config.runs_dir)
    specs = sorted(_grid(config), key=lambda spec: spec.run_id)
    for spec in specs:
        if not (base / spec.run_id / "checkpoint.json").exists():
            raise EvaluationError(f"grid run {spec.run_id} has no checkpoint under {base}")
    in_grid = {spec.run_id for spec in specs}
    outside = sorted(path.parent.name for path in base.glob("*/checkpoint.json")
                     if path.parent.name not in in_grid)
    if outside:
        print(f"warning: not scoring {len(outside)} trained run(s) under {base} outside "
              f"the config's grid: {', '.join(outside)}", file=sys.stderr)
    dataset = load_prepared(config.data.dataset_dir)
    val, test = dataset.split("val"), dataset.split("test")
    labels = test.cls_labels.astype(np.float64)
    rows: list[dict] = []
    for spec in specs:
        run_dir = base / spec.run_id
        try:
            params, blob = load_checkpoint(run_dir / "checkpoint.json")
            kind, enc_config = _encoder_from_blob(blob)
        except (ValueError, KeyError, TypeError) as exc:
            # for example a file cut short by a killed `train`
            raise EvaluationError(f"run {spec.run_id}: unreadable checkpoint.json under {base} "
                                  f"({type(exc).__name__}: {exc}); train the run again") from None

        def predict(split: SplitData):
            return models.model_predictions(kind, enc_config, params,
                                            split.contexts_norm, split.last_context_norm)

        out = predict(test)
        if spec.task == "classification":
            temperature, tau = _calibrate(run_dir, val, predict(val)["cls_logit"], config)
            columns = {"probs": cal.apply_temperature(out["cls_logit"], temperature),
                       "labels": labels}
            table = metric_table(spec.task, config.evaluation.ece_bins, tau)
        else:
            mu = out["mu_tilde"] if spec.target_mode == "residual" else out["delta_mu"]
            columns = {"mu": dataset.stats.denormalize(mu),
                       "sigma": dataset.stats.scale_to_bpm(out["sigma_n"]),
                       "target": test.fc_targets_bpm}
            table = metric_table(spec.task)
        rows.extend(_scored_rows(spec.task, spec.model_label, spec.seed, test, columns,
                                 table, config))

    # the non-learned baselines depend on no training seed: scored once,
    # reported under each seed
    train = dataset.split("train")
    resid_std = float(np.std(train.fc_targets_bpm - train.contexts_bpm[:, -1]))
    mu_bpm, sigma_bpm = models.persistence_forecast(test.contexts_bpm, resid_std)
    baselines = _scored_rows(
        "classification", "always_negative", None, test,
        {"probs": models.always_negative_probs(len(test)), "labels": labels},
        metric_table("classification"), config,
    ) + _scored_rows(
        "forecasting", "persistence", None, test,
        {"mu": mu_bpm, "sigma": sigma_bpm, "target": test.fc_targets_bpm},
        metric_table("forecasting"), config,
    )
    for seed in config.train.seeds:
        rows.extend({**row, "seed": seed} for row in baselines)

    _write_report(base, rows)
    return rows


def _write_report(base: Path, rows: list[dict]) -> None:
    # csv writes None as an empty field and a float as its repr()
    with open(base / "report.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, REPORT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    with open(base / "report.json", "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2)


def _number(text: str):
    # the int or float that `_write_report` wrote (a float's repr always has
    # a point, an exponent or a letter), or None for an empty field
    if not text:
        return None
    return int(text) if text.lstrip("-").isdigit() else float(text)


def read_report(runs_dir) -> list[dict]:
    path = Path(runs_dir) / "report.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != REPORT_COLUMNS:
            raise DataError(f"{path}: not a report file (header {reader.fieldnames})")
        try:
            return [{**r, **{key: _number(r[key]) for key in ("seed", *UNDEFINED)}}
                    for r in reader]
        except ValueError as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None


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
    for task in TASKS:
        metric_names = metric_table(task)
        found = {(r["model"], r["metric"]): r for r in aggregated if r["task"] == task}
        with open(base / f"summary_{task}.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            header = ["model"]
            for m in metric_names:
                header += [m, f"{m}_std"]
            writer.writerow(header)
            for model in sorted({model for model, _ in found}):
                row = [model]
                for m in metric_names:
                    r = found.get((model, m))
                    row += [repr(r["mean"]), repr(r["std"])] if r else ["", ""]
                writer.writerow(row)
    print(f"wrote {base / 'summary.csv'}")
    return aggregated
