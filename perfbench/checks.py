"""Checks of the program's outputs against the benchmark's own computations.

Each check returns (errors, failed): a list of readable mismatches, and how
many of the round's operations (prepared records, training runs, scored
runs) left no output at all. A check never reads a stored copy of earlier
output: it recomputes from the corpus, `windows.csv` and `dataset.json`, or
tests a property the method must have.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles as orc

SPLITS = ("train", "val", "test")
TOL = 1e-9


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@dataclass(frozen=True, eq=False)
class Prepared:
    """windows.csv as columns, plus dataset.json."""

    record_ids: np.ndarray
    starts: np.ndarray
    labels: np.ndarray
    targets: np.ndarray
    contexts: np.ndarray
    meta: dict

    @classmethod
    def read(cls, dataset_dir) -> "Prepared":
        base = Path(dataset_dir)
        meta = json.loads((base / "dataset.json").read_text(encoding="utf-8"))
        with open(base / "windows.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return cls(
            record_ids=np.array([r[0] for r in rows]),
            starts=np.array([int(r[1]) for r in rows], dtype=np.int64),
            labels=np.array([int(r[2]) for r in rows], dtype=np.int64),
            targets=np.array([float(r[3]) for r in rows]),
            contexts=np.array([[float(v) for v in r[4:]] for r in rows]).reshape(len(rows), -1),
            meta=meta,
        )

    def mask(self, split: str) -> np.ndarray:
        split_of = self.meta["split"]
        return np.array([split_of.get(r) == split for r in self.record_ids], dtype=bool)

    def normalized(self, split: str):
        """(contexts, last sample, residual target), normalized as the program's
        contract says: (x - mu) / sigma."""
        m = self.mask(split)
        mu, sigma = self.meta["mu"], self.meta["sigma"]
        contexts = (self.contexts[m] - mu) / sigma
        residual = (self.targets[m] - mu) / sigma - contexts[:, -1]
        return contexts, contexts[:, -1], residual


# ---------------------------------------------------------------------------
# prepare


def check_prepared(record_ids, peaks, prep: Prepared, split_sizes=None,
                   first_theta_rejected: bool = False):
    errors: list[str] = []
    split_map = prep.meta["split"]
    failed = sum(1 for r in record_ids if r not in split_map)
    if set(split_map) - set(record_ids):
        errors.append(f"split map names unknown records {sorted(set(split_map) - set(record_ids))}")
    if set(split_map.values()) - set(SPLITS):
        errors.append(f"unknown split names {sorted(set(split_map.values()) - set(SPLITS))}")
    if set(prep.record_ids) - set(record_ids):
        errors.append("windows.csv names records that are not in the corpus")

    hrs = [orc.hr_from_peaks(p) for p in peaks]
    index, tried = orc.guard(hrs)
    if index < 0:
        errors.append(f"no theta has enough positive support: {tried}")
        return errors, failed
    theta = orc.THETAS[index]
    if prep.meta["theta"] != theta:
        errors.append(f"theta {prep.meta['theta']} but the guard accepts {theta} after {tried}")
    if first_theta_rejected and index == 0:
        errors.append(f"the corpus meant to make the guard reject a candidate did not: {tried}")

    for record_id, hr in zip(record_ids, hrs):
        rows = np.flatnonzero(prep.record_ids == record_id)
        expected = orc.n_windows(len(hr))
        if len(rows) != expected:
            errors.append(f"{record_id}: {len(rows)} windows, expected {expected} from n={len(hr)}")
            continue
        starts = np.arange(expected) * orc.T
        if not np.array_equal(prep.starts[rows], starts):
            errors.append(f"{record_id}: window starts {prep.starts[rows][:3]}... not 0, T, 2T")
            continue
        means = orc.horizon_means(hr)
        want = (means >= theta).astype(np.int64)
        wrong = (prep.labels[rows] != want) & (np.abs(means - theta) > orc.LABEL_TIE)
        if wrong.any():
            errors.append(f"{record_id}: cls_label differs at starts {starts[wrong][:5]}")
        targets = hr[starts + orc.T]
        if not np.allclose(prep.targets[rows], targets, rtol=TOL, atol=0.0):
            errors.append(f"{record_id}: fc_target differs from HR at context end + 1")
        contexts = np.stack([hr[s : s + orc.T] for s in starts]) if expected else np.empty((0, orc.T))
        if not np.allclose(prep.contexts[rows], contexts, rtol=TOL, atol=0.0):
            errors.append(f"{record_id}: context samples differ from the derived HR")

    mu, sigma = orc.population_mean_std(prep.contexts[prep.mask("train")])
    if not (_close(prep.meta["mu"], mu) and _close(prep.meta["sigma"], sigma)):
        errors.append(f"mu/sigma {prep.meta['mu']}/{prep.meta['sigma']}, "
                      f"train contexts give {mu}/{sigma}")
    if split_sizes is not None:
        rows = {s: int(prep.mask(s).sum()) for s in SPLITS}
        if dict(split_sizes) != rows:
            errors.append(f"load_prepared split sizes {split_sizes}, windows.csv rows {rows}")
    return errors, failed


# ---------------------------------------------------------------------------
# train


def _runs(runs_dir) -> dict[tuple[str, str, int], Path]:
    out = {}
    for manifest in sorted(Path(runs_dir).glob("*/manifest.json")):
        m = json.loads(manifest.read_text(encoding="utf-8"))
        out[(m["model_kind"], m["task"], int(m["seed"]))] = manifest.parent
    return out


def _losses(run_dir: Path) -> dict[tuple[int, str], float]:
    with open(run_dir / "train_log.csv", encoding="utf-8", newline="") as fh:
        return {(int(r["epoch"]), r["split"]): float(r["loss"]) for r in csv.DictReader(fh)}


def check_trained(prep: Prepared, runs_dir, grid, epochs: int):
    """Checkpoints, finite per-epoch losses, and a final validation loss below
    the untrained initial predictor's."""
    errors: list[str] = []
    runs = _runs(runs_dir)
    failed = 0
    train_labels = prep.labels[prep.mask("train")]
    val_labels = prep.labels[prep.mask("val")]
    initial = {
        "classification": orc.initial_bce(train_labels, val_labels),
        "forecasting": orc.initial_nll(prep.normalized("train")[2], prep.normalized("val")[2]),
    }
    for kind, task, seed in grid:
        run_dir = runs.get((kind, task, seed))
        if run_dir is None or not (run_dir / "checkpoint.json").exists():
            failed += 1
            continue
        name = run_dir.name
        blob = json.loads((run_dir / "checkpoint.json").read_text(encoding="utf-8"))
        values = [v for key, p in blob.items() if key != "config" for v in p["data"]]
        if not values or not np.all(np.isfinite(values)):
            errors.append(f"{name}: checkpoint holds no finite parameters")
        losses = _losses(run_dir)
        for epoch in range(1, epochs + 1):
            for split in ("train", "val"):
                if not math.isfinite(losses.get((epoch, split), math.nan)):
                    errors.append(f"{name}: no finite {split} loss for epoch {epoch}")
        final = losses.get((epochs, "val"), math.nan)
        if not final < initial[task]:
            errors.append(f"{name}: final val loss {final} not below the initial "
                          f"predictor's {initial[task]}")
    return errors, failed


# ---------------------------------------------------------------------------
# evaluate


def read_report(runs_dir) -> list[dict]:
    with open(Path(runs_dir) / "report.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        r["seed"] = int(r["seed"])
        for key in ("point", "ci_low", "ci_high"):
            r[key] = float(r[key]) if r[key] else None
    return rows


CLS = ("auroc", "auprc", "brier", "ece", "f1_at_threshold", "prevalence")
FC = ("mae", "rmse", "crps")


def expected_rows(grid, seeds) -> list[tuple]:
    rows = [(task, kind, seed, m) for kind, task, seed in grid
            for m in (CLS if task == "classification" else FC)]
    for seed in seeds:
        rows += [("classification", "always_negative", seed, m) for m in CLS]
        rows += [("forecasting", "persistence", seed, m) for m in FC]
    return sorted(rows)


def _per_record(values: dict[str, np.ndarray], record_ids: np.ndarray) -> dict[str, list[float]]:
    """Each mean-type metric on every record's windows alone."""
    out: dict[str, list[float]] = {name: [] for name in values}
    for record in np.unique(record_ids):
        m = record_ids == record
        for name, per_window in values.items():
            v = float(np.mean(per_window[m]))
            out[name].append(math.sqrt(v) if name == "rmse" else v)
    return out


def _brier_terms(probs, labels) -> dict[str, np.ndarray]:
    """Per-window terms of the mean-type classification metrics."""
    return {"brier": (probs - labels) ** 2, "prevalence": labels.astype(np.float64)}


def _forecast_scores(mu_bpm, sigma_bpm, targets) -> tuple[dict, dict]:
    """Points of MAE, RMSE and CRPS, and their per-window terms."""
    err = mu_bpm - targets
    per_window = {"mae": np.abs(err), "rmse": err**2,
                  "crps": orc.crps_gaussian(mu_bpm, sigma_bpm, targets)}
    points = {name: float(np.mean(v)) for name, v in per_window.items()}
    points["rmse"] = math.sqrt(points["rmse"])
    return points, per_window


def model_outputs(run_dir, contexts_norm, last_norm) -> dict[str, np.ndarray]:
    """The program's model_predictions for a trained run's checkpoint."""
    from hrbench import models
    from hrbench.autodiff import load_checkpoint

    params, blob = load_checkpoint(Path(run_dir) / "checkpoint.json")
    kind = blob.pop("model_kind")
    if kind == "grud":
        encoder = models.GrudConfig(**{**blob, "train_mean": tuple(blob["train_mean"])})
    else:
        encoder = models.TransformerConfig(**blob)
    return models.model_predictions(kind, encoder, params, contexts_norm, last_norm)


def check_report(prep: Prepared, runs_dir, grid, seeds):
    """report.csv against metrics recomputed from the program's
    model_predictions on the test windows and the temperature and threshold
    in calibration.json."""
    errors: list[str] = []
    report = read_report(runs_dir)
    by_key = {(r["task"], r["model"], r["seed"], r["metric"]): r for r in report}
    got = sorted(by_key)
    want = expected_rows(grid, seeds)
    if len(report) != len(by_key) or got != want:
        errors.append(f"report.csv rows: {len(report)} rows, "
                      f"missing {sorted(set(want) - set(got))[:4]}, "
                      f"unexpected {sorted(set(got) - set(want))[:4]}")
    for r in report:
        if r["ci_low"] is not None and not r["ci_low"] <= r["ci_high"]:
            errors.append(f"{r['task']}/{r['model']}/{r['seed']}/{r['metric']}: "
                          f"ci_low {r['ci_low']} > ci_high {r['ci_high']}")

    test = prep.mask("test")
    labels, records, targets = prep.labels[test], prep.record_ids[test], prep.targets[test]
    contexts, last, _ = prep.normalized("test")
    mu, sigma = prep.meta["mu"], prep.meta["sigma"]
    runs = _runs(runs_dir)
    failed = 0

    def compare(key, points: dict, per_window: dict):
        for metric, value in points.items():
            row = by_key.get(key + (metric,))
            if row is None:
                continue
            if row["point"] is None or not _close(row["point"], value):
                errors.append(f"{'/'.join(map(str, key))}/{metric}: report {row['point']}, "
                              f"recomputed {value}")
        for metric, values in _per_record(per_window, records).items():
            row = by_key.get(key + (metric,))
            if row is None or row["point"] is None:
                continue
            lo, hi = min(values), max(values)
            slack = TOL * max(1.0, abs(hi))
            for field in ("point", "ci_low", "ci_high"):
                if not lo - slack <= row[field] <= hi + slack:
                    errors.append(f"{'/'.join(map(str, key))}/{metric}: {field} {row[field]} "
                                  f"outside the per-record range [{lo}, {hi}]")

    for kind, task, seed in grid:
        run_dir = runs.get((kind, task, seed))
        key = (task, kind, seed)
        if run_dir is None or not any(k[:3] == key for k in by_key):
            failed += 1
            continue
        out = model_outputs(run_dir, contexts, last)
        if task == "classification":
            cal = json.loads((run_dir / "calibration.json").read_text(encoding="utf-8"))
            probs = orc.sigmoid(out["cls_logit"], cal["temperature"])
            per_window = _brier_terms(probs, labels)
            points = {
                "auroc": orc.auroc_pairwise(probs, labels),
                "auprc": orc.average_precision(probs, labels),
                "brier": float(np.mean(per_window["brier"])),
                "ece": orc.ece_enumerated(probs, labels),
                "f1_at_threshold": orc.f1_at(probs, labels, cal["threshold"]),
                "prevalence": float(np.mean(labels)),
            }
            compare(key, points, per_window)
            # a monotone calibration cannot move a ranking metric
            compare(key, {"auroc": orc.auroc_pairwise(out["cls_logit"], labels),
                          "auprc": orc.average_precision(out["cls_logit"], labels)}, {})
        else:
            compare(key, *_forecast_scores(out["mu_tilde"] * sigma + mu,
                                           out["sigma_n"] * sigma, targets))

    prevalence = float(np.mean(labels))
    train = prep.mask("train")
    _, resid_std = orc.population_mean_std(prep.targets[train] - prep.contexts[train, -1])
    last_bpm = prep.contexts[test, -1]
    for seed in seeds:
        key = ("classification", "always_negative", seed)
        compare(key, {"auprc": prevalence, "brier": prevalence, "prevalence": prevalence},
                _brier_terms(np.zeros(len(labels)), labels))
        row = by_key.get(key + ("auroc",))
        if row is not None and (row["point"], row["ci_low"], row["ci_high"]) != (0.5, 0.5, 0.5):
            errors.append(f"always_negative/{seed}: AUROC {row['point']} "
                          f"[{row['ci_low']}, {row['ci_high']}], expected 0.5 [0.5, 0.5]")
        for metric in ("ece", "f1_at_threshold"):
            row = by_key.get(key + (metric,))
            if row is not None and row["point"] is not None:
                errors.append(f"always_negative/{seed}/{metric}: defined as {row['point']}")
        compare(("forecasting", "persistence", seed),
                *_forecast_scores(last_bpm, np.full(len(last_bpm), resid_std), targets))
    return errors, failed


# ---------------------------------------------------------------------------
# determinism


def check_identical(label: str, paths) -> list[str]:
    """Every repetition wrote the same bytes."""
    paths = [Path(p) for p in paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        return [f"{label}: missing {missing[:3]}"]
    digests = {hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    return [] if len(digests) <= 1 else [f"{label}: {len(digests)} different contents "
                                         f"over {len(paths)} repetitions"]


def check_runs_identical(runs_dirs) -> list[str]:
    """Each run's checkpoint.json is the same in every repetition's runs dir."""
    names = sorted(p.parent.name for p in Path(runs_dirs[0]).glob("*/checkpoint.json"))
    errors = []
    for name in names:
        errors += check_identical(f"{name}/checkpoint.json",
                                  [Path(d) / name / "checkpoint.json" for d in runs_dirs])
    return errors
