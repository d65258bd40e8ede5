"""Evaluation metrics and record-grouped bootstrap confidence intervals.

Every metric takes an optional weight matrix of shape (n_rows, n_examples):
row r counts example i `weights[r, i]` times. Given weights, a metric returns
one value per row, NaN where it is undefined on that row. Without weights it
is the unit-weight case of the same code and returns a float, raising
UndefinedMetric where it is undefined. The bootstrap scores all its draws as
the rows of one weight matrix.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import CIUndefined, ContractViolation, UndefinedMetric

_ERF = np.frompyfunc(math.erf, 1, 1)


def _weight_rows(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.ones((1, n))
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != n:
        raise ContractViolation(f"weights of shape {w.shape} for {n} examples")
    return w


def _result(values: np.ndarray, weights, undefined: str = "metric undefined"):
    """All rows when weighted; otherwise the single unit-weight row."""
    if weights is not None:
        return values
    value = float(values[0])
    if math.isnan(value):
        raise UndefinedMetric(undefined)
    return value


def _ratio(num, den) -> np.ndarray:
    """num / den, NaN where den is 0."""
    num, den = np.broadcast_arrays(np.asarray(num, dtype=np.float64), den)
    return np.divide(num, den, out=np.full(num.shape, np.nan), where=den != 0)


def _tie_ends(sorted_values: np.ndarray) -> np.ndarray:
    """Index of the last element of each run of equal values."""
    last = np.ones(len(sorted_values), dtype=bool)
    last[:-1] = sorted_values[1:] != sorted_values[:-1]
    return np.flatnonzero(last)


def weighted_mean(values, weights=None):
    """Mean of `values`, each example counted as often as its weight says."""
    values = np.asarray(values, dtype=np.float64)
    w = _weight_rows(weights, len(values))
    return _result(_ratio(w @ values, w.sum(axis=1)), weights, "mean of no examples")


def auroc(probs, labels, weights=None):
    """Mann-Whitney statistic; tied scores contribute one half.

    With integer weights every count is exact, so the statistic is one
    correctly rounded division whatever the weights.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    w = _weight_rows(weights, len(probs))
    order = np.argsort(probs, kind="mergesort")
    ends = _tie_ends(probs[order])
    w = w[:, order]
    # cumulative counts up to the end of each tie group, and per group
    pos_cum = np.cumsum(w * (labels[order] == 1), axis=1)[:, ends]
    neg_cum = np.cumsum(w * (labels[order] == 0), axis=1)[:, ends]
    pos = np.diff(pos_cum, axis=1, prepend=0.0)
    neg = np.diff(neg_cum, axis=1, prepend=0.0)
    # each positive beats the negatives below its group and ties half of its own
    u = (pos * (neg_cum - 0.5 * neg)).sum(axis=1)
    values = _ratio(u, pos.sum(axis=1) * neg.sum(axis=1))
    return _result(values, weights, "AUROC needs both classes")


def auprc(probs, labels, weights=None):
    """Average precision: recall-increment weighted precision over the PR curve."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    w = _weight_rows(weights, len(probs))
    order = np.argsort(-probs, kind="mergesort")
    # tied probabilities form a single PR-curve vertex
    ends = _tie_ends(probs[order])
    w = w[:, order]
    tp_cum = np.cumsum(w * (labels[order] == 1), axis=1)[:, ends]
    seen = np.cumsum(w, axis=1)[:, ends]
    tp = np.diff(tp_cum, axis=1, prepend=0.0)
    n_pos = tp.sum(axis=1)
    # a vertex without new positives (or absent from a row) adds nothing
    terms = np.where(tp > 0, _ratio(tp, n_pos[:, None]) * _ratio(tp_cum, seen), 0.0)
    values = np.where(n_pos > 0, terms.sum(axis=1), np.nan)
    return _result(values, weights, "AUPRC needs at least one positive")


def brier(probs, labels, weights=None):
    sq_err = (np.asarray(probs, dtype=np.float64) - np.asarray(labels, dtype=np.float64)) ** 2
    return weighted_mean(sq_err, weights)


def ece(probs, labels, n_bins: int = 10, weights=None):
    """Expected calibration error over equal-width bins.

    Bins are left-closed/right-open with the last bin closed; empty bins
    contribute nothing, and no examples at all give 0.
    """
    if n_bins < 1:
        raise ContractViolation("n_bins must be >= 1")
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    w = _weight_rows(weights, len(probs))
    bins = np.minimum((probs * n_bins).astype(int), n_bins - 1)
    member = (bins[:, None] == np.arange(n_bins)).astype(np.float64)
    count = w @ member
    gap = np.abs(_ratio(w @ (member * labels[:, None]), count)
                 - _ratio(w @ (member * probs[:, None]), count))
    total = count.sum(axis=1, keepdims=True)
    values = np.where(count > 0, _ratio(count, total) * gap, 0.0).sum(axis=1)
    return _result(values, weights)


def f1_at_threshold(probs, labels, tau: float, weights=None):
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    w = _weight_rows(weights, len(probs))
    predicted = probs >= tau
    tp = w @ (predicted & (labels == 1))
    fp = w @ (predicted & (labels == 0))
    fn = w @ (~predicted & (labels == 1))
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    values = np.where(tp > 0, _ratio(2.0 * precision * recall, precision + recall), 0.0)
    return _result(values, weights)


def crps_gaussian(mu, sigma, y):
    """Closed-form CRPS of a Gaussian forecast, in the units of its inputs."""
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.any(sigma <= 0):
        raise ContractViolation("sigma must be > 0")
    z = (y - mu) / sigma
    erf = np.asarray(_ERF(z / math.sqrt(2.0)), dtype=np.float64)
    cdf = 0.5 * (1.0 + erf)
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    out = sigma * (z * (2.0 * cdf - 1.0) + 2.0 * pdf - 1.0 / math.sqrt(math.pi))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PredictionSet:
    """Aligned per-example columns plus the record each example came from.

    `weights`, if set, is an (n_rows, n_examples) multiplicity matrix that a
    metric scores row by row; see the module docstring.
    """

    record_ids: tuple[str, ...]
    arrays: dict[str, np.ndarray]
    weights: np.ndarray | None = None

    def __post_init__(self):
        for name, arr in self.arrays.items():
            if len(arr) != len(self.record_ids):
                raise ContractViolation(f"column {name!r} misaligned with record_ids")
        if self.weights is not None:
            _weight_rows(self.weights, len(self.record_ids))

    def __len__(self) -> int:
        return len(self.record_ids)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def take(self, idx: np.ndarray) -> "PredictionSet":
        return PredictionSet(
            record_ids=tuple(self.record_ids[i] for i in idx),
            arrays={k: v[idx] for k, v in self.arrays.items()},
            weights=None if self.weights is None else self.weights[:, idx],
        )


@dataclass(frozen=True)
class BootstrapResult:
    point: float
    ci_low: float
    ci_high: float
    n_valid_draws: int


@functools.lru_cache(maxsize=16)
def _draw_counts(seed: int, n_draws: int, n_records: int) -> np.ndarray:
    """(n_draws, n_records): how often each draw picks each sorted record.

    Draw d owns the RNG stream default_rng([seed, d]), so a draw does not
    depend on how many draws precede it. Read-only, as the cache shares it.
    """
    counts = np.zeros((n_draws, n_records))
    for draw in range(n_draws):
        picks = np.random.default_rng([seed, draw]).integers(0, n_records, size=n_records)
        counts[draw] = np.bincount(picks, minlength=n_records)
    counts.flags.writeable = False
    return counts


def grouped_bootstrap(
    predictions: PredictionSet,
    metric: Callable[[PredictionSet], np.ndarray],
    n_draws: int = 1000,
    seed: int = 0,
) -> BootstrapResult:
    """Resample record ids with replacement; CI from 2.5/97.5 percentiles.

    Each draw becomes a row of per-example multiplicity weights (the number
    of times it picked the example's record), under a unit-weight row for the
    point estimate. `metric` is called once, on the predictions carrying that
    weight matrix, and returns one value per row. Draws where the metric is
    undefined (NaN) are skipped and only the remaining draws enter the
    percentiles.
    """
    if len(predictions) == 0:
        raise ContractViolation("empty prediction set")
    records, example_record = np.unique(np.asarray(predictions.record_ids), return_inverse=True)
    counts = _draw_counts(seed, n_draws, len(records))
    weights = np.vstack([np.ones(len(predictions)), counts[:, example_record]])
    values = np.asarray(metric(replace(predictions, weights=weights)), dtype=np.float64)
    if values.shape != (n_draws + 1,):
        raise ContractViolation(
            f"metric returned shape {values.shape}, expected one value per weight row"
        )
    if np.isnan(values[0]):
        raise UndefinedMetric("metric undefined on the full prediction set")
    draws = values[1:][~np.isnan(values[1:])]
    if not draws.size:
        raise CIUndefined("metric undefined on every bootstrap draw")
    lo, hi = np.percentile(draws, [2.5, 97.5], method="linear")
    return BootstrapResult(
        point=float(values[0]), ci_low=float(lo), ci_high=float(hi), n_valid_draws=int(draws.size)
    )
