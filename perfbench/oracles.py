"""The benchmark's own computations, written apart from hrbench.

They restate the published protocol (60 s contexts, 10 s horizon, theta
candidates 100/95/90/85 under a 3-record / 40-window support guard) and the
reported metrics from their definitions, so a check never compares the
program with itself or with a stored copy of its output.
"""

from __future__ import annotations

import math

import numpy as np

HR_LOW, HR_HIGH = 20.0, 220.0
T, H = 60, 10
THETAS = (100.0, 95.0, 90.0, 85.0)
MIN_RECORDS, MIN_WINDOWS = 3, 40
# a horizon mean closer than this to theta may round either way
LABEL_TIE = 1e-9


def hr_from_peaks(peaks: np.ndarray) -> np.ndarray:
    """Per-second HR: integer second s takes 60/RR of the interval [t_i, t_i+1)
    holding it, clipped to [20, 220] bpm.

    The interval [t_i, t_i+1) holds the seconds ceil(t_i) .. ceil(t_i+1) - 1.
    """
    peaks = np.asarray(peaks, dtype=np.float64)
    covered = np.diff(np.ceil(peaks)).astype(np.int64)
    return np.clip(np.repeat(60.0 / np.diff(peaks), covered), HR_LOW, HR_HIGH)


def n_windows(n: int) -> int:
    """floor((n - T - H) / T) + 1 non-overlapping windows, none if n < T + H."""
    return max(0, (n - T - H) // T + 1)


def horizon_means(hr: np.ndarray) -> np.ndarray:
    starts = np.arange(n_windows(len(hr))) * T
    return np.array([math.fsum(hr[s + T : s + T + H]) / H for s in starts])


def guard(hrs) -> tuple[int, list[tuple[float, int, int]]]:
    """Index of the first theta with enough positive support, and the
    (theta, positive windows, positive records) tried up to it; -1 if none."""
    means = [horizon_means(hr) for hr in hrs]
    tried = []
    for i, theta in enumerate(THETAS):
        per_record = [int((m >= theta).sum()) for m in means]
        support = (theta, sum(per_record), sum(1 for c in per_record if c))
        tried.append(support)
        if support[2] >= MIN_RECORDS and support[1] >= MIN_WINDOWS:
            return i, tried
    return -1, tried


def population_mean_std(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=np.float64).ravel()
    mean = math.fsum(values) / len(values)
    return mean, math.sqrt(math.fsum((values - mean) ** 2) / len(values))


# ---------------------------------------------------------------------------
# the loss of the untrained initial predictor


def initial_bce(train_labels, val_labels, eps: float = 1e-6) -> float:
    """Class-weighted BCE of logit 0: log 2 per example, positives weighted
    by alpha = (1 - p) / max(p, eps) from the train prevalence p."""
    p = float(np.mean(train_labels))
    alpha = (1.0 - p) / max(p, eps)
    y = np.asarray(val_labels, dtype=np.float64)
    return math.log(2.0) * float(np.mean(alpha * y + (1.0 - y)))


def initial_nll(train_residuals, val_residuals) -> float:
    """Gaussian NLL (no constant) of a zero residual at the train residual
    scale s = sqrt(mean(r_train^2))."""
    s = math.sqrt(float(np.mean(np.square(train_residuals))))
    r = np.asarray(val_residuals, dtype=np.float64)
    return 0.5 * float(np.mean(np.square(r / s))) + math.log(s)


# ---------------------------------------------------------------------------
# reported metrics from their definitions


def sigmoid(logits, temperature: float = 1.0) -> np.ndarray:
    s = np.asarray(logits, dtype=np.float64) / temperature
    e = np.exp(-np.abs(s))
    return np.where(s >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def auroc_pairwise(scores, labels) -> float:
    """Share of (positive, negative) pairs ranked correctly, ties counting 1/2."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (len(pos) * len(neg)))


def average_precision(scores, labels) -> float:
    """Sum over distinct thresholds, high to low, of recall gain x precision."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    n_pos = int((labels == 1).sum())
    ap, last_recall = 0.0, 0.0
    for threshold in sorted(set(scores.tolist()), reverse=True):
        flagged = scores >= threshold
        tp = int((labels[flagged] == 1).sum())
        recall = tp / n_pos
        ap += (recall - last_recall) * tp / int(flagged.sum())
        last_recall = recall
    return ap


def ece_enumerated(probs, labels, n_bins: int = 10) -> float:
    """Equal-width bins [b/n, (b+1)/n), the last one closed, tried in turn."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    total = 0.0
    for b in range(n_bins):
        lo, hi = b / n_bins, (b + 1) / n_bins
        member = (probs >= lo) & ((probs < hi) | ((b == n_bins - 1) & (probs <= hi)))
        if member.any():
            total += member.sum() / len(probs) * abs(labels[member].mean() - probs[member].mean())
    return float(total)


def f1_at(probs, labels, tau: float) -> float:
    flagged = np.asarray(probs) >= tau
    labels = np.asarray(labels)
    tp = int((flagged & (labels == 1)).sum())
    if tp == 0:
        return 0.0
    return 2.0 * tp / (int(flagged.sum()) + int((labels == 1).sum()))


def crps_gaussian(mu, sigma, y) -> np.ndarray:
    """sigma * (z (2 Phi(z) - 1) + 2 phi(z) - 1/sqrt(pi)), Phi from math.erf."""
    z = (np.asarray(y, dtype=np.float64) - mu) / sigma
    cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z])
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return sigma * (z * (2.0 * cdf - 1.0) + 2.0 * pdf - 1.0 / math.sqrt(math.pi))
