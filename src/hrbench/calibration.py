"""Post-hoc temperature scaling and F-beta operating-point selection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ThresholdUndefined

LOG_T_LOW = math.log(0.05)
LOG_T_HIGH = math.log(20.0)
LOG_T_TOL = 1e-4


@dataclass(frozen=True)
class TemperatureFit:
    temperature: float
    skipped: bool = False  # single-class validation leaves T at 1


def mean_bce(logits, labels, temperature: float = 1.0) -> float:
    """Mean binary cross-entropy of sigmoid(s/T); stable at any |s|."""
    s = np.asarray(logits, dtype=np.float64) / temperature
    y = np.asarray(labels, dtype=np.float64)
    softplus = np.maximum(s, 0.0) + np.log1p(np.exp(-np.abs(s)))
    return float(np.mean(softplus - y * s))


def fit_temperature(val_logits, val_labels) -> TemperatureFit:
    """Minimize validation BCE over T by golden-section search on log T.

    The bracket is [0.05, 20]; if (numerically) no interior point beats the
    identity T = 1, the identity is returned, so scaling can never worsen
    validation BCE.
    """
    labels = np.asarray(val_labels)
    if len(np.unique(labels)) < 2:
        return TemperatureFit(temperature=1.0, skipped=True)
    logits = np.asarray(val_logits, dtype=np.float64)

    def objective(log_t: float) -> float:
        return mean_bce(logits, labels, math.exp(log_t))

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = LOG_T_LOW, LOG_T_HIGH
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = objective(c), objective(d)
    while hi - lo > LOG_T_TOL:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = objective(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = objective(d)
    t_star = math.exp(0.5 * (lo + hi))
    if mean_bce(logits, labels, t_star) > mean_bce(logits, labels, 1.0):
        return TemperatureFit(temperature=1.0)
    return TemperatureFit(temperature=t_star)


def apply_temperature(logits, temperature: float) -> np.ndarray:
    if not temperature > 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    s = np.asarray(logits, dtype=np.float64) / temperature
    return 0.5 * (1.0 + np.tanh(0.5 * s))


def fbeta(precision: float, recall: float, beta: float) -> float:
    denom = beta * beta * precision + recall
    if denom == 0.0:
        return 0.0
    return (1.0 + beta * beta) * precision * recall / denom


def select_threshold_fbeta(val_probs, val_labels, beta: float = 2.0) -> float:
    """Threshold maximizing F-beta over the validation PR-curve vertices.

    Candidates are the unique predicted probabilities plus 0 and 1; ties are
    broken toward the larger threshold (higher precision).
    """
    probs = np.asarray(val_probs, dtype=np.float64)
    labels = np.asarray(val_labels)
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise ThresholdUndefined("no positive validation examples")
    candidates = np.unique(np.concatenate([probs, [0.0, 1.0]]))
    best_tau, best_f = 0.0, -1.0
    for tau in candidates:  # ascending, so >= keeps the largest tied tau
        predicted = probs >= tau
        tp = int((predicted & (labels == 1)).sum())
        fp = int((predicted & (labels == 0)).sum())
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        recall = tp / n_pos
        f = fbeta(precision, recall, beta)
        if f >= best_f:
            best_tau, best_f = float(tau), f
    return best_tau
