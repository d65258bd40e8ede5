"""Post-hoc temperature scaling and F-beta operating-point selection."""

from __future__ import annotations

import math

import numpy as np

from .errors import ThresholdUndefined

LOG_T_LOW = math.log(0.05)
LOG_T_HIGH = math.log(20.0)
LOG_T_TOL = 1e-4


def mean_bce(logits, labels, temperature: float = 1.0) -> float:
    """Mean binary cross-entropy of sigmoid(s/T); stable at any |s|."""
    s = np.asarray(logits, dtype=np.float64) / temperature
    y = np.asarray(labels, dtype=np.float64)
    softplus = np.maximum(s, 0.0) + np.log1p(np.exp(-np.abs(s)))
    return float(np.mean(softplus - y * s))


def fit_temperature(val_logits, val_labels) -> float:
    """Minimize validation BCE over T by golden-section search on log T.

    The bracket is [0.05, 20]; if (numerically) no interior point beats the
    identity T = 1, the identity is returned, so scaling can never worsen
    validation BCE.
    """
    labels = np.asarray(val_labels)
    # single-class validation leaves T at 1
    if len(np.unique(labels)) < 2:
        return 1.0
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
        return 1.0
    return t_star


def apply_temperature(logits, temperature: float) -> np.ndarray:
    if not temperature > 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    s = np.asarray(logits, dtype=np.float64) / temperature
    return 0.5 * (1.0 + np.tanh(0.5 * s))


def fbeta(precision, recall, beta: float):
    """F-beta of precision and recall, numbers or arrays of one shape; 0
    where both are 0."""
    precision = np.asarray(precision, dtype=np.float64)
    recall = np.asarray(recall, dtype=np.float64)
    denom = beta * beta * precision + recall
    f = np.zeros(denom.shape)
    np.divide((1.0 + beta * beta) * precision * recall, denom, out=f, where=denom != 0.0)
    return f[()]


def select_threshold_fbeta(val_probs, val_labels, beta: float = 2.0) -> float:
    """Threshold maximizing F-beta over the validation PR-curve vertices.

    Candidates are the unique predicted probabilities plus 0 and 1; ties are
    broken toward the larger threshold (higher precision). A candidate's true
    and false positives are the positive and negative probabilities at or
    above it, counted by binary search in each sorted class.
    """
    probs = np.asarray(val_probs, dtype=np.float64)
    labels = np.asarray(val_labels)
    positives, negatives = np.sort(probs[labels == 1]), np.sort(probs[labels == 0])
    n_pos = len(positives)
    if n_pos == 0:
        raise ThresholdUndefined("no positive validation examples")
    candidates = np.unique(np.concatenate([probs, [0.0, 1.0]]))
    tp = n_pos - np.searchsorted(positives, candidates)
    predicted = tp + len(negatives) - np.searchsorted(negatives, candidates)
    precision = np.divide(tp, predicted, out=np.zeros(len(candidates)), where=predicted > 0)
    f = fbeta(precision, tp / n_pos, beta)
    # the last maximum: candidates ascend, so ties go to the larger threshold
    return float(candidates[len(f) - 1 - np.argmax(f[::-1])])
