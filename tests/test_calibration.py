import math

import numpy as np
import pytest

from hrbench.calibration import (
    apply_temperature,
    fbeta,
    fit_temperature,
    mean_bce,
    select_threshold_fbeta,
)
from hrbench.errors import ThresholdUndefined
from hrbench.metrics import auprc, auroc


def grid_search_temperature(logits, labels, resolution=1e-3):
    """Independent 1-d oracle: dense grid over T in [0.05, 20]."""
    grid = np.arange(0.05, 20.0, resolution)
    losses = [mean_bce(logits, labels, t) for t in grid]
    return grid[int(np.argmin(losses))]


def grouped_logits(rates, group_size, scale=1.0):
    """Logits equal to logit(group rate), labels matching the rate exactly."""
    logits, labels = [], []
    for rate in rates:
        n_pos = round(rate * group_size)
        logits.extend([scale * math.log(rate / (1 - rate))] * group_size)
        labels.extend([1] * n_pos + [0] * (group_size - n_pos))
    return np.array(logits), np.array(labels)


class TestFitTemperature:
    def test_calibrated_logits_recover_unity(self):
        logits, labels = grouped_logits([0.2, 0.5, 0.8], 50)
        fit = fit_temperature(logits, labels)
        oracle = grid_search_temperature(logits, labels)
        assert fit.temperature == pytest.approx(1.0, abs=0.05)
        assert fit.temperature == pytest.approx(oracle, abs=0.05)

    def test_doubled_logits_recover_two(self):
        logits, labels = grouped_logits([0.2, 0.5, 0.8], 50, scale=2.0)
        fit = fit_temperature(logits, labels)
        oracle = grid_search_temperature(logits, labels)
        assert fit.temperature == pytest.approx(2.0, abs=0.05)
        assert fit.temperature == pytest.approx(oracle, abs=0.05)

    def test_single_class_skipped(self):
        fit = fit_temperature([0.2, 1.4, -0.3], [1, 1, 1])
        assert fit.skipped
        assert fit.temperature == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_never_increases_validation_bce(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 3, 80)
        labels = rng.integers(0, 2, 80)
        labels[:2] = [0, 1]
        fit = fit_temperature(logits, labels)
        assert mean_bce(logits, labels, fit.temperature) <= mean_bce(logits, labels, 1.0) + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_scaling_preserves_ranking_metrics(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 2, 60)
        labels = rng.integers(0, 2, 60)
        labels[:2] = [0, 1]
        fit = fit_temperature(logits, labels)
        before = apply_temperature(logits, 1.0)
        after = apply_temperature(logits, fit.temperature)
        assert auroc(after, labels) == pytest.approx(auroc(before, labels), abs=1e-12)
        assert auprc(after, labels) == pytest.approx(auprc(before, labels), abs=1e-12)


class TestApplyTemperature:
    def test_zero_logit_is_half(self):
        for t in (0.1, 1.0, 7.3):
            assert apply_temperature([0.0], t)[0] == 0.5

    def test_large_temperature_flattens(self):
        probs = apply_temperature([-4.0, 3.0, 9.0], 1e9)
        np.testing.assert_allclose(probs, 0.5, atol=1e-8)

    def test_unit_temperature_is_sigmoid(self):
        logits = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(
            apply_temperature(logits, 1.0), 1.0 / (1.0 + np.exp(-logits)), atol=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            apply_temperature([0.0], 0.0)


def fbeta_sweep_oracle(probs, labels, beta):
    """Exhaustive sweep over every candidate, ties to the larger threshold."""
    labels = np.asarray(labels)
    best_tau, best_f = None, -1.0
    for tau in sorted(set(list(probs) + [0.0, 1.0])):
        predicted = np.asarray(probs) >= tau
        tp = int((predicted & (labels == 1)).sum())
        fp = int((predicted & (labels == 0)).sum())
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / labels.sum()
        f = fbeta(p, r, beta)
        if f >= best_f:
            best_tau, best_f = tau, f
    return best_tau, best_f


class TestSelectThresholdFbeta:
    def test_fbeta_formula_value(self):
        # P=0.5, R=1.0, beta=2 -> 5 * 0.5 * 1 / (4 * 0.5 + 1) = 0.8333...
        assert fbeta(0.5, 1.0, 2.0) == pytest.approx(5.0 * 0.5 / 3.0)
        assert fbeta(0.5, 1.0, 2.0) == pytest.approx(0.833333333, abs=1e-9)
        # elementwise over arrays, 0 where precision and recall are both 0
        f = fbeta(np.array([0.5, 0.0, 0.1]), np.array([1.0, 0.0, 0.2]), 2.0)
        np.testing.assert_allclose(f, [5.0 * 0.5 / 3.0, 0.0, 5.0 * 0.1 * 0.2 / 0.6], rtol=1e-15)

    def test_perfect_separation(self):
        probs = [0.9, 0.8, 0.2, 0.1]
        labels = [1, 1, 0, 0]
        tau = select_threshold_fbeta(probs, labels, beta=2.0)
        assert 0.2 < tau <= 0.8
        assert fbeta_sweep_oracle(probs, labels, 2.0)[1] == 1.0

    def test_beta2_prefers_recall_over_beta1(self):
        # catching the last positive costs four false positives: F1 stays at
        # the precise threshold 0.6, F2 drops to 0.35 for full recall
        probs = [0.9, 0.8, 0.7, 0.6, 0.5, 0.45, 0.4, 0.35, 0.3, 0.2]
        labels = [1, 1, 0, 1, 0, 0, 0, 1, 0, 0]
        tau1 = select_threshold_fbeta(probs, labels, beta=1.0)
        tau2 = select_threshold_fbeta(probs, labels, beta=2.0)
        assert tau1 == pytest.approx(0.6)
        assert tau2 == pytest.approx(0.35)
        assert tau2 < tau1

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_matches_exhaustive_sweep(self, seed, beta):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 13))
        probs = rng.uniform(0, 1, n).round(2)
        labels = rng.integers(0, 2, n)
        labels[0] = 1
        tau = select_threshold_fbeta(probs, labels, beta=beta)
        oracle_tau, oracle_f = fbeta_sweep_oracle(probs, labels, beta)
        assert tau == pytest.approx(oracle_tau)
        predicted = probs >= tau
        tp = int((predicted & (labels == 1)).sum())
        fp = int((predicted & (labels == 0)).sum())
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / labels.sum()
        assert fbeta(p, r, beta) == pytest.approx(oracle_f)

    def test_no_positives(self):
        with pytest.raises(ThresholdUndefined):
            select_threshold_fbeta([0.4, 0.6], [0, 0])
