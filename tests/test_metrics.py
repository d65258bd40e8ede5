import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrbench import metrics
from hrbench.errors import CIUndefined, ContractViolation, UndefinedMetric
from hrbench.metrics import (
    BootstrapResult,
    PredictionSet,
    auprc,
    auroc,
    brier,
    crps_gaussian,
    ece,
    f1_at_threshold,
    grouped_bootstrap,
    weighted_mean,
)
from reference import groups as record_groups
from reference import mae_rmse


def auroc_by_pairs(probs, labels):
    """Brute force: fraction of positive-negative pairs ordered correctly."""
    pos = [p for p, y in zip(probs, labels) if y == 1]
    neg = [p for p, y in zip(probs, labels) if y == 0]
    score = 0.0
    for p in pos:
        for q in neg:
            score += 1.0 if p > q else (0.5 if p == q else 0.0)
    return score / (len(pos) * len(neg))


def ece_by_enumeration(probs, labels, n_bins):
    total = 0.0
    n = len(probs)
    for b in range(n_bins):
        lo, hi = b / n_bins, (b + 1) / n_bins
        member = [
            i for i, p in enumerate(probs)
            if (lo <= p < hi) or (b == n_bins - 1 and p == hi)
        ]
        if member:
            acc = np.mean([labels[i] for i in member])
            conf = np.mean([probs[i] for i in member])
            total += len(member) / n * abs(acc - conf)
    return total


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_tied_is_half(self):
        assert auroc([0.5] * 6, [1, 0, 1, 0, 0, 1]) == 0.5

    def test_hand_counted_pairs(self):
        assert auroc([0.9, 0.4, 0.6, 0.2], [1, 0, 1, 0]) == 1.0
        assert auroc([0.9, 0.4, 0.6, 0.2], [1, 1, 0, 0]) == 0.75

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetric):
            auroc([0.2, 0.4], [1, 1])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_pair_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        probs = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auroc(probs, labels) == pytest.approx(auroc_by_pairs(probs, labels), abs=1e-12)

    @given(st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.uniform(0.01, 0.99, 20)
        labels = rng.integers(0, 2, 20)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        logit = np.log(probs / (1 - probs))
        assert auroc(probs, labels) == pytest.approx(auroc(logit, labels), abs=1e-12)


class TestAuprc:
    def test_constant_predictor_gives_prevalence(self):
        labels = np.zeros(625, dtype=int)
        labels[:91] = 1  # 91/625 = 0.1456 exactly
        assert auprc(np.zeros(625), labels) == pytest.approx(0.1456, abs=1e-15)

    def test_perfect_separation(self):
        assert auprc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_hand_enumerated_pr_points(self):
        assert auprc([0.9, 0.7, 0.5], [1, 0, 1]) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)

    def test_no_positives_undefined(self):
        with pytest.raises(UndefinedMetric):
            auprc([0.5, 0.5], [0, 0])


class TestBrierAndF1:
    def test_always_negative_brier_is_prevalence(self):
        labels = np.zeros(625)
        labels[:91] = 1
        assert brier(np.zeros(625), labels) == pytest.approx(0.1456, abs=1e-15)

    def test_brier_trivials(self):
        assert brier([0.0, 1.0], [0, 1]) == 0.0
        assert brier([0.5] * 4, [0, 1, 0, 1]) == 0.25
        assert brier([0.0] * 10, [1] + [0] * 9) == pytest.approx(0.1)

    def test_f1_perfect(self):
        assert f1_at_threshold([0.9, 0.1], [1, 0], 0.5) == 1.0

    def test_f1_no_predicted_positives(self):
        assert f1_at_threshold([0.1, 0.2], [1, 0], 0.5) == 0.0

    def test_f1_hand_computed(self):
        # TP=2, FP=2, FN=0: P=0.5, R=1 -> F1 = 2/3
        probs = [0.9, 0.8, 0.7, 0.6]
        labels = [1, 1, 0, 0]
        assert f1_at_threshold(probs, labels, 0.5) == pytest.approx(2.0 / 3.0)


class TestEce:
    def test_perfectly_calibrated_half(self):
        assert ece([0.5] * 4, [1, 0, 1, 0]) == 0.0

    def test_two_sample_hand_bins(self):
        assert ece([0.9, 0.1], [1, 0]) == pytest.approx(0.1)

    def test_exact_probabilities(self):
        assert ece([0.0, 1.0, 1.0], [0, 1, 1]) == 0.0

    def test_single_bin_is_mean_gap(self):
        rng = np.random.default_rng(0)
        probs = rng.uniform(0, 1, 50)
        labels = rng.integers(0, 2, 50)
        expected = abs(labels.mean() - probs.mean())
        with mock.patch.object(metrics, "ECE_BINS", 1):
            assert ece(probs, labels) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bin_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        probs = rng.uniform(0, 1, n)
        labels = rng.integers(0, 2, n)
        assert ece(probs, labels) == pytest.approx(
            ece_by_enumeration(probs, labels, 10), abs=1e-12
        )

    def test_probability_one_lands_in_last_bin(self):
        assert ece([1.0], [1]) == 0.0


class TestMaeRmse:
    def test_exact_forecast(self):
        assert mae_rmse([70.0, 80.0], [70.0, 80.0]) == (0.0, 0.0)

    def test_hand_computed(self):
        mae, rmse = mae_rmse([73.0, 66.0], [70.0, 70.0])  # errors 3, -4
        assert mae == pytest.approx(3.5)
        assert rmse == pytest.approx(math.sqrt(12.5))


CRPS_AT_CENTER = 0.2336949772551091  # 2 phi(0) - 1/sqrt(pi)


class TestCrpsGaussian:
    def test_center_value(self):
        assert crps_gaussian(70.0, 1.0, 70.0) == pytest.approx(CRPS_AT_CENTER, abs=1e-12)
        assert crps_gaussian(0.0, 3.0, 0.0) == pytest.approx(3.0 * CRPS_AT_CENTER, abs=1e-12)
        assert crps_gaussian(0.0, 1.0, 0.0) == pytest.approx(0.2336950, abs=5e-8)

    def test_point_mass_limit(self):
        assert crps_gaussian(70.0, 1e-9, 75.0) == pytest.approx(5.0, rel=1e-6)

    @given(st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_scale_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        mu, sigma, y = rng.normal(), rng.uniform(0.1, 5), rng.normal()
        a = rng.uniform(0.1, 10)
        assert crps_gaussian(a * mu, a * sigma, a * y) == pytest.approx(
            a * crps_gaussian(mu, sigma, y), rel=1e-12
        )

    def test_against_numerical_integration(self):
        quad = pytest.importorskip("scipy.integrate").quad
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(300):
            mu = rng.uniform(-50, 50)
            sigma = rng.uniform(0.1, 10)
            y = mu + sigma * rng.uniform(-5, 5)

            def integrand(x):
                cdf = 0.5 * (1 + math.erf((x - mu) / (sigma * math.sqrt(2))))
                return (cdf - (x >= y)) ** 2

            lo, hi = mu - 12 * sigma, mu + 12 * sigma
            expected = quad(integrand, lo, y, limit=200)[0] + quad(integrand, y, hi, limit=200)[0]
            worst = max(worst, abs(crps_gaussian(mu, sigma, y) - expected))
        assert worst < 1e-6

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ContractViolation):
            crps_gaussian(0.0, 0.0, 1.0)


def mean_metric(pred: PredictionSet):
    return weighted_mean(pred["value"], pred.weights)


class TestGroupedBootstrap:
    def test_single_record_degenerate(self):
        pred = PredictionSet(("a", "a", "a"), {"value": np.array([1.0, 2.0, 3.0])})
        result = grouped_bootstrap(pred, mean_metric, n_draws=100, seed=0)
        assert result.ci_low == result.point == result.ci_high == 2.0
        assert result.n_valid_draws == 100

    def test_two_records_match_multiset_enumeration(self):
        # draws can only be {aa}, {ab}, {bb}; verify every draw value is one of
        # the three enumerated outcomes and the percentiles come from them
        values_a, values_b = [1.0, 3.0], [7.0]
        pred = PredictionSet(
            ("a", "a", "b"), {"value": np.array(values_a + values_b)}
        )
        m_a = np.mean(values_a)
        m_b = np.mean(values_b)
        m_ab = np.mean(values_a + values_b)
        result = grouped_bootstrap(pred, mean_metric, n_draws=400, seed=3)
        draws = []
        groups = record_groups(pred)
        records = sorted(groups)
        for draw in range(400):
            rng = np.random.default_rng([3, draw])
            picks = rng.integers(0, len(records), size=len(records))
            idx = np.concatenate([groups[records[p]] for p in picks])
            draws.append(mean_metric(pred.take(idx)))
        for d in draws:
            assert min(abs(d - m) for m in (m_a, m_ab, m_b)) < 1e-12
        lo, hi = np.percentile(draws, [2.5, 97.5])
        assert result.ci_low == pytest.approx(lo)
        assert result.ci_high == pytest.approx(hi)
        assert result.point == pytest.approx(np.mean(values_a + values_b))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        pred = PredictionSet(
            tuple(f"r{i % 5}" for i in range(40)), {"value": rng.normal(size=40)}
        )
        a = grouped_bootstrap(pred, mean_metric, n_draws=200, seed=11)
        b = grouped_bootstrap(pred, mean_metric, n_draws=200, seed=11)
        assert a == b

    def test_undefined_draws_are_skipped_and_counted(self):
        # auroc undefined whenever the draw picks only record "a" (all negative)
        pred = PredictionSet(
            ("a", "a", "b", "b"),
            {"probs": np.array([0.2, 0.3, 0.8, 0.4]), "labels": np.array([0.0, 0.0, 1.0, 1.0])},
        )
        result = grouped_bootstrap(
            pred, lambda p: auroc(p["probs"], p["labels"], p.weights), n_draws=200, seed=7
        )
        assert result.n_valid_draws < 200

    def test_all_draws_undefined(self):
        pred = PredictionSet(("a", "b"), {"value": np.array([0.2, 0.3])})

        def metric(p):
            # defined on the full set (the unit-weight first row) only
            return np.r_[0.5, np.full(len(p.weights) - 1, np.nan)]

        with pytest.raises(CIUndefined):
            grouped_bootstrap(pred, metric, 10, 0)


class TestAlwaysNegativeIdentities:
    def test_baseline_row(self):
        labels = np.zeros(625)
        labels[:91] = 1  # prevalence 0.1456
        probs = np.zeros(625)
        assert auroc(probs, labels) == 0.5
        assert auprc(probs, labels) == pytest.approx(0.1456, abs=1e-15)
        assert brier(probs, labels) == pytest.approx(0.1456, abs=1e-15)


@pytest.mark.parametrize("seed", range(4))
def test_metrics_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    n = 30
    probs = rng.uniform(0, 1, n)
    labels = rng.integers(0, 2, n)
    labels[0], labels[1] = 0, 1
    perm = rng.permutation(n)
    assert auroc(probs, labels) == pytest.approx(auroc(probs[perm], labels[perm]), abs=1e-12)
    assert auprc(probs, labels) == pytest.approx(auprc(probs[perm], labels[perm]), abs=1e-12)
    assert brier(probs, labels) == pytest.approx(brier(probs[perm], labels[perm]), abs=1e-15)
    assert ece(probs, labels) == pytest.approx(ece(probs[perm], labels[perm]), abs=1e-14)


# ---------------------------------------------------------------------------
# weighted metrics and the one-pass bootstrap against per-draw references

# name -> (metric on a PredictionSet, exact): exact metrics count integer
# weights, so they must match their references bit for bit
WEIGHTED = {
    "auroc": (lambda p: auroc(p["probs"], p["labels"], p.weights), True),
    "auprc": (lambda p: auprc(p["probs"], p["labels"], p.weights), False),
    "brier": (lambda p: brier(p["probs"], p["labels"], p.weights), False),
    "ece": (lambda p: ece(p["probs"], p["labels"], p.weights), False),
    "f1": (lambda p: f1_at_threshold(p["probs"], p["labels"], 0.5, p.weights), True),
    "prevalence": (lambda p: weighted_mean(p["labels"], p.weights), False),
    "mae": (lambda p: mae_rmse(p["mu"], p["y"], p.weights)[0], False),
    "rmse": (lambda p: mae_rmse(p["mu"], p["y"], p.weights)[1], False),
    "crps": (lambda p: weighted_mean(crps_gaussian(p["mu"], p["sigma"], p["y"]), p.weights),
             False),
}


def random_predictions(rng, n_records: int, n: int) -> PredictionSet:
    """Coarse probabilities, so tie groups are common."""
    return PredictionSet(
        tuple(f"r{rng.integers(n_records)}" for _ in range(n)),
        {
            "probs": rng.choice(np.linspace(0.0, 1.0, 7), size=n),
            "labels": (rng.uniform(size=n) < 0.3).astype(np.float64),
            "mu": rng.normal(70.0, 5.0, n),
            "sigma": rng.uniform(0.5, 3.0, n),
            "y": rng.normal(70.0, 5.0, n),
        },
    )


def scalar_or_nan(metric, pred: PredictionSet) -> float:
    try:
        return float(metric(pred))
    except UndefinedMetric:
        return math.nan


def assert_matches(value: float, reference: float, exact: bool) -> None:
    if math.isnan(reference):
        assert math.isnan(value)
    elif exact:
        assert value == reference
    else:
        assert value == pytest.approx(reference, abs=1e-12)


class TestWeightedMetrics:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_row_equals_scalar_metric_on_expanded_set(self, seed, n, n_rows):
        rng = np.random.default_rng(seed)
        pred = random_predictions(rng, 4, n)
        weights = rng.integers(0, 4, size=(n_rows, n)).astype(np.float64)
        for name, (metric, exact) in WEIGHTED.items():
            values = metric(replace(pred, weights=weights))
            assert values.shape == (n_rows,), name
            for row, value in zip(weights, values):
                expanded = pred.take(np.repeat(np.arange(n), row.astype(int)))
                assert_matches(value, scalar_or_nan(metric, expanded), exact)

    def test_unit_weight_row_is_the_scalar_metric(self):
        pred = random_predictions(np.random.default_rng(3), 4, 30)
        unit = replace(pred, weights=np.ones((1, 30)))
        for metric, _ in WEIGHTED.values():
            assert metric(unit)[0] == metric(pred)

    def test_weights_must_match_examples(self):
        with pytest.raises(ContractViolation):
            auroc([0.1, 0.9], [0, 1], np.ones((2, 3)))
        with pytest.raises(ContractViolation):
            PredictionSet(("a", "b"), {"value": np.zeros(2)}, weights=np.ones(2))


def bootstrap_by_draws(pred: PredictionSet, metric, n_draws: int, seed: int):
    """The draw-by-draw definition: per-draw RNG, `take`, scalar metric."""
    point = scalar_or_nan(metric, pred)
    groups = record_groups(pred)
    records = sorted(groups)
    values = []
    for draw in range(n_draws):
        rng = np.random.default_rng([seed, draw])
        picks = rng.integers(0, len(records), size=len(records))
        idx = np.concatenate([groups[records[p]] for p in picks])
        value = scalar_or_nan(metric, pred.take(idx))
        if not math.isnan(value):
            values.append(value)
    lo, hi = np.percentile(values, [2.5, 97.5], method="linear")
    return point, lo, hi, len(values)


class TestBootstrapAgainstDraws:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 30))
    @settings(max_examples=25, deadline=None)
    def test_matches_draw_by_draw_reference(self, seed, n_records, n):
        rng = np.random.default_rng(seed)
        pred = random_predictions(rng, n_records, n)
        # both classes on the full set, so every point estimate is defined
        pred.arrays["labels"][:2] = [0.0, 1.0]
        for metric, exact in WEIGHTED.values():
            point, lo, hi, n_valid = bootstrap_by_draws(pred, metric, 60, seed % 97)
            result = grouped_bootstrap(pred, metric, n_draws=60, seed=seed % 97)
            assert result.n_valid_draws == n_valid
            assert_matches(result.point, point, exact)
            assert result.ci_low == pytest.approx(lo, abs=1e-12)
            assert result.ci_high == pytest.approx(hi, abs=1e-12)

    def test_metric_is_called_once(self):
        pred = random_predictions(np.random.default_rng(1), 3, 20)
        calls = []

        def metric(p):
            calls.append(p.weights.shape)
            return weighted_mean(p["y"], p.weights)

        grouped_bootstrap(pred, metric, n_draws=50, seed=2)
        assert calls == [(51, 20)]

    def test_scalar_metric_rejected(self):
        pred = PredictionSet(("a", "b"), {"value": np.array([0.2, 0.3])})
        with pytest.raises(ContractViolation):
            grouped_bootstrap(pred, lambda p: float(np.mean(p["value"])), 10, 0)

    def test_undefined_point_raises(self):
        pred = PredictionSet(
            ("a", "b"), {"probs": np.array([0.2, 0.3]), "labels": np.array([0.0, 0.0])}
        )
        with pytest.raises(UndefinedMetric):
            grouped_bootstrap(pred, lambda p: auroc(p["probs"], p["labels"], p.weights), 10, 0)
