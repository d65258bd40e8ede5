"""Each oracle against a brute-force or scipy reference on small fixtures."""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

import oracles as orc
from corpus import CorpusSpec, make_corpus


def brute_hr(peaks):
    out = []
    for s in range(math.ceil(peaks[0]), math.ceil(peaks[-1])):
        i = max(k for k in range(len(peaks)) if peaks[k] <= s)
        out.append(min(max(60.0 / (peaks[i + 1] - peaks[i]), 20.0), 220.0))
    return np.array(out)


@pytest.mark.parametrize("peaks", [
    [0.0, 0.8, 1.7, 2.5, 3.0, 4.9, 5.2],
    [0.3, 1.0, 1.2, 1.9, 4.0],
    [0.5, 0.9],
    [2.0, 2.2, 2.4, 5.0, 5.1],
])
def test_hr_from_peaks_matches_brute_force(peaks):
    np.testing.assert_array_equal(orc.hr_from_peaks(np.array(peaks)), brute_hr(peaks))


def test_hr_from_peaks_on_a_generated_record():
    corpus = make_corpus(CorpusSpec(n_records=2, seconds=300, base_hr=80.0,
                                    episode_rate_per_hour=12.0, episode_amplitude=40.0,
                                    osc_amplitude=5.0), seed=3, stream=9)
    for peaks in corpus.peaks:
        np.testing.assert_array_equal(orc.hr_from_peaks(peaks), brute_hr(list(peaks)))


@pytest.mark.parametrize("n", range(0, 400, 7))
def test_n_windows_counts_full_windows(n):
    brute = sum(1 for o in range(0, n, orc.T) if o + orc.T + orc.H <= n)
    assert orc.n_windows(n) == brute


def test_guard_takes_the_first_supported_theta():
    rng = np.random.default_rng(0)
    hrs = [np.clip(level + 6 * rng.standard_normal(900), 20, 220) for level in [97] * 4 + [80] * 4]
    index, tried = orc.guard(hrs)
    assert index == 1
    brute = []
    for theta in orc.THETAS:
        counts = []
        for hr in hrs:
            c = 0
            for o in range(0, len(hr) - orc.T - orc.H + 1, orc.T):
                c += sum(hr[o + orc.T : o + orc.T + orc.H]) / orc.H >= theta
            counts.append(c)
        brute.append((theta, sum(counts), sum(1 for c in counts if c)))
    first = next(i for i, (_, w, r) in enumerate(brute) if r >= 3 and w >= 40)
    assert index == first
    assert tried == brute[: first + 1]


def test_guard_reports_no_theta():
    index, tried = orc.guard([np.full(700, 60.0)] * 4)
    assert index == -1 and len(tried) == len(orc.THETAS)


def test_population_mean_std():
    x = np.random.default_rng(1).normal(90, 7, (13, 60))
    mean, std = orc.population_mean_std(x)
    assert mean == pytest.approx(x.mean(), rel=1e-13)
    assert std == pytest.approx(x.std(), rel=1e-12)


FIXTURES = [
    (np.array([0.1, 0.4, 0.35, 0.8, 0.8, 0.2, 0.9, 0.35]), np.array([0, 0, 1, 1, 0, 0, 1, 1])),
    (np.random.default_rng(2).random(40), np.random.default_rng(3).integers(0, 2, 40)),
    (np.round(np.random.default_rng(4).random(60), 1), np.random.default_rng(5).integers(0, 2, 60)),
]


@pytest.mark.parametrize("scores,labels", FIXTURES)
def test_auroc_is_the_mann_whitney_statistic(scores, labels):
    pos, neg = scores[labels == 1], scores[labels == 0]
    u = stats.mannwhitneyu(pos, neg, alternative="two-sided").statistic
    assert orc.auroc_pairwise(scores, labels) == pytest.approx(u / (len(pos) * len(neg)), abs=1e-12)


@pytest.mark.parametrize("scores,labels", FIXTURES)
def test_average_precision_is_the_mean_precision_at_each_positive(scores, labels):
    precisions = []
    for s in scores[labels == 1]:
        flagged = scores >= s
        precisions.append((labels[flagged] == 1).sum() / flagged.sum())
    assert orc.average_precision(scores, labels) == pytest.approx(np.mean(precisions), abs=1e-12)


@pytest.mark.parametrize("scores,labels", FIXTURES)
def test_ece_matches_floor_binning(scores, labels):
    probs = np.clip(scores * 0.999 + 0.0004, 0, 1)  # keep clear of bin edges
    bins = np.minimum((probs * 10).astype(int), 9)
    brute = sum((bins == b).sum() / len(probs) * abs(labels[bins == b].mean() - probs[bins == b].mean())
                for b in range(10) if (bins == b).any())
    assert orc.ece_enumerated(probs, labels) == pytest.approx(brute, abs=1e-12)


def test_ece_closes_the_last_bin():
    assert orc.ece_enumerated(np.array([1.0, 1.0]), np.array([1, 0])) == pytest.approx(0.5)


@pytest.mark.parametrize("scores,labels", FIXTURES)
@pytest.mark.parametrize("tau", [0.0, 0.35, 0.5, 0.95])
def test_f1_from_precision_and_recall(scores, labels, tau):
    flagged = scores >= tau
    tp = (flagged & (labels == 1)).sum()
    if tp == 0:
        want = 0.0
    else:
        p, r = tp / flagged.sum(), tp / (labels == 1).sum()
        want = 2 * p * r / (p + r)
    assert orc.f1_at(scores, labels, tau) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("mu,sigma,y", [(80.0, 3.0, 84.5), (0.0, 1.0, 0.0), (100.0, 0.5, 98.0)])
def test_crps_matches_numerical_integration(mu, sigma, y):
    dist = stats.norm(mu, sigma)
    lo, hi = mu - 12 * sigma, mu + 12 * sigma
    below = integrate.quad(lambda x: dist.cdf(x) ** 2, lo, y, limit=200)[0]
    above = integrate.quad(lambda x: (1 - dist.cdf(x)) ** 2, y, hi, limit=200)[0]
    got = orc.crps_gaussian(np.array([mu]), np.array([sigma]), np.array([y]))[0]
    assert got == pytest.approx(below + above, rel=1e-7)


def test_sigmoid_matches_expit():
    s = np.linspace(-40, 40, 81)
    np.testing.assert_allclose(orc.sigmoid(s, 1.7), special.expit(s / 1.7), rtol=1e-14)


def test_initial_losses_from_their_definitions():
    train = np.array([0, 0, 0, 1])
    val = np.array([1, 0, 0])
    alpha = 0.75 / 0.25
    # weighted BCE of logit 0: alpha * y * softplus(0) + (1 - y) * softplus(0)
    want = np.mean([alpha * math.log(2), math.log(2), math.log(2)])
    assert orc.initial_bce(train, val) == pytest.approx(want)
    r_train, r_val = np.array([0.5, -1.0, 2.0]), np.array([0.1, -0.3])
    s = math.sqrt(np.mean(r_train**2))
    want = np.mean([-stats.norm(0, s).logpdf(r) - 0.5 * math.log(2 * math.pi) for r in r_val])
    assert orc.initial_nll(r_train, r_val) == pytest.approx(want)
