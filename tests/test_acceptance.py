"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-7 are exact-identity and oracle checks; 8-11 run the full
synthetic desk-scale benchmark (20 records x 1800 s, default config) and are
marked `slow`, as is 13, which trains the grid on MIT-BIH; 12-13
require a user-supplied MIT-BIH R-peak export (set BENCH_MITBIH_MANIFEST to
its manifest CSV) and are skipped without one.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from hrbench import autodiff as ad
from hrbench import metrics as met
from hrbench import models, pipeline, training
from hrbench.autodiff import Tensor, check_gradients
from hrbench.calibration import apply_temperature, fbeta, fit_temperature, mean_bce
from hrbench.config import BenchConfig, DataConfig
from hrbench.ingest import load_prepared
from hrbench.metrics import PredictionSet, auprc, auroc, brier, crps_gaussian, ece, f1_at_threshold, grouped_bootstrap
from hrbench.training import TrainConfig, train_model
from reference import groups as record_groups


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# exact-identity and oracle criteria


def test_c1_always_negative_identities():
    labels = np.zeros(625)
    labels[:91] = 1  # prevalence 0.1456 exactly
    probs = models.always_negative_probs(625)
    ok = (
        auroc(probs, labels) == 0.5
        and auprc(probs, labels) == labels.mean()
        and brier(probs, labels) == labels.mean()
    )
    rng = np.random.default_rng(0)
    for _ in range(5):
        y = rng.integers(0, 2, int(rng.integers(10, 200))).astype(float)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        p = models.always_negative_probs(len(y))
        ok &= auroc(p, y) == 0.5 and auprc(p, y) == y.mean() and brier(p, y) == y.mean()
    report("C1", ok, "always-negative: AUROC=0.5, AUPRC=prevalence, Brier=prevalence (exact)")


def test_c2_crps_against_numerical_integration():
    quad = pytest.importorskip("scipy.integrate").quad
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        mu = rng.uniform(-50, 50)
        sigma = rng.uniform(0.1, 10)
        y = mu + sigma * rng.uniform(-5, 5)

        def integrand(x):
            cdf = 0.5 * (1 + math.erf((x - mu) / (sigma * math.sqrt(2))))
            return (cdf - float(x >= y)) ** 2

        expected = (
            quad(integrand, mu - 12 * sigma, y, limit=200)[0]
            + quad(integrand, y, mu + 12 * sigma, limit=200)[0]
        )
        worst = max(worst, abs(crps_gaussian(mu, sigma, y) - expected))
    center = abs(crps_gaussian(3.0, 2.5, 3.0) - 0.2336950 * 2.5)
    ok = worst < 1e-6 and center < 5e-7
    report("C2", ok, f"CRPS vs quadrature: max |delta| {worst:.2e} over 1000 draws; "
                     f"center case delta {center:.1e}")


def test_c3_grud_reduces_to_plain_gru():
    from test_models import plain_gru_reference, project_inputs

    rng = np.random.default_rng(0)
    config = models.GrudConfig(hidden_dim=16)
    params = models.init_grud_params(config, rng)
    worst = 0.0
    for _ in range(100):
        context = rng.uniform(-2, 2, (1, 20))
        h = models.grud_forward(config, params, context).data
        ref = plain_gru_reference(params, project_inputs(params, context))
        worst = max(worst, float(np.abs(h - ref).max()))
    report("C3", worst < 1e-12, f"GRU-D with full observation vs plain GRU: max |delta| {worst:.2e}")


def test_c4_gradient_checks_full_models():
    rng = np.random.default_rng(7)
    context = rng.uniform(-2, 2, (3, 8))
    labels = np.array([1, 0, 1])
    targets = rng.uniform(-1, 1, 3)
    worst = 0.0

    for kind in ("grud", "transformer"):
        if kind == "grud":
            config = models.GrudConfig(hidden_dim=5)
            params = models.init_grud_params(config, rng)
            head_dim = 5
        else:
            config = models.TransformerConfig(d_model=8, layers=2, heads=2, ffn_dim=12, max_len=8)
            params = models.init_transformer_params(config, rng)
            head_dim = 8
        params.update(models.init_head_params(head_dim, rng))
        for name, p in params.items():
            if name.startswith("head.") and name.endswith(".w"):
                p.data[:] = rng.uniform(-0.5, 0.5, p.data.shape)

        def bce_closure():
            h = models.encoder_forward(kind, config, params, context)
            out = models.heads_forward(h, params, context[:, -1])
            return training.weighted_bce(out.cls_logit, labels, 2.5)

        def nll_closure():
            h = models.encoder_forward(kind, config, params, context)
            out = models.heads_forward(h, params, context[:, -1])
            return training.gaussian_nll(out.mu_tilde, out.sigma_n, targets)

        bce_params = [p for n, p in params.items() if "head.mu" not in n and "head.sigma" not in n]
        nll_params = [p for n, p in params.items() if "head.cls" not in n]
        worst = max(worst, check_gradients(bce_closure, bce_params, epsilon=1e-4))
        worst = max(worst, check_gradients(nll_closure, nll_params, epsilon=1e-4))
    report("C4", worst < 1e-4, f"both models x both losses: max FD relative error {worst:.2e}")


def test_c5_temperature_scaling_contract():
    rng = np.random.default_rng(3)
    worst_bce = -np.inf
    worst_rank = 0.0
    for _ in range(20):
        logits = rng.normal(0, 3, 120)
        labels = rng.integers(0, 2, 120)
        labels[:2] = [0, 1]
        fit = fit_temperature(logits, labels)
        worst_bce = max(
            worst_bce,
            mean_bce(logits, labels, fit.temperature) - mean_bce(logits, labels, 1.0),
        )
        before = apply_temperature(logits, 1.0)
        after = apply_temperature(logits, fit.temperature)
        worst_rank = max(worst_rank, abs(auroc(after, labels) - auroc(before, labels)))
        worst_rank = max(worst_rank, abs(auprc(after, labels) - auprc(before, labels)))
    ok = worst_bce <= 1e-9 and worst_rank <= 1e-12
    report("C5", ok, f"scaling: BCE increase {max(worst_bce, 0.0):.1e} (<=1e-9), "
                     f"AUROC/AUPRC shift {worst_rank:.1e} (<=1e-12)")


def _auprc_oracle(probs, labels):
    thresholds = sorted(set(probs), reverse=True)
    n_pos = sum(labels)
    ap = 0.0
    prev_recall = 0.0
    for tau in thresholds:
        predicted = [p >= tau for p in probs]
        tp = sum(1 for d, y in zip(predicted, labels) if d and y == 1)
        fp = sum(1 for d, y in zip(predicted, labels) if d and y == 0)
        precision = tp / (tp + fp)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def test_c6_small_fixture_oracles():
    from test_calibration import fbeta_sweep_oracle
    from test_metrics import auroc_by_pairs, ece_by_enumeration

    from hrbench.calibration import select_threshold_fbeta

    rng = np.random.default_rng(11)
    worst = 0.0
    checked = 0
    for n in range(2, 13):
        for _ in range(8):
            probs = rng.choice([0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95], size=n)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            worst = max(worst, abs(auroc(probs, labels) - auroc_by_pairs(probs, labels)))
            worst = max(worst, abs(auprc(probs, labels) - _auprc_oracle(probs, labels)))
            worst = max(worst, abs(ece(probs, labels, 10) - ece_by_enumeration(probs, labels, 10)))
            tau = select_threshold_fbeta(probs, labels, beta=2.0)
            oracle_tau, _ = fbeta_sweep_oracle(probs, labels, 2.0)
            worst = max(worst, abs(tau - oracle_tau))
            checked += 1
    report("C6", worst < 1e-12,
           f"ECE/AUROC/AUPRC/F-beta vs brute-force oracles on {checked} fixtures: "
           f"max |delta| {worst:.1e}")


def test_c7_grouped_bootstrap_enumeration():
    values_a, values_b = [2.0, 4.0], [10.0]
    pred = PredictionSet(("a", "a", "b"), {"value": np.array(values_a + values_b)})
    metric = lambda p: met.weighted_mean(p["value"], p.weights)
    result = grouped_bootstrap(pred, metric, n_draws=500, seed=9)
    outcomes = {np.mean(values_a), np.mean(values_b), np.mean(values_a + values_b)}
    groups = record_groups(pred)
    records = sorted(groups)
    ok = True
    draws = []
    for draw in range(500):
        rng = np.random.default_rng([9, draw])
        picks = rng.integers(0, len(records), size=len(records))
        idx = np.concatenate([groups[records[p]] for p in picks])
        value = metric(pred.take(idx))
        draws.append(value)
        ok &= min(abs(value - o) for o in outcomes) < 1e-12
    lo, hi = np.percentile(draws, [2.5, 97.5])
    ok &= result.ci_low == pytest.approx(lo) and result.ci_high == pytest.approx(hi)
    single = PredictionSet(("only", "only"), {"value": np.array([1.0, 5.0])})
    degenerate = grouped_bootstrap(single, metric, n_draws=50, seed=1)
    ok &= degenerate.ci_low == degenerate.point == degenerate.ci_high
    report("C7", ok, "bootstrap draws all match the enumerated multisets; "
                     "single-record CI is degenerate")


# ---------------------------------------------------------------------------
# desk-scale synthetic benchmark (criteria 8-11)


@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("desk")
    config = BenchConfig(
        data=DataConfig(dataset_dir=str(tmp / "dataset"), synth_dir=str(tmp / "synth")),
        runs_dir=str(tmp / "runs"),
    )
    t0 = time.time()
    pipeline.run_synth(config)
    summary = pipeline.run_prepare(config)
    pipeline.run_train(config)
    rows_calibrated = pipeline.run_evaluate(config)
    rows_uncalibrated = pipeline.run_evaluate(
        replace(config, calibration=replace(config.calibration, enabled=False))
    )
    # A4 pairs: absolute-target forecasting runs for both models and all seeds
    val_nll = {}
    dataset_dir = config.data.dataset_dir
    for kind, enc in (("grud", models.GrudConfig()),
                      ("transformer", models.TransformerConfig())):
        for seed in config.train.seeds:
            for mode in ("residual", "absolute"):
                dataset = load_prepared(dataset_dir)
                run = train_model(
                    "forecasting", kind, dataset,
                    replace(config.train, target_mode=mode), seed, encoder_config=enc,
                )
                val_nll[(kind, seed, mode)] = run.history[-1]["val_loss"]
    elapsed = time.time() - t0
    per = {}
    for r in rows_calibrated:
        per[(r["task"], r["model"], r["seed"], r["metric"])] = r["point"]
    raw_ece = {
        (r["model"], r["seed"]): r["point"]
        for r in rows_uncalibrated
        if r["task"] == "classification" and r["metric"] == "ece" and r["point"] is not None
    }
    return {
        "config": config,
        "summary": summary,
        "per": per,
        "raw_ece": raw_ece,
        "val_nll": val_nll,
        "elapsed": elapsed,
    }


@pytest.mark.slow
def test_c8_classifiers_beat_always_negative(desk):
    per = desk["per"]
    details = []
    ok = True
    for model in ("grud", "transformer"):
        for seed in (0, 1, 2):
            au = per[("classification", model, seed, "auroc")]
            ap = per[("classification", model, seed, "auprc")]
            prev = per[("classification", model, seed, "prevalence")]
            ok &= au > 0.80 and ap > 2.0 * prev
            details.append(f"{model}/s{seed} AUROC {au:.3f} AUPRC {ap:.3f}")
    report("C8", ok, f"AUROC>0.80 and AUPRC>2x prevalence per seed "
                     f"({'; '.join(details)}); pipeline took {desk['elapsed']:.0f}s")


@pytest.mark.slow
def test_c9_forecasters_beat_persistence(desk):
    per = desk["per"]
    ok = True
    worst_margin = np.inf
    for model in ("grud", "transformer"):
        for seed in (0, 1, 2):
            for metric in ("mae", "rmse", "crps"):
                learned = per[("forecasting", model, seed, metric)]
                base = per[("forecasting", "persistence", seed, metric)]
                ok &= learned < base
                worst_margin = min(worst_margin, (base - learned) / base)
    report("C9", ok, f"learned < persistence for MAE/RMSE/CRPS on every seed "
                     f"(worst relative margin {worst_margin:+.1%})")


@pytest.mark.slow
def test_c10_calibration_lowers_ece(desk):
    per, raw = desk["per"], desk["raw_ece"]
    ok = True
    details = []
    for model in ("grud", "transformer"):
        for seed in (0, 1, 2):
            calibrated = per[("classification", model, seed, "ece")]
            ok &= calibrated <= raw[(model, seed)] + 1e-12
            details.append(f"{model}/s{seed} {calibrated:.3f}<={raw[(model, seed)]:.3f}")
    report("C10", ok, "calibrated ECE <= uncalibrated ECE: " + "; ".join(details))


@pytest.mark.slow
def test_c11_residual_targets_win(desk):
    val_nll = desk["val_nll"]
    ok = True
    details = []
    for kind in ("grud", "transformer"):
        for seed in (0, 1, 2):
            res = val_nll[(kind, seed, "residual")]
            absolute = val_nll[(kind, seed, "absolute")]
            ok &= res <= absolute
            details.append(f"{kind}/s{seed} {res:.2f}<={absolute:.2f}")
    report("C11", ok, "validation NLL residual <= absolute: " + "; ".join(details))


# ---------------------------------------------------------------------------
# conditional MIT-BIH reproduction (criteria 12-13)

MITBIH_ENV = "BENCH_MITBIH_MANIFEST"

needs_mitbih = pytest.mark.skipif(
    MITBIH_ENV not in os.environ,
    reason=f"set {MITBIH_ENV} to a record_id,path manifest of R-peak exports",
)


@pytest.fixture(scope="session")
def mitbih(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mitbih")
    config = BenchConfig(
        data=DataConfig(
            peaks_manifest=os.environ[MITBIH_ENV],
            dataset_dir=str(tmp / "dataset"),
        ),
        runs_dir=str(tmp / "runs"),
    )
    summary = pipeline.run_prepare(config)
    return config, summary


@needs_mitbih
def test_c12_mitbih_window_counts(mitbih):
    _, summary = mitbih
    expected = {"theta": 100.0, "windows": 1392, "positives": 147, "records": 17}
    exact = (
        summary.theta == expected["theta"]
        and summary.n_windows == expected["windows"]
        and summary.n_positive_windows == expected["positives"]
        and summary.n_positive_records == expected["records"]
    )
    close = (
        summary.theta == expected["theta"]
        and abs(summary.n_windows - expected["windows"]) <= 0.05 * expected["windows"]
        and abs(summary.n_positive_windows - expected["positives"]) <= 0.05 * expected["positives"]
    )
    detail = (
        f"theta={summary.theta:g} windows={summary.n_windows} "
        f"positives={summary.n_positive_windows} records={summary.n_positive_records}"
    )
    if exact:
        report("C12", True, detail + " (exact)")
    elif close:
        report("C12", True, detail + " (within 5%: discrepancy recorded against the "
                                     "windowing stride/edge conventions)")
    else:
        report("C12", False, detail + f" vs expected {expected}")


@needs_mitbih
@pytest.mark.slow
@pytest.mark.xfail(strict=False, reason="soft target: training-stack differences move these")
def test_c13_mitbih_headline_numbers(mitbih):
    config, _ = mitbih
    pipeline.run_train(config)
    rows = pipeline.run_evaluate(config)
    per = {(r["task"], r["model"], r["metric"], r["seed"]): r["point"] for r in rows}
    aurocs = [per[("classification", "grud", "auroc", s)] for s in (0, 1, 2)]
    maes = [per[("forecasting", "transformer", "mae", s)] for s in (0, 1, 2)]
    auroc_mean = float(np.mean(aurocs))
    mae_mean = float(np.mean(maes))
    auroc_ok = abs(auroc_mean - 0.9172) <= 3 * 0.0056
    mae_ok = abs(mae_mean - 11.2825) <= 3 * 0.4278
    report("C13", auroc_ok and mae_ok,
           f"GRU-D AUROC {auroc_mean:.4f} (target 0.9172 +/- 0.0168), "
           f"Transformer MAE {mae_mean:.4f} (target 11.2825 +/- 1.2834)")
