import math
import platform
import resource
import weakref

import numpy as np
import pytest

from hrbench import autodiff as ad
from hrbench import models, training
from hrbench.autodiff import Parameter, Tensor, backward, zero_grads
from hrbench.errors import TrainingDiverged
from hrbench.ingest import Windows, build_windows, split_records, standardize
from hrbench.models import GrudConfig, TransformerConfig
from hrbench.synth import SyntheticSpec, generate_corpus
from hrbench.training import (
    AdamWState,
    TrainConfig,
    adamw_step,
    class_weight,
    epoch_batches,
    gaussian_nll,
    train_model,
    weighted_bce,
)
from hrbench.ingest import HrSeries, derive_hr


class TestWeightedBce:
    def test_symmetric_point(self):
        loss = weighted_bce(Tensor(np.array([0.0])), np.array([1.0]), alpha=1.0)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-15)

    def test_alpha_from_published_prevalence(self):
        # (1 - 0.1456) / 0.1456
        assert class_weight(np.array([1.0] * 91 + [0.0] * 534)) == pytest.approx(
            5.868131868131868, abs=1e-12
        )

    def test_alpha_epsilon_guards_zero_prevalence(self):
        assert class_weight(np.zeros(10), eps=1e-6) == pytest.approx(1e6)

    def test_stable_at_large_negative_logit(self):
        loss = weighted_bce(Tensor(np.array([-100.0])), np.array([0.0]), alpha=1.0)
        assert loss.item() == pytest.approx(0.0, abs=1e-40)

    @pytest.mark.parametrize("logit", [-500.0, 500.0])
    def test_finite_up_to_500(self, logit):
        for y in (0.0, 1.0):
            loss = weighted_bce(Tensor(np.array([logit])), np.array([y]), alpha=5.0)
            assert np.isfinite(loss.item())

    def test_weight_multiplies_positive_term_only(self):
        s = np.array([0.3])
        base_pos = weighted_bce(Tensor(s), np.array([1.0]), alpha=1.0).item()
        assert weighted_bce(Tensor(s), np.array([1.0]), alpha=3.0).item() == pytest.approx(
            3.0 * base_pos
        )
        base_neg = weighted_bce(Tensor(s), np.array([0.0]), alpha=1.0).item()
        assert weighted_bce(Tensor(s), np.array([0.0]), alpha=3.0).item() == pytest.approx(base_neg)


class TestGaussianNll:
    def test_zero_at_perfect_unit_scale(self):
        loss = gaussian_nll(Tensor(np.array([1.3])), Tensor(np.array([1.0])), np.array([1.3]))
        assert loss.item() == 0.0

    def test_unit_residual_gives_half(self):
        loss = gaussian_nll(Tensor(np.array([0.0])), Tensor(np.array([1.0])), np.array([1.0]))
        assert loss.item() == pytest.approx(0.5)

    def test_optimal_scale_is_absolute_residual(self):
        # grid oracle over sigma at fixed residual r: minimizer should be |r|
        r = 0.37
        sigmas = np.linspace(0.01, 2.0, 20000)
        losses = 0.5 * (r / sigmas) ** 2 + np.log(sigmas)
        assert sigmas[np.argmin(losses)] == pytest.approx(abs(r), abs=1e-3)
        # and the loss built on tensors agrees with the formula
        got = gaussian_nll(
            Tensor(np.array([0.0])), Tensor(np.array([0.5])), np.array([r])
        ).item()
        assert got == pytest.approx(0.5 * (r / 0.5) ** 2 + math.log(0.5), abs=1e-12)

    def test_gradient_wrt_mu_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        mu = Parameter("mu", rng.normal(size=5))
        sigma = rng.uniform(0.5, 2.0, 5)
        targets = rng.normal(size=5)

        def closure():
            return gaussian_nll(mu, Tensor(sigma), targets)

        zero_grads([mu])
        backward(closure())
        analytic = mu.grad.copy()
        eps = 1e-6
        for i in range(5):
            orig = mu.data[i]
            mu.data[i] = orig + eps
            hi = closure().item()
            mu.data[i] = orig - eps
            lo = closure().item()
            mu.data[i] = orig
            assert analytic[i] == pytest.approx((hi - lo) / (2 * eps), abs=1e-5)


class TestAdamW:
    def _single(self, value):
        return [Parameter("w", np.array([value]))]

    def test_zero_gradient_zero_decay_is_identity(self):
        params = self._single(1.0)
        state = AdamWState()
        adamw_step(params, state, lr=1e-3, weight_decay=0.0)
        assert params[0].data[0] == 1.0

    def test_first_step_hand_evaluated(self):
        # w=1, g=1: bias-corrected m=v=1, so w <- 1 - lr / (1 + eps)
        params = self._single(1.0)
        params[0].grad = np.array([1.0])
        adamw_step(params, AdamWState(), lr=1e-3, weight_decay=0.0)
        expected = 1.0 - 1e-3 * (1.0 / (1.0 + 1e-8))
        assert params[0].data[0] == pytest.approx(expected, abs=1e-15)
        assert params[0].data[0] == pytest.approx(0.999, abs=1e-8)

    def test_decay_alone_shrinks_multiplicatively(self):
        params = self._single(2.0)
        adamw_step(params, AdamWState(), lr=1e-3, weight_decay=0.01)
        assert params[0].data[0] == pytest.approx(2.0 * (1.0 - 1e-3 * 0.01), abs=1e-15)

    def test_momentumless_limit_is_normalized_sgd(self):
        params = self._single(1.0)
        params[0].grad = np.array([4.0])
        state = AdamWState(beta1=0.0, beta2=0.0)
        adamw_step(params, state, lr=1e-2, weight_decay=0.0)
        # update = g / (|g| + eps) = sign(g)
        assert params[0].data[0] == pytest.approx(1.0 - 1e-2, abs=1e-9)


def small_dataset(seed=0, n_records=8, seconds=500, rate=22.0):
    spec = SyntheticSpec(
        n_records=n_records,
        record_seconds=seconds,
        episode_rate_per_hour=rate,
        seed=seed,
    )
    records, _ = generate_corpus(spec)
    tables = [build_windows(derive_hr(r), theta=100.0) for r in records]
    positivity = {r.record_id: bool(t.cls_labels.any()) for r, t in zip(records, tables)}
    assignment = split_records(positivity, (0.5, 0.25, 0.25), seed=0)
    dataset, _ = standardize(Windows.concat(tables), assignment, theta=100.0)
    return dataset


GRUD_SMALL = GrudConfig(hidden_dim=8)
TF_SMALL = TransformerConfig(d_model=8, layers=1, heads=2, ffn_dim=16, max_len=60)


class TestTrainModel:
    def test_same_seed_bit_identical(self):
        dataset = small_dataset()
        config = TrainConfig(epochs=2, seeds=(0,))
        a = train_model("classification", "grud", dataset, config, 0, encoder_config=GRUD_SMALL)
        b = train_model("classification", "grud", dataset, config, 0, encoder_config=GRUD_SMALL)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
        assert a.history == b.history

    def test_loss_decreases_on_learnable_data(self):
        dataset = small_dataset()
        config = TrainConfig(epochs=6, seeds=(0,))
        run = train_model("classification", "grud", dataset, config, 0, encoder_config=GRUD_SMALL)
        assert run.history[-1]["train_loss"] <= run.history[0]["train_loss"]

    def test_residual_mode_beats_absolute_on_random_walk(self):
        dataset = small_dataset(seed=2)
        residual = TrainConfig(epochs=4, target_mode="residual")
        absolute = TrainConfig(epochs=4, target_mode="absolute")
        for kind, enc in (("grud", GRUD_SMALL), ("transformer", TF_SMALL)):
            run_res = train_model("forecasting", kind, dataset, residual, 0, encoder_config=enc)
            run_abs = train_model("forecasting", kind, dataset, absolute, 0, encoder_config=enc)
            assert run_res.history[-1]["val_loss"] <= run_abs.history[-1]["val_loss"]

    def test_step_graph_freed_before_next_forward(self, monkeypatch):
        losses = []
        batch_loss = training._batch_loss

        def tracked(*args, **kwargs):
            assert all(ref() is None for ref in losses), "an earlier step's graph is alive"
            loss = batch_loss(*args, **kwargs)
            losses.append(weakref.ref(loss))
            return loss

        monkeypatch.setattr(training, "_batch_loss", tracked)
        train_model("classification", "grud", small_dataset(), TrainConfig(epochs=2), 0,
                    encoder_config=GRUD_SMALL)
        assert len(losses) > 3

    def test_epoch_batches_cover_exact_multiset(self):
        rng = np.random.default_rng(0)
        batches = epoch_batches(103, 10, rng)
        assert len(batches) == 11  # ceil(103 / 10)
        joined = np.concatenate(batches)
        assert sorted(joined.tolist()) == list(range(103))

    def test_divergence_reported_with_step(self):
        dataset = small_dataset()
        config = TrainConfig(lr=1e-3, epochs=1)
        # poison the dataset with a non-finite context to trip the guard
        train = dataset.split("train")
        train.contexts_norm[0, 0] = np.nan
        with pytest.raises(TrainingDiverged) as exc:
            train_model("classification", "grud", dataset, config, 0, encoder_config=GRUD_SMALL)
        assert "step" in str(exc.value)

    def test_train_model_holds_freed_memory(self, monkeypatch):
        calls = []
        monkeypatch.setattr(training, "hold_freed_memory", lambda: calls.append(True))
        train_model("classification", "grud", small_dataset(), TrainConfig(epochs=1), 0,
                    encoder_config=GRUD_SMALL)
        assert calls == [True]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the allocator thresholds are set on glibc only")
    def test_transformer_step_faults_no_memory_in_after_warm_up(self):
        # a default-size step frees arrays of several MB; without held memory
        # each step faults thousands of pages back in
        training.hold_freed_memory()
        config = TransformerConfig()
        params = training._build_model("transformer", config, 0)
        param_list = list(params.values())
        rng = np.random.default_rng(0)
        contexts, labels = rng.normal(size=(64, 60)), rng.integers(0, 2, 64)
        state = AdamWState()

        def step():
            zero_grads(param_list)
            hidden = models.transformer_forward(config, params, contexts)
            heads = models.heads_forward(hidden, params, contexts[:, -1])
            backward(weighted_bce(heads.cls_logit, labels, 2.0))
            adamw_step(param_list, state, 1e-3, 0.01)

        step()
        step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        step()
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the allocator thresholds are set on glibc only")
    @pytest.mark.parametrize("kind", ["grud", "transformer"])
    def test_step_faults_no_memory_in_under_a_live_block(self, kind):
        # 1 MiB holes below a live block: a default step's arrays do not fit
        # in them, so all of the step's memory lies above the block and is
        # free at the top of the heap when the step ends
        training.hold_freed_memory()
        blocks = [np.ones(1 << 17) for _ in range(60)]
        del blocks[::2]
        live = np.ones(1 << 17)  # noqa: F841
        config = GrudConfig() if kind == "grud" else TransformerConfig()
        params = training._build_model(kind, config, 0)
        param_list = list(params.values())
        rng = np.random.default_rng(0)
        contexts, labels = rng.normal(size=(64, 60)), rng.integers(0, 2, 64)
        state = AdamWState()

        def step():
            zero_grads(param_list)
            hidden = models.encoder_forward(kind, config, params, contexts)
            heads = models.heads_forward(hidden, params, contexts[:, -1])
            backward(weighted_bce(heads.cls_logit, labels, 2.0))
            adamw_step(param_list, state, 1e-3, 0.01)

        step()
        step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        step()
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            train_model("regression", "grud", small_dataset(), TrainConfig(), 0,
                        encoder_config=GRUD_SMALL)
