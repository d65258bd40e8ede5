import math

import numpy as np
import pytest

from hrbench import autodiff as ad
from hrbench import models, training
from hrbench.autodiff import Tensor
from hrbench.errors import ContractViolation
from hrbench.models import (
    GrudConfig,
    TransformerConfig,
    always_negative_probs,
    grud_forward,
    heads_forward,
    init_grud_params,
    init_head_params,
    init_transformer_params,
    persistence_forecast,
    sinusoidal_positions,
    transformer_forward,
)
from reference import (
    check_gradients,
    float64,
    grud_forward_reference,
    transformer_forward_reference,
)


def plain_gru_reference(params, z_seq):
    """Straight-line numpy GRU over precomputed inputs; no autodiff involved."""
    w_ih = params["grud.gru.w_ih"].data
    b_ih = params["grud.gru.b_ih"].data
    w_hh = params["grud.gru.w_hh"].data
    b_hh = params["grud.gru.b_hh"].data
    hdim = w_hh.shape[0]

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    h = np.zeros((z_seq.shape[0], hdim))
    for t in range(z_seq.shape[1]):
        gi = z_seq[:, t, :] @ w_ih + b_ih
        gh = h @ w_hh + b_hh
        r = sigmoid(gi[:, :hdim] + gh[:, :hdim])
        u = sigmoid(gi[:, hdim : 2 * hdim] + gh[:, hdim : 2 * hdim])
        n = np.tanh(gi[:, 2 * hdim :] + r * gh[:, 2 * hdim :])
        h = (1.0 - u) * n + u * h
    return h


def project_inputs(params, context):
    """tanh(W_z [x; 1] + b_z) for fully observed 1-d inputs, numpy only."""
    w_z = params["grud.proj.w"].data
    b_z = params["grud.proj.b"].data
    batch, steps = context.shape
    z = np.empty((batch, steps, w_z.shape[1]))
    for t in range(steps):
        stacked = np.concatenate([context[:, t : t + 1], np.ones((batch, 1))], axis=1)
        z[:, t, :] = np.tanh(stacked @ w_z + b_z)
    return z


def _output_and_gradients(encode, params, last, rng):
    """h_T and every parameter's gradient of a loss that reads all three heads."""
    h = encode()
    out = heads_forward(h, params, last)
    batch = h.shape[0]
    loss = training.weighted_bce(out.cls_logit, rng.integers(0, 2, batch), 2.0) + \
        training.gaussian_nll(out.mu_tilde, out.sigma_n, rng.normal(size=batch))
    ad.zero_grads(params.values())
    ad.backward(loss)
    return h.data, {name: p.grad.copy() for name, p in params.items()}


def _assert_agree(actual, reference):
    """Within 1e-12, relative to the reference's largest magnitude when that
    exceeds 1."""
    outputs, grads = actual
    ref_outputs, ref_grads = reference
    for name, a, b in [("h_T", outputs, ref_outputs),
                       *((n, grads[n], ref_grads[n]) for n in ref_grads)]:
        scale = max(1.0, float(np.abs(b).max()))
        assert np.abs(a - b).max() <= 1e-12 * scale, name


def _random_model(params, hidden_dim, rng):
    params.update(init_head_params(hidden_dim, rng))
    for p in params.values():
        p.data[...] = rng.normal(scale=0.5, size=p.shape)
    return params


class TestAgainstOpByOpReferences:
    @pytest.mark.parametrize("observed", [True, False])
    def test_grud_matches_the_per_timestep_loop(self, observed):
        rng = np.random.default_rng(30)
        d = 1 if observed else 2
        config = GrudConfig(input_dim=d, hidden_dim=7, train_mean=(0.3, -0.1)[:d])
        params = float64(_random_model(init_grud_params(config, rng), 7, rng))
        context = rng.normal(size=(5, 12, d))
        mask = delta = None
        if not observed:
            mask = (rng.uniform(size=context.shape) > 0.3).astype(float)
            delta = rng.uniform(0.0, 2.0, context.shape)
        last = context[:, -1, 0]
        fused = _output_and_gradients(
            lambda: grud_forward(config, params, context, mask, delta), params, last,
            np.random.default_rng(1))
        ref = _output_and_gradients(
            lambda: grud_forward_reference(config, params, context, mask, delta), params, last,
            np.random.default_rng(1))
        _assert_agree(fused, ref)
        if not observed:
            assert np.abs(ref[1]["grud.decay_h.w"]).max() > 1e-3  # the decay path is live

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_transformer_matches_the_full_sequence_layers(self, layers):
        rng = np.random.default_rng(31)
        config = TransformerConfig(d_model=8, layers=layers, heads=2, ffn_dim=12)
        params = float64(_random_model(init_transformer_params(config, rng), 8, rng))
        context = rng.normal(size=(4, 15))
        last = context[:, -1]
        pooled = _output_and_gradients(
            lambda: transformer_forward(config, params, context), params, last,
            np.random.default_rng(2))
        ref = _output_and_gradients(
            lambda: transformer_forward_reference(config, params, context), params, last,
            np.random.default_rng(2))
        _assert_agree(pooled, ref)

    def test_grud_tape_does_not_grow_with_steps(self):
        config = GrudConfig(hidden_dim=6)
        params = _random_model(init_grud_params(config, np.random.default_rng(32)), 6,
                               np.random.default_rng(33))

        def nodes(steps):
            context = np.random.default_rng(34).normal(size=(4, steps))
            out = heads_forward(grud_forward(config, params, context), params, context[:, -1])
            return len(ad.Tape(training.weighted_bce(out.cls_logit, np.ones(4), 1.0)).nodes)

        assert nodes(10) == nodes(60) < 60


def _worst_against_plain_gru(batch, steps, hidden):
    """The largest |GRU-D - plain GRU| over 100 fully observed contexts."""
    rng = np.random.default_rng(0)
    config = GrudConfig(hidden_dim=hidden)
    params = float64(init_grud_params(config, rng))
    worst = 0.0
    for trial in range(100):
        context = rng.uniform(-2, 2, (batch, steps))
        h = grud_forward(config, params, context).data
        ref = plain_gru_reference(params, project_inputs(params, context))
        worst = max(worst, float(np.abs(h - ref).max()))
    return worst


class TestGrud:
    def test_reduces_to_plain_gru_when_fully_observed(self):
        assert _worst_against_plain_gru(batch=2, steps=15, hidden=12) < 1e-12

    # no two of B, T and H equal, and a single row
    @pytest.mark.parametrize("batch,steps,hidden", [(3, 9, 5), (1, 9, 5)],
                             ids=["B3xT9xH5", "B1xT9xH5"])
    def test_reduces_to_plain_gru_at_other_shapes(self, batch, steps, hidden):
        assert _worst_against_plain_gru(batch, steps, hidden) < 1e-12

    def test_large_delta_imputes_toward_train_mean(self):
        rng = np.random.default_rng(1)
        config = GrudConfig(input_dim=1, hidden_dim=4, train_mean=(0.7,))
        params = init_grud_params(config, rng)
        params["grud.decay_x.w"].data[:] = 2.0  # positive decay weight
        context = np.array([[[5.0]]])
        mask = np.zeros((1, 1, 1))
        for delta, tol in ((np.full((1, 1, 1), 50.0), 1e-12),):
            gamma_x = math.exp(-max(2.0 * 50.0, 0.0))
            imputed = gamma_x * 5.0 + (1 - gamma_x) * 0.7
            assert imputed == pytest.approx(0.7, abs=tol)
        # and the forward pass agrees: hidden state equals the one produced by
        # feeding the train mean as an observed sample
        h_missing = grud_forward(config, params, context, mask, np.full((1, 1, 1), 50.0)).data
        h_mean_input = grud_forward(
            config, params, np.array([[[0.7]]]), np.zeros((1, 1, 1)), np.full((1, 1, 1), 50.0)
        ).data
        np.testing.assert_allclose(h_missing, h_mean_input, atol=1e-12)

    def test_zero_parameters_keep_hidden_at_zero(self):
        config = GrudConfig(hidden_dim=6)
        rng = np.random.default_rng(2)
        params = init_grud_params(config, rng)
        for p in params.values():
            p.data[:] = 0.0
        # hand evaluation of one step with zero weights: z = tanh(0) = 0,
        # r = u = 0.5, n = tanh(0) = 0, h' = 0.5*0 + 0.5*0 = 0
        h = grud_forward(config, params, np.random.default_rng(3).uniform(-2, 2, (4, 9)))
        np.testing.assert_array_equal(h.data, np.zeros((4, 6)))

    def test_negative_delta_rejected(self):
        config = GrudConfig(hidden_dim=4)
        params = init_grud_params(config, np.random.default_rng(4))
        with pytest.raises(ContractViolation):
            grud_forward(config, params, np.zeros((1, 5)), None, np.full((1, 5, 1), -1.0))

    def test_two_feature_mask_case(self):
        rng = np.random.default_rng(5)
        config = GrudConfig(input_dim=2, hidden_dim=5, train_mean=(0.0, 0.5))
        params = init_grud_params(config, rng)
        context = rng.uniform(-1, 1, (3, 7, 2))
        mask = (rng.uniform(size=(3, 7, 2)) > 0.4).astype(float)
        delta = rng.uniform(0.0, 3.0, (3, 7, 2))
        h = grud_forward(config, params, context, mask, delta)
        assert h.shape == (3, 5)
        assert np.all(np.isfinite(h.data))

    def test_batch_rows_are_independent(self):
        rng = np.random.default_rng(6)
        config = GrudConfig(hidden_dim=8)
        params = init_grud_params(config, rng)
        contexts = rng.uniform(-2, 2, (5, 20))
        full = grud_forward(config, params, contexts).data
        one = grud_forward(config, params, contexts[2:3]).data
        np.testing.assert_allclose(full[2:3], one, atol=1e-14)


def _attention_maps(monkeypatch, config, params, context) -> list[np.ndarray]:
    """The attention probabilities of each layer of `transformer_forward`,
    read from the second value `ad.attention` returns: (B, heads, T, T) for
    each earlier layer and (B, heads, 1, T) for the final one."""
    maps = []
    attention = ad.attention

    def recording(*args, **kwargs):
        out, probs = attention(*args, **kwargs)
        maps.append(probs.copy())
        return out, probs

    monkeypatch.setattr(ad, "attention", recording)
    transformer_forward(config, params, context)
    return maps


class TestTransformer:
    def test_sinusoidal_position_at_zero(self):
        table = sinusoidal_positions(5, 8)
        np.testing.assert_array_equal(table[0, 0::2], np.zeros(4))
        np.testing.assert_array_equal(table[0, 1::2], np.ones(4))

    def test_uniform_attention_with_zero_query_key(self, monkeypatch):
        rng = np.random.default_rng(7)
        config = TransformerConfig(d_model=8, layers=1, heads=2, ffn_dim=16)
        params = float64(init_transformer_params(config, rng))
        params["tf.layer0.attn.q_w"].data[:] = 0.0
        params["tf.layer0.attn.k_w"].data[:] = 0.0
        attentions = _attention_maps(monkeypatch, config, params, rng.uniform(-1, 1, (3, 10)))
        np.testing.assert_allclose(attentions[0], 1.0 / 10.0, atol=1e-12)

    def test_final_layer_attends_from_the_pooled_row_only(self, monkeypatch):
        rng = np.random.default_rng(22)
        config = TransformerConfig(d_model=8, layers=2, heads=4, ffn_dim=16)
        params = init_transformer_params(config, rng)
        attentions = _attention_maps(monkeypatch, config, params, rng.uniform(-2, 2, (3, 13)))
        assert [a.shape for a in attentions] == [(3, 4, 13, 13), (3, 4, 1, 13)]

    def test_attention_rows_sum_to_one(self, monkeypatch):
        rng = np.random.default_rng(8)
        config = TransformerConfig(d_model=8, layers=2, heads=4, ffn_dim=16)
        params = float64(init_transformer_params(config, rng))
        attentions = _attention_maps(monkeypatch, config, params, rng.uniform(-2, 2, (2, 13)))
        for attn in attentions:
            np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)

    def test_positions_matter(self):
        rng = np.random.default_rng(9)
        config = TransformerConfig(d_model=8, layers=2, heads=2, ffn_dim=16)
        params = init_transformer_params(config, rng)
        context = rng.uniform(-2, 2, 10)
        h_fwd = transformer_forward(config, params, context).data
        h_rev = transformer_forward(config, params, context[::-1].copy()).data
        assert np.abs(h_fwd - h_rev).max() > 1e-6

    def test_batch_order_equivariance(self):
        rng = np.random.default_rng(11)
        config = TransformerConfig(d_model=8, layers=2, heads=2, ffn_dim=16)
        params = init_transformer_params(config, rng)
        contexts = rng.uniform(-2, 2, (6, 10))
        perm = rng.permutation(6)
        h = transformer_forward(config, params, contexts).data
        h_perm = transformer_forward(config, params, contexts[perm]).data
        np.testing.assert_array_equal(h[perm], h_perm)

    def test_deterministic_given_seed(self):
        config = TransformerConfig(d_model=8, layers=1, heads=2, ffn_dim=8)
        a = init_transformer_params(config, np.random.default_rng(21))
        b = init_transformer_params(config, np.random.default_rng(21))
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)


class TestHeads:
    def test_zero_weights_expose_biases(self):
        rng = np.random.default_rng(12)
        params = init_head_params(6, rng)
        for name in ("cls", "mu", "sigma"):
            params[f"head.{name}.w"].data[:] = 0.0
        params["head.cls.b"].data[:] = 0.3
        params["head.mu.b"].data[:] = -0.2
        params["head.sigma.b"].data[:] = 0.0
        hidden = Tensor(rng.uniform(-1, 1, (4, 6)))
        out = heads_forward(hidden, params, np.zeros(4))
        np.testing.assert_allclose(out.cls_logit.data, 0.3, atol=1e-15)
        np.testing.assert_allclose(out.delta_mu.data, -0.2, atol=1e-15)
        np.testing.assert_allclose(out.sigma_n.data, math.log(2.0) + 1e-4, atol=1e-12)

    def test_softplus_zero_floor_value(self):
        assert math.log(2.0) + 1e-4 == pytest.approx(0.693247, abs=1e-6)

    def test_sigma_floor_holds_for_extreme_weights(self):
        rng = np.random.default_rng(13)
        params = init_head_params(3, rng)
        params["head.sigma.w"].data[:] = -50.0
        params["head.sigma.b"].data[:] = -500.0
        hidden = Tensor(np.ones((2, 3)))
        out = heads_forward(hidden, params, np.zeros(2))
        assert np.all(out.sigma_n.data >= 1e-4)

    def test_mu_is_last_sample_plus_residual(self):
        rng = np.random.default_rng(14)
        params = init_head_params(5, rng)
        params["head.mu.w"].data[:] = rng.uniform(-1, 1, (5, 1))
        hidden = Tensor(rng.uniform(-1, 1, (3, 5)))
        x_last = np.array([0.1, -0.4, 2.0])
        out = heads_forward(hidden, params, x_last)
        np.testing.assert_allclose(out.mu_tilde.data, x_last + out.delta_mu.data, atol=1e-15)

    def test_inverse_transform_to_bpm(self):
        from hrbench.ingest import StandardizationStats

        stats = StandardizationStats(mu=70.0, sigma=10.0)
        assert stats.denormalize(0.3) == pytest.approx(73.0)
        assert stats.scale_to_bpm(0.5) == pytest.approx(5.0)


class TestBaselines:
    def test_always_negative_identities(self):
        from hrbench.metrics import auprc, auroc, brier

        labels = np.zeros(625)
        labels[:91] = 1  # prevalence 0.1456
        probs = always_negative_probs(625)
        assert auroc(probs, labels) == 0.5
        assert auprc(probs, labels) == pytest.approx(0.1456, abs=1e-15)
        assert brier(probs, labels) == pytest.approx(0.1456, abs=1e-15)

    def test_always_negative_trivials(self):
        from hrbench.metrics import brier as brier_fn

        assert brier_fn(always_negative_probs(4), np.zeros(4)) == 0.0
        assert brier_fn(always_negative_probs(10), np.array([1] + [0] * 9)) == pytest.approx(0.1)

    def test_persistence_point_error(self):
        contexts = np.tile(np.linspace(60, 80, 60), (1, 1))
        mu, sigma = persistence_forecast(contexts, 2.0)
        assert mu[0] == 80.0
        assert abs(85.0 - mu[0]) == 5.0
        assert np.all(sigma > 0)

    def test_persistence_on_constant_series(self):
        from reference import mae_rmse

        contexts = np.full((5, 60), 72.0)
        mu, _ = persistence_forecast(contexts, 0.0)
        assert mae_rmse(mu, np.full(5, 72.0)) == (0.0, 0.0)

    def test_persistence_mae_equals_mean_increment_on_random_walk(self):
        rng = np.random.default_rng(15)
        steps = np.clip(np.cumsum(rng.normal(0, 2, 400)) + 100, 20, 220)
        windows = []
        targets = []
        for start in range(0, 400 - 61, 60):
            windows.append(steps[start : start + 60])
            targets.append(steps[start + 60])
        mu, _ = persistence_forecast(np.stack(windows), 1.0)
        expected = np.mean([abs(t - w[-1]) for w, t in zip(windows, targets)])
        from reference import mae_rmse

        mae, _ = mae_rmse(mu, np.array(targets))
        assert mae == pytest.approx(expected, abs=1e-12)


def randomize_heads(params, rng):
    """Gradient checks need nonzero head weights so encoder grads are live."""
    for name, p in params.items():
        if name.startswith("head.") and name.endswith(".w"):
            p.data[:] = rng.uniform(-0.5, 0.5, p.data.shape)


class TestGradientChecks:
    def test_grud_with_both_losses(self):
        rng = np.random.default_rng(16)
        config = GrudConfig(input_dim=1, hidden_dim=5)
        params = float64({**init_grud_params(config, rng), **init_head_params(5, rng)})
        randomize_heads(params, rng)
        context = rng.uniform(-2, 2, (3, 8))
        labels = np.array([1, 0, 1])
        targets = rng.uniform(-1, 1, 3)

        def bce_closure():
            h = grud_forward(config, params, context)
            out = heads_forward(h, params, context[:, -1])
            return training.weighted_bce(out.cls_logit, labels, 3.0)

        def nll_closure():
            h = grud_forward(config, params, context)
            out = heads_forward(h, params, context[:, -1])
            return training.gaussian_nll(out.mu_tilde, out.sigma_n, targets)

        bce_params = [p for n, p in params.items() if "head.mu" not in n and "head.sigma" not in n]
        nll_params = [p for n, p in params.items() if "head.cls" not in n]
        assert check_gradients(bce_closure, bce_params, epsilon=1e-4) < 1e-4
        assert check_gradients(nll_closure, nll_params, epsilon=1e-4) < 1e-4

    def test_transformer_with_both_losses(self):
        rng = np.random.default_rng(17)
        config = TransformerConfig(d_model=8, layers=2, heads=2, ffn_dim=12)
        params = float64({**init_transformer_params(config, rng), **init_head_params(8, rng)})
        randomize_heads(params, rng)
        context = rng.uniform(-2, 2, (3, 8))
        labels = np.array([0, 1, 0])
        targets = rng.uniform(-1, 1, 3)

        def bce_closure():
            h = transformer_forward(config, params, context)
            out = heads_forward(h, params, context[:, -1])
            return training.weighted_bce(out.cls_logit, labels, 2.0)

        def nll_closure():
            h = transformer_forward(config, params, context)
            out = heads_forward(h, params, context[:, -1])
            return training.gaussian_nll(out.mu_tilde, out.sigma_n, targets)

        bce_params = [p for n, p in params.items() if "head.mu" not in n and "head.sigma" not in n]
        nll_params = [p for n, p in params.items() if "head.cls" not in n]
        assert check_gradients(bce_closure, bce_params, epsilon=1e-4) < 1e-4
        assert check_gradients(nll_closure, nll_params, epsilon=1e-4) < 1e-4

    def test_grud_gradcheck_with_masks(self):
        rng = np.random.default_rng(18)
        config = GrudConfig(input_dim=2, hidden_dim=4, train_mean=(0.1, -0.2))
        params = float64({**init_grud_params(config, rng), **init_head_params(4, rng)})
        randomize_heads(params, rng)
        context = rng.uniform(-2, 2, (2, 6, 2))
        mask = (rng.uniform(size=(2, 6, 2)) > 0.3).astype(float)
        delta = rng.uniform(0.1, 2.0, (2, 6, 2))
        labels = np.array([1, 0])

        def closure():
            h = grud_forward(config, params, context, mask, delta)
            out = heads_forward(h, params, np.zeros(2))
            return training.weighted_bce(out.cls_logit, labels, 1.5)

        bce_params = [p for n, p in params.items() if "head.mu" not in n and "head.sigma" not in n]
        assert check_gradients(closure, bce_params, epsilon=1e-4) < 1e-4


# the no-record paths of gru_scan and the layer nodes serve evaluation and
# the per-epoch validation loss, so they must give the recorded forward's
# bits: at a toy size, through a full-sequence layer, and at the default
# float32 sizes
@pytest.mark.parametrize("kind,encoder,steps", [
    pytest.param("grud", GrudConfig(hidden_dim=8), 20, id="grud"),
    pytest.param("transformer", TransformerConfig(d_model=8, layers=1, heads=2, ffn_dim=16),
                 20, id="transformer"),
    pytest.param("transformer", TransformerConfig(d_model=8, layers=2, heads=2, ffn_dim=16),
                 20, id="transformer-2-layers"),
    pytest.param("grud", GrudConfig(), 60, id="grud-default"),
    pytest.param("transformer", TransformerConfig(), 60, id="transformer-default"),
])
def test_model_predictions_record_no_graph_and_match_taped_forward(kind, encoder, steps):
    rng = np.random.default_rng(4)
    params = models.build_params(kind, encoder, 0)
    assert all(p.data.dtype == np.float32 for p in params.values())
    for name, p in params.items():
        if name.startswith("head."):
            p.data[...] = rng.normal(size=p.shape)
    contexts = rng.normal(size=(10, steps))
    last = contexts[:, -1]

    hidden = models.encoder_forward(kind, encoder, params, contexts)
    taped = models.heads_forward(hidden, params, last)
    assert taped.cls_logit.requires_grad
    with ad.no_grad():
        free = models.heads_forward(models.encoder_forward(kind, encoder, params, contexts),
                                    params, last)
    outs = models.model_predictions(kind, encoder, params, contexts, last)
    for name in ("cls_logit", "delta_mu", "sigma_n", "mu_tilde"):
        assert ad.Tape(getattr(free, name)).nodes == []
        np.testing.assert_array_equal(getattr(free, name).data, getattr(taped, name).data)
        np.testing.assert_array_equal(outs[name], getattr(taped, name).data)
