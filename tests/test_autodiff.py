import math
import weakref

import numpy as np
import pytest

from hrbench import autodiff as ad
from hrbench.autodiff import (
    Parameter,
    Tape,
    Tensor,
    backward,
    load_checkpoint,
    save_checkpoint,
    zero_grads,
)
from hrbench.errors import ContractViolation, ShapeError
import reference
from reference import check_gradients


def test_standard_forward_values():
    assert ad.tanh(Tensor(0.0)).item() == 0.0
    assert reference.sigmoid(Tensor(0.0)).item() == 0.5
    assert ad.softplus(Tensor(0.0)).item() == pytest.approx(math.log(2.0), abs=1e-15)
    sm = reference.softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(sm.data, [0.25, 0.25, 0.25, 0.25], atol=1e-15)


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    out = ad.matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_array_equal(out.data, np.eye(3) @ a)
    np.testing.assert_allclose(out.data, a, atol=1e-15)


def test_shape_errors_name_both_shapes():
    with pytest.raises(ShapeError) as exc:
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    assert "(2, 3)" in str(exc.value) and "(3, 2)" in str(exc.value)
    with pytest.raises(ShapeError):
        ad.mul(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_only_the_operand_forms_the_models_use_are_accepted():
    t, bias = Tensor(np.full((2, 3), 4.0)), Tensor(np.ones(3))
    np.testing.assert_array_equal((t + bias).data, np.full((2, 3), 5.0))
    np.testing.assert_array_equal((t + 2.0).data, np.full((2, 3), 6.0))
    np.testing.assert_array_equal((t * 0.5).data, np.full((2, 3), 2.0))
    np.testing.assert_array_equal((1.0 - t).data, np.full((2, 3), -3.0))
    for form in (lambda: ad.add(2.0, t), lambda: ad.add(bias, t), lambda: ad.mul(2.0, t),
                 lambda: ad.sub(t, 2.0), lambda: ad.div(t, 2.0)):
        with pytest.raises(ShapeError):
            form()
    for form in (lambda: 2.0 + t, lambda: 2.0 * t, lambda: -t):
        with pytest.raises(TypeError):
            form()


def test_backward_quadratic():
    w = Parameter("w", np.array([1.0, 2.0, 3.0]))
    backward(reference.sum_(w * w))
    np.testing.assert_allclose(w.grad, [2.0, 4.0, 6.0], atol=1e-15)


def test_backward_bce_textbook_gradient():
    # loss = -log sigmoid(w.x) for a positive label: grad_w = (sigmoid - 1) x
    rng = np.random.default_rng(3)
    w = Parameter("w", rng.normal(size=(1, 4)))
    x = rng.normal(size=(4, 1))
    logit = ad.matmul(w, Tensor(x))
    loss = ad.softplus(ad.neg(logit))  # -log sigmoid
    backward(reference.sum_(loss))
    s = 1.0 / (1.0 + math.exp(-float((w.data @ x).item())))
    np.testing.assert_allclose(w.grad, ((s - 1.0) * x).T, atol=1e-12)


def test_non_scalar_loss_rejected():
    w = Parameter("w", np.ones(3))
    with pytest.raises(ContractViolation):
        backward(w * w)


def test_unreachable_parameter_keeps_zero_grad():
    used = Parameter("used", np.ones(2))
    unused = Parameter("unused", np.ones(2))
    backward(reference.sum_(used * used))
    np.testing.assert_array_equal(unused.grad, np.zeros(2))


def test_diamond_graph_visited_once():
    # y = a*a + a: a double-counted visit would inflate the gradient
    a = Parameter("a", np.array([3.0]))
    backward(reference.sum_(a * a + a))
    np.testing.assert_allclose(a.grad, [7.0], atol=1e-15)


def test_tape_orders_parents_before_consumers():
    a = Parameter("a", np.ones(2))
    b = a * 2.0
    c = ad.tanh(b)
    loss = reference.sum_(c + b)
    tape = Tape(loss)
    position = {id(node): i for i, node in enumerate(tape.nodes)}
    for node in tape.nodes:
        for parent in node._parents:
            if parent.requires_grad:
                assert position[id(parent)] < position[id(node)]


def test_backward_linearity():
    rng = np.random.default_rng(5)
    w = Parameter("w", rng.normal(size=4))

    def grad_of(make_loss):
        zero_grads([w])
        backward(make_loss())
        return w.grad.copy()

    g1 = grad_of(lambda: ad.mean(w * w))
    g2 = grad_of(lambda: reference.sum_(ad.tanh(w)))
    g12 = grad_of(lambda: ad.mean(w * w) + reference.sum_(ad.tanh(w)))
    np.testing.assert_allclose(g12, g1 + g2, rtol=1e-12)


def test_repeat_backward_after_zero_is_identical():
    rng = np.random.default_rng(7)
    w = Parameter("w", rng.normal(size=(3, 3)))
    x = rng.normal(size=(3, 3))

    def run():
        zero_grads([w])
        backward(ad.mean(reference.sigmoid(ad.matmul(w, Tensor(x)))))
        return w.grad.copy()

    np.testing.assert_array_equal(run(), run())


def _away_from_zero(rng, shape, low=0.1, high=2.0):
    return rng.uniform(low, high, shape) * rng.choice([-1.0, 1.0], shape)


def _op_cases(rng):
    """closures exercising every recorded operation, for finite differencing."""
    a = Parameter("a", rng.uniform(-2, 2, (3, 4)))
    b = Parameter("b", rng.uniform(-2, 2, (3, 4)))
    bias = Parameter("bias", rng.uniform(-2, 2, 4))
    pos = Parameter("pos", rng.uniform(0.5, 2.5, (3, 4)))
    den = Parameter("den", _away_from_zero(rng, (3, 4), low=0.5, high=2.5))
    kink = Parameter("kink", _away_from_zero(rng, (3, 4)))
    m1 = Parameter("m1", rng.uniform(-1, 1, (3, 4)))
    m2 = Parameter("m2", rng.uniform(-1, 1, (4, 2)))
    s1 = Parameter("s1", rng.uniform(-1, 1, (2, 3, 4)))
    s2 = Parameter("s2", rng.uniform(-1, 1, (2, 4, 3)))
    g = Parameter("g", rng.uniform(0.5, 1.5, 4))
    be = Parameter("be", rng.uniform(-0.5, 0.5, 4))
    return {
        "add": (lambda: ad.mean(ad.tanh(a + b)), [a, b], 1e-4),
        "add_bias": (lambda: ad.mean(ad.tanh(a + bias)), [a, bias], 1e-4),
        "sub": (lambda: ad.mean(reference.sigmoid(a - b)), [a, b], 1e-4),
        "neg": (lambda: ad.mean(ad.exp(ad.neg(a))), [a], 1e-4),
        "mul": (lambda: ad.mean(a * b), [a, b], 1e-6),
        "div": (lambda: ad.mean(a / den), [a, den], 1e-4),
        "matmul": (lambda: ad.mean(ad.tanh(m1 @ m2)), [m1, m2], 1e-4),
        "matmul_stacked": (lambda: ad.mean(ad.tanh(s1 @ s2)), [s1, s2], 1e-4),
        "matmul_shared_rhs": (lambda: ad.mean(ad.tanh(s1 @ m2)), [s1, m2], 1e-4),
        "tanh": (lambda: ad.mean(ad.tanh(a)), [a], 1e-4),
        "sigmoid": (lambda: ad.mean(reference.sigmoid(a)), [a], 1e-4),
        "relu": (lambda: ad.mean(ad.relu(kink) * kink), [kink], 1e-4),
        "exp": (lambda: ad.mean(ad.exp(a)), [a], 1e-4),
        "log": (lambda: ad.mean(ad.log(pos)), [pos], 1e-4),
        "softplus": (lambda: ad.mean(ad.softplus(a)), [a], 1e-4),
        "softmax": (lambda: ad.mean(reference.softmax(a) * b), [a, b], 1e-4),
        "concat": (lambda: ad.mean(ad.tanh(ad.concat([a, b], axis=1))), [a, b], 1e-4),
        "take": (lambda: ad.mean(reference.sigmoid(a[:, 1:3])), [a], 1e-4),
        "reshape": (lambda: ad.mean(ad.tanh(ad.reshape(a, (4, 3)))), [a], 1e-4),
        "transpose": (lambda: ad.mean(ad.tanh(reference.transpose(s1, (1, 0, 2)))), [s1], 1e-4),
        "mean": (lambda: ad.mean(a * a), [a], 1e-6),
        "sum": (lambda: reference.sum_(reference.sigmoid(a)), [a], 1e-4),
        "layer_norm": (lambda: ad.mean(reference.layer_norm(a, g, be) * b), [a, g, be], 1e-4),
    }


@pytest.mark.parametrize("seed", range(3))
def test_every_op_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    for name, (closure, params, tol) in _op_cases(rng).items():
        err = check_gradients(closure, params, epsilon=1e-4)
        assert err < tol, f"{name}: relative error {err:.2e} >= {tol}"


@pytest.mark.parametrize("seed", range(2))
def test_gru_scan_matches_finite_differences(seed):
    # decays strictly below 1, so the gradient into gamma_h is exercised
    rng = np.random.default_rng(seed)
    steps, batch, h = 5, 3, 4
    gates = Parameter("gates", rng.uniform(-2, 2, (steps, batch, 3 * h)))
    gamma = Parameter("gamma", rng.uniform(0.2, 0.9, (steps, batch, h)))
    w_hh = Parameter("w_hh", rng.uniform(-1, 1, (h, 3 * h)))
    b_hh = Parameter("b_hh", rng.uniform(-0.5, 0.5, 3 * h))
    weights = Tensor(rng.uniform(-1, 1, (batch, h)))

    def closure():
        return reference.sum_(ad.gru_scan(gates, gamma, w_hh, b_hh) * weights)

    assert check_gradients(closure, [gates, gamma, w_hh, b_hh], epsilon=1e-4) < 1e-5


def test_gru_scan_is_one_node_and_rejects_mismatched_shapes():
    rng = np.random.default_rng(3)
    gates = Parameter("gates", rng.normal(size=(6, 2, 9)))
    w_hh, b_hh = Parameter("w_hh", rng.normal(size=(3, 9))), Parameter("b_hh", np.zeros(9))
    h = ad.gru_scan(gates, np.ones((6, 2, 3)), w_hh, b_hh)
    assert h.shape == (2, 3)
    nodes = Tape(h).nodes
    assert nodes[-1] is h and {id(n) for n in nodes[:-1]} == {id(gates), id(w_hh), id(b_hh)}
    with pytest.raises(ShapeError):
        ad.gru_scan(gates, np.ones((6, 2, 4)), w_hh, b_hh)
    with pytest.raises(ShapeError):
        ad.gru_scan(Tensor(np.zeros((6, 2, 8))), np.ones((6, 2, 3)), w_hh, b_hh)


def _layer_case(rng, rows, layer_norm, d=4, heads=2, width=5):
    """One Transformer layer from the fused nodes and from single ops, on a
    (2, 3, d) input whose queries are all its rows or the last one."""
    x = Parameter("x", rng.uniform(-1, 1, (2, 3, d)))
    weights = [Parameter(f"attn{i}", rng.uniform(-1, 1, shape)) for i, shape in
               enumerate([(d, d), (d,), (d, d), (d, d), (d,), (d, d), (d,)])]
    ffn_weights = [Parameter(f"ffn{i}", rng.uniform(-1, 1, shape)) for i, shape in
                   enumerate([(d, width), (width,), (width, d), (d,)])]
    norms = [Parameter(f"norm{i}", rng.uniform(0.5, 1.5, d) if i % 2 == 0 else
                       rng.uniform(-0.5, 0.5, d)) for i in range(4)]
    read = Tensor(rng.uniform(-1, 1, (2, 3 if rows == "all" else 1, d)))

    def layer(attention, ffn, add_layer_norm):
        queries = x if rows == "all" else x[:, -1:, :]
        mha, probs = attention(queries, x, *weights, heads=heads)
        if layer_norm:
            hidden = add_layer_norm(queries, mha, *norms[:2])
            out = add_layer_norm(hidden, ffn(hidden, *ffn_weights), *norms[2:])
        else:
            hidden = queries + mha
            out = hidden + ffn(hidden, *ffn_weights)
        return reference.sum_(out * read), probs

    params = [x, *weights, *ffn_weights, *(norms if layer_norm else [])]
    fused = lambda: layer(ad.attention, ad.ffn, ad.add_layer_norm)
    ops = lambda: layer(reference.attention_reference, reference.ffn_reference,
                        reference.add_layer_norm_reference)
    return fused, ops, params


@pytest.mark.parametrize("layer_norm", [True, False])
@pytest.mark.parametrize("rows", ["all", "one"])
def test_fused_layer_nodes_match_finite_differences(rows, layer_norm):
    rng = np.random.default_rng(17)
    fused, _, params = _layer_case(rng, rows, layer_norm)
    assert check_gradients(lambda: fused()[0], params, epsilon=1e-4) < 1e-5


@pytest.mark.parametrize("layer_norm", [True, False])
@pytest.mark.parametrize("rows", ["all", "one"])
def test_fused_layer_nodes_match_single_ops(rows, layer_norm):
    rng = np.random.default_rng(18)
    fused, ops, params = _layer_case(rng, rows, layer_norm)

    def run(layer):
        zero_grads(params)
        loss, probs = layer()
        backward(loss)
        return loss.item(), probs, [p.grad.copy() for p in params]

    (loss, probs, grads), (ref_loss, ref_probs, ref_grads) = run(fused), run(ops)
    assert probs.shape == (2, 2, 3 if rows == "all" else 1, 3)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(probs, ref_probs, rtol=0, atol=1e-14)
    for p, g, ref in zip(params, grads, ref_grads):
        np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12, err_msg=p.name)


def test_fused_layer_nodes_reject_mismatched_shapes():
    x, w, b = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 4))), Tensor(np.zeros(4))
    with pytest.raises(ShapeError):
        ad.attention(x, x, w, b, w, w, b, w, b, heads=3)
    with pytest.raises(ShapeError):
        ad.attention(x, Tensor(np.zeros((2, 3, 5))), w, b, w, w, b, w, b, heads=2)
    with pytest.raises(ShapeError):
        ad.attention(x, x, w, b, Tensor(np.zeros((4, 5))), w, b, w, b, heads=2)
    with pytest.raises(ShapeError):
        ad.ffn(x, Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)), Tensor(np.zeros((4, 4))), b)
    with pytest.raises(ShapeError):
        ad.add_layer_norm(x, Tensor(np.zeros((2, 1, 4))), b, b)


def test_check_gradients_linear_model_near_exact():
    rng = np.random.default_rng(11)
    w = Parameter("w", rng.normal(size=(4, 1)))
    x = rng.normal(size=(6, 4))
    y = rng.normal(size=(6, 1))
    closure = lambda: ad.mean((Tensor(y) - Tensor(x) @ w) * (Tensor(y) - Tensor(x) @ w))
    assert check_gradients(closure, [w]) < 1e-7


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    params = [
        Parameter("w", rng.normal(size=(3, 5)) / 3.0),
        Parameter("b", np.array([1.0 / 3.0, math.sqrt(2.0), 1e-300, -0.0])),
    ]
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, params, config={"kind": "test", "depth": 2})
    loaded, config = load_checkpoint(path)
    assert config == {"kind": "test", "depth": 2}
    assert set(loaded) == {"w", "b"}
    for p in params:
        np.testing.assert_array_equal(loaded[p.name].data, p.data)


def test_no_grad_records_no_graph():
    w = Parameter("w", np.array([[2.0]]))
    x = Tensor(np.array([[0.3]]))
    taped = ad.tanh(x @ w) * 2.0
    with ad.no_grad():
        hidden = x @ w
        ref = weakref.ref(hidden)
        out = ad.tanh(hidden) * 2.0
        del hidden
    # out does not keep its input alive
    assert ref() is None
    assert not out.requires_grad
    assert Tape(out).nodes == []
    assert len(Tape(taped).nodes) == 4  # w, matmul, tanh, scale
    np.testing.assert_array_equal(out.data, taped.data)


def test_no_grad_restores_recording_on_exit_and_error():
    w = Parameter("w", np.ones(2))
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not (w * 2.0).requires_grad
            raise RuntimeError("inside")
    out = reference.sum_(w * 2.0)
    assert out.requires_grad
    backward(out)
    np.testing.assert_array_equal(w.grad, [2.0, 2.0])


def test_backward_drops_interior_gradients_and_keeps_leaves():
    w = Parameter("w", np.array([2.0]))
    x = Tensor(np.array([3.0]), requires_grad=True)
    hidden = w * x
    backward(reference.sum_(hidden))
    assert hidden.grad is None
    np.testing.assert_array_equal(w.grad, [3.0])
    np.testing.assert_array_equal(x.grad, [2.0])
