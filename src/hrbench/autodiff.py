"""Reverse-mode differentiation on float32 or float64 numpy arrays.

Define-by-run: every operation eagerly computes its value and returns
`Tensor(value, parents, backward)`, so the graph is rebuilt on each forward
pass. The constructor is the only place a node gets its backward rule, and a
node that records nothing (no parent needs a gradient, or inside `no_grad()`,
for inference) keeps neither its parents nor its rule. Only the operations
the two encoders and their losses need are provided. The blocks that do most
of a training step's work are fused nodes with hand-written backward rules:
the GRU recurrence (`gru_scan`) and the Transformer layer's multi-head
attention (`attention`), feed-forward block (`ffn`) and residual layer norm
(`add_layer_norm`). Each records one node and keeps only the arrays its
backward reads.

Elementwise operands must match shapes exactly, with three exceptions: `add`
takes a last-axis bias vector as its second operand, and `t + c`, `t * c`
and `c - t` take a real number c. Anywhere else a number is a 0-d tensor,
so `t - c`, `t / c`, `add(c, t)`, `mul(c, t)` and `add(bias, t)` are
ShapeErrors for any t that is not 0-d; `c + t`, `c * t` and `-t` are
TypeErrors. Most wiring mistakes thus fail at once instead of
silently.

A tensor keeps the dtype of a float32 or float64 value and stores anything
else as float64. No op promotes: each computes in the dtype of its tensor
operands, and a real number takes that dtype. Operands of different dtypes
give float64 silently, so callers cast their data to the parameters' dtype.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ContractViolation, ShapeError

Array = np.ndarray

_recording = True
_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Compute values only: ops inside record no parents and no backward rule,
    so each intermediate is freed as soon as nothing references it."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _records(parents: Iterable[Tensor]) -> bool:
    """Whether a node over `parents` records them and its backward rule."""
    return _recording and any(p.requires_grad for p in parents)


class Tensor:
    """A node of the computation graph: value, gradient slot, backward rule.

    A node that needs no gradient keeps neither its parents nor its backward
    rule, so it holds no graph alive.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, parents=(), backward=None, requires_grad=None):
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOATS else data.astype(np.float64)
        self.grad: Array | None = None
        parents = tuple(parents)
        if requires_grad is None:
            requires_grad = _records(parents)
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = parents if self.requires_grad else ()
        self._backward: Callable[[Array], None] | None = (
            backward if self.requires_grad else None)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractViolation(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; all semantics live in the module-level functions
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)


class Parameter(Tensor):
    """Named leaf tensor whose gradient persists across backward calls."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def zero_grads(params: Iterable[Parameter]) -> None:
    for p in params:
        p.grad = np.zeros_like(p.data)


class Tape:
    """Nodes reachable from a root, ordered with inputs before consumers."""

    def __init__(self, root: Tensor):
        self.nodes: list[Tensor] = []
        visited: set[int] = set()
        # iterative post-order so deep recurrent graphs do not hit the
        # recursion limit
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                self.nodes.append(node)
                continue
            if id(node) in visited or not node.requires_grad:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/dp into every reachable parameter's .grad.

    An interior node's gradient is dropped once its rule has passed it on,
    so the gradients of a pass do not all stay alive until it ends; leaves
    keep theirs.
    """
    if loss.data.size != 1:
        raise ContractViolation(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    tape = Tape(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


def _accum(t: Tensor, g: Array) -> None:
    if not t.requires_grad:
        return
    # never mutate g in place: it may be shared with a sibling branch
    t.grad = g if t.grad is None else t.grad + g


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _bias_grad(g: Array, k: int) -> Array:
    return g.reshape(-1, k).sum(axis=0)


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    if isinstance(b, numbers.Real):
        a = _coerce(a)
        return Tensor(a.data + float(b), (a,), lambda g: _accum(a, g))
    a, b = _coerce(a), _coerce(b)
    if a.shape == b.shape:

        def _bw(g):
            _accum(a, g)
            _accum(b, g)

    elif b.ndim == 1 and a.ndim >= 2 and a.shape[-1] == b.shape[0]:

        def _bw(g):
            _accum(a, g)
            _accum(b, _bias_grad(g, b.shape[0]))

    else:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return Tensor(a.data + b.data, (a, b), _bw)


def sub(a, b) -> Tensor:
    return add(a, neg(b))


def neg(a) -> Tensor:
    a = _coerce(a)
    return Tensor(-a.data, (a,), lambda g: _accum(a, -g))


def mul(a, b) -> Tensor:
    if isinstance(b, numbers.Real):
        a, s = _coerce(a), float(b)
        return Tensor(a.data * s, (a,), lambda g: _accum(a, g * s))
    a, b = _coerce(a), _coerce(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")

    def _bw(g):
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)

    return Tensor(a.data * b.data, (a, b), _bw)


def div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.shape != b.shape:
        raise ShapeError(f"div: incompatible shapes {a.shape} and {b.shape}")
    quotient = a.data / b.data

    # closures capture plain arrays, never the output tensor itself: a node
    # referencing itself would form a cycle and defer graph teardown to the gc
    def _bw(g):
        if a.requires_grad:
            _accum(a, g / b.data)
        if b.requires_grad:
            _accum(b, -g * quotient / b.data)

    return Tensor(quotient, (a, b), _bw)


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims of {a.shape} and {b.shape} differ")
    if a.ndim == b.ndim:
        if a.shape[:-2] != b.shape[:-2]:
            raise ShapeError(f"matmul: stacked dims of {a.shape} and {b.shape} differ")

        def _bw(g):
            if a.requires_grad:
                _accum(a, g @ np.swapaxes(b.data, -1, -2))
            if b.requires_grad:
                _accum(b, np.swapaxes(a.data, -1, -2) @ g)

    elif b.ndim == 2:
        # stacked left operand against one shared weight matrix
        m, k = b.shape

        def _bw(g):
            if a.requires_grad:
                _accum(a, g @ b.data.T)
            if b.requires_grad:
                _accum(b, a.data.reshape(-1, m).T @ g.reshape(-1, k))

    else:
        raise ShapeError(f"matmul: unsupported shapes {a.shape} and {b.shape}")
    return Tensor(a.data @ b.data, (a, b), _bw)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def tanh(a) -> Tensor:
    a = _coerce(a)
    value = np.tanh(a.data)
    return Tensor(value, (a,), lambda g: _accum(a, g * (1.0 - value * value)))


def relu(a) -> Tensor:
    a = _coerce(a)
    return Tensor(np.maximum(a.data, 0.0), (a,), lambda g: _accum(a, g * (a.data > 0.0)))


def exp(a) -> Tensor:
    a = _coerce(a)
    value = np.exp(a.data)
    return Tensor(value, (a,), lambda g: _accum(a, g * value))


def log(a) -> Tensor:
    a = _coerce(a)
    return Tensor(np.log(a.data), (a,), lambda g: _accum(a, g / a.data))


def softplus(a) -> Tensor:
    a = _coerce(a)
    # max(x, 0) + log1p(exp(-|x|)) never overflows
    value = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    return Tensor(value, (a,), lambda g: _accum(a, g * 0.5 * (1.0 + np.tanh(0.5 * a.data))))


# ---------------------------------------------------------------------------
# shape manipulation and reductions


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    ts = [_coerce(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of an empty sequence")
    sizes = [t.shape[axis] for t in ts]

    def _bw(g):
        offset = 0
        for t, size in zip(ts, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + size)
            _accum(t, g[tuple(idx)])
            offset += size

    return Tensor(np.concatenate([t.data for t in ts], axis=axis), ts, _bw)


def take(a, key) -> Tensor:
    """Basic (non-fancy) indexing; the gradient scatters back into place."""
    a = _coerce(a)

    def _bw(g):
        buf = np.zeros_like(a.data)
        buf[key] = g
        _accum(a, buf)

    return Tensor(np.array(a.data[key]), (a,), _bw)


def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    return Tensor(a.data.reshape(shape), (a,), lambda g: _accum(a, g.reshape(a.shape)))


def mean(a) -> Tensor:
    a = _coerce(a)
    n = a.data.size
    return Tensor(a.data.mean(), (a,),
                  lambda g: _accum(a, np.full(a.shape, float(g) / n, a.data.dtype)))


# ---------------------------------------------------------------------------
# recurrence


def gru_scan(gates_i, gamma_h, w_hh, b_hh) -> Tensor:
    """A GRU recurrence over precomputed input gates, as one node; returns h_T.

    Inputs are time-major: gates_i (T, B, 3H) holds the input side of the
    reset, update and candidate gates, and gamma_h (T, B, H) decays the
    previous hidden state before each step (h before step 0 is zero):

        h' = gamma_h[t] * h
        g  = h' @ w_hh + b_hh
        r  = sigmoid(gates_i[t, :H] + g[:H]);  u = sigmoid(gates_i[t, H:2H] + g[H:2H])
        n  = tanh(gates_i[t, 2H:] + r * g[2H:]);  h = (1 - u) * n + u * h'

    Only the gate recurrence runs step by step. Backward runs back through
    time over the per-step states the forward saved in time-major buffers,
    and forms dw_hh as one product over all steps.
    """
    gates_i, gamma_h, w_hh, b_hh = (_coerce(t) for t in (gates_i, gamma_h, w_hh, b_hh))
    if gates_i.ndim != 3 or gates_i.shape[-1] % 3:
        raise ShapeError(f"gru_scan: gates_i must be (T, B, 3H), got {gates_i.shape}")
    steps, batch, three_h = gates_i.shape
    h_dim = three_h // 3
    if gamma_h.shape != (steps, batch, h_dim) or w_hh.shape != (h_dim, three_h) \
            or b_hh.shape != (three_h,):
        raise ShapeError(
            f"gru_scan: gates_i {gates_i.shape} needs gamma_h {(steps, batch, h_dim)}, "
            f"w_hh {(h_dim, three_h)} and b_hh {(three_h,)}; got {gamma_h.shape}, "
            f"{w_hh.shape} and {b_hh.shape}"
        )
    parents = (gates_i, gamma_h, w_hh, b_hh)
    record = _records(parents)
    gi, gamma, w, b = gates_i.data, gamma_h.data, w_hh.data, b_hh.data
    # per-step states for the backward pass, or one step's working space
    saved = steps if record else 1
    dtype = gi.dtype
    h_prev = np.empty((saved, batch, h_dim), dtype)  # the decayed state h'
    act = np.empty((saved, batch, three_h), dtype)  # r, u, n
    g_n = np.empty((saved, batch, h_dim), dtype)  # hidden side of the candidate gate
    g = np.empty((batch, three_h), dtype)
    h = np.zeros((batch, h_dim), dtype)
    for t in range(steps):
        s = t if record else 0
        np.multiply(gamma[t], h, out=h_prev[s])
        np.matmul(h_prev[s], w, out=g)
        g += b
        # r and u: sigmoid in its tanh form, 0.5 * (1 + tanh(x / 2)), finite for any x
        ru = np.add(gi[t, :, : 2 * h_dim], g[:, : 2 * h_dim], out=act[s, :, : 2 * h_dim])
        ru *= 0.5
        np.tanh(ru, out=ru)
        ru += 1.0
        ru *= 0.5
        g_n[s] = g[:, 2 * h_dim :]
        n = np.multiply(act[s, :, :h_dim], g_n[s], out=act[s, :, 2 * h_dim :])
        n += gi[t, :, 2 * h_dim :]
        np.tanh(n, out=n)
        u = act[s, :, h_dim : 2 * h_dim]
        h = (1.0 - u) * n + u * h_prev[s]
    if not record:
        return Tensor(h, parents)

    def _bw(dh):
        # dh is d(loss)/d(h after step t), walking t back from the last step
        d_gi = np.empty((steps, batch, three_h), dtype)  # d(loss)/d(gates_i)
        d_g = np.empty((steps, batch, three_h), dtype)  # d(loss)/d(g)
        # d(loss)/d(h') of every step, for the gradient of the decay
        d_hps = np.empty((steps, batch, h_dim), dtype) if gamma_h.requires_grad else None
        w_t = np.ascontiguousarray(w.T)
        for t in reversed(range(steps)):
            r, u, n = act[t, :, :h_dim], act[t, :, h_dim : 2 * h_dim], act[t, :, 2 * h_dim :]
            keep = 1.0 - u
            d_n = np.multiply(dh * keep, 1.0 - n * n, out=d_gi[t, :, 2 * h_dim :])
            d_r = np.multiply(d_n * r, g_n[t], out=d_gi[t, :, :h_dim])
            d_r *= 1.0 - r
            d_u = np.multiply(dh * (h_prev[t] - n), u, out=d_gi[t, :, h_dim : 2 * h_dim])
            d_u *= keep
            d_g[t, :, : 2 * h_dim] = d_gi[t, :, : 2 * h_dim]
            np.multiply(d_n, r, out=d_g[t, :, 2 * h_dim :])
            d_hp = d_g[t] @ w_t
            d_hp += dh * u
            if d_hps is not None:
                d_hps[t] = d_hp
            dh = d_hp * gamma[t]
        flat_g = d_g.reshape(-1, three_h)
        _accum(w_hh, h_prev.reshape(-1, h_dim).T @ flat_g)
        _accum(b_hh, flat_g.sum(axis=0))
        _accum(gates_i, d_gi)
        if d_hps is not None:
            # h' = gamma * (output of the step before), zero before step 0
            u, n = act[:, :, h_dim : 2 * h_dim], act[:, :, 2 * h_dim :]
            undecayed = np.zeros_like(h_prev)
            undecayed[1:] = (1.0 - u[:-1]) * n[:-1] + u[:-1] * h_prev[:-1]
            _accum(gamma_h, d_hps * undecayed)

    return Tensor(h, parents, _bw)


# ---------------------------------------------------------------------------
# Transformer layer


def attention(x_q, x_kv, w_q, b_q, w_k, w_v, b_v, w_out, b_out, heads: int):
    """Multi-head attention of the rows of x_q over the rows of x_kv, as one node.

    x_q is (B, R, d) and x_kv is (B, T, d); the output is (B, R, d):

        q = x_q @ w_q + b_q;  k = x_kv @ w_k;  v = x_kv @ w_v + b_v
        s_h = softmax(q_h @ k_h^T / sqrt(d / heads)) for each head h
        out = concat_h(s_h @ v_h) @ w_out + b_out

    Keys have no bias: it would add the same value to every score of a row.
    When x_q is x_kv the three projections are one product. Returns the
    output and the attention probabilities s, (B, heads, R, T). Backward
    reuses the saved projections and probabilities and forms the softmax
    gradient (g - rowsum(g * s)) * s once for all heads.
    """
    x_q, x_kv, w_q, b_q, w_k, w_v, b_v, w_out, b_out = (
        _coerce(t) for t in (x_q, x_kv, w_q, b_q, w_k, w_v, b_v, w_out, b_out))
    if x_q.ndim != 3 or x_kv.ndim != 3 or x_q.shape[0] != x_kv.shape[0] \
            or x_q.shape[2] != x_kv.shape[2]:
        raise ShapeError(f"attention: x_q {x_q.shape} and x_kv {x_kv.shape} must be "
                         "(B, R, d) and (B, T, d)")
    batch, rows, d = x_q.shape
    if heads <= 0 or d % heads:
        raise ShapeError(f"attention: {heads} heads do not divide d = {d}")
    if any(w.shape != (d, d) for w in (w_q, w_k, w_v, w_out)) \
            or any(b.shape != (d,) for b in (b_q, b_v, b_out)):
        raise ShapeError(f"attention: weights must be ({d}, {d}) and biases ({d},)")
    d_head = d // heads
    scale = 1.0 / math.sqrt(d_head)
    weights = {"q": w_q, "k": w_k, "v": w_v}
    # each input, the projections it feeds, and their weights side by side
    sources = [(x_q, "qkv")] if x_q is x_kv else [(x_q, "q"), (x_kv, "kv")]
    groups = [(x, names, np.concatenate([weights[n].data for n in names], axis=1))
              for x, names in sources]
    proj = {}  # name -> (B, heads, rows, d_head) view into its group's product
    for x, names, w in groups:
        y = (x.data @ w).reshape(batch, x.shape[1], len(names), heads, d_head)
        for i, name in enumerate(names):
            proj[name] = y[:, :, i].transpose(0, 2, 1, 3)
    q, k, v = proj["q"], proj["k"], proj["v"]
    q += b_q.data.reshape(heads, 1, d_head)
    v += b_v.data.reshape(heads, 1, d_head)
    s = q @ np.swapaxes(k, -1, -2)
    s *= scale
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    mixed = (s @ v).transpose(0, 2, 1, 3).reshape(batch, rows, d)
    value = mixed @ w_out.data
    value += b_out.data
    parents = (x_q, x_kv, w_q, b_q, w_k, w_v, b_v, w_out, b_out)
    if not _records(parents):
        return Tensor(value, parents), s

    def _bw(g):
        g_rows = g.reshape(-1, d)
        _accum(b_out, g_rows.sum(axis=0))
        _accum(w_out, mixed.reshape(-1, d).T @ g_rows)
        d_mixed = (g_rows @ w_out.data.T).reshape(batch, rows, heads, d_head)
        d_mixed = d_mixed.transpose(0, 2, 1, 3)
        d_s = d_mixed @ np.swapaxes(v, -1, -2)
        d_proj = {"v": np.swapaxes(s, -1, -2) @ d_mixed}
        d_s -= (d_s * s).sum(axis=-1, keepdims=True)
        d_s *= s
        d_s *= scale
        d_proj["q"] = d_s @ k
        d_proj["k"] = np.swapaxes(d_s, -1, -2) @ q
        _accum(b_q, d_proj["q"].sum(axis=(0, 2)).reshape(d))
        _accum(b_v, d_proj["v"].sum(axis=(0, 2)).reshape(d))
        for x, names, w in groups:
            d_y = np.empty((batch, x.shape[1], len(names), heads, d_head), x.data.dtype)
            for i, name in enumerate(names):
                d_y[:, :, i] = d_proj[name].transpose(0, 2, 1, 3)
            d_y = d_y.reshape(-1, len(names) * d)
            d_w = x.data.reshape(-1, d).T @ d_y
            for i, name in enumerate(names):
                _accum(weights[name], d_w[:, i * d : (i + 1) * d])
            if x.requires_grad:
                _accum(x, (d_y @ w.T).reshape(x.shape))

    return Tensor(value, parents, _bw), s


def ffn(x, w1, b1, w2, b2) -> Tensor:
    """The position-wise feed-forward block relu(x @ w1 + b1) @ w2 + b2, as
    one node over the last axis of x."""
    x, w1, b1, w2, b2 = (_coerce(t) for t in (x, w1, b1, w2, b2))
    if x.ndim < 2 or w1.ndim != 2 or w2.ndim != 2 or x.shape[-1] != w1.shape[0] \
            or b1.shape != (w1.shape[1],) or w2.shape[0] != w1.shape[1] \
            or b2.shape != (w2.shape[1],):
        raise ShapeError(f"ffn: x {x.shape}, w1 {w1.shape}, b1 {b1.shape}, w2 {w2.shape} "
                         f"and b2 {b2.shape} do not chain")
    d_in, width = w1.shape
    hidden = x.data @ w1.data
    hidden += b1.data
    np.maximum(hidden, 0.0, out=hidden)
    value = hidden @ w2.data
    value += b2.data
    parents = (x, w1, b1, w2, b2)
    if not _records(parents):
        return Tensor(value, parents)

    def _bw(g):
        g_rows = g.reshape(-1, w2.shape[1])
        h_rows = hidden.reshape(-1, width)
        _accum(b2, g_rows.sum(axis=0))
        _accum(w2, h_rows.T @ g_rows)
        d_h = g_rows @ w2.data.T
        d_h *= h_rows > 0.0
        _accum(b1, d_h.sum(axis=0))
        _accum(w1, x.data.reshape(-1, d_in).T @ d_h)
        if x.requires_grad:
            _accum(x, (d_h @ w1.data.T).reshape(x.shape))

    return Tensor(value, parents, _bw)


def add_layer_norm(x, y, gain, bias, eps: float = 1e-5) -> Tensor:
    """A residual connection and its layer norm as one node: x + y normalized
    to zero mean and unit variance over the last axis, then gain and bias."""
    x, y, gain, bias = (_coerce(t) for t in (x, y, gain, bias))
    d = x.shape[-1]
    if y.shape != x.shape or gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"add_layer_norm: x {x.shape} needs y of the same shape and "
                         f"gain/bias ({d},); got {y.shape}, {gain.shape} and {bias.shape}")
    xhat = x.data + y.data
    xhat -= xhat.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    value = xhat * gain.data
    value += bias.data
    parents = (x, y, gain, bias)
    if not _records(parents):
        return Tensor(value, parents)

    def _bw(g):
        _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        _accum(bias, g.reshape(-1, d).sum(axis=0))
        d_sum = g * gain.data
        m1 = d_sum.mean(axis=-1, keepdims=True)
        m2 = (d_sum * xhat).mean(axis=-1, keepdims=True)
        d_sum -= m1
        d_sum -= xhat * m2
        d_sum *= inv
        _accum(x, d_sum)
        _accum(y, d_sum)

    return Tensor(value, parents, _bw)


# ---------------------------------------------------------------------------
# persistence


def save_checkpoint(path, params: Iterable[Parameter], config: dict | None = None) -> None:
    """Write parameters as JSON {name: {shape, dtype, data}}, config under
    "config".

    Floats are serialized with repr (shortest round-trip decimal) of their
    float64 value, which a float32 value converts to exactly, so reading the
    file back in the stored dtype reproduces every value bit-exactly.
    """
    doc: dict = {}
    for p in params:
        if p.name == "config":
            raise ContractViolation('parameter name "config" is reserved')
        if p.name in doc:
            raise ContractViolation(f"duplicate parameter name {p.name!r}")
        doc[p.name] = {"shape": list(p.shape), "dtype": p.data.dtype.name,
                       "data": p.data.reshape(-1).tolist()}
    if config is not None:
        doc["config"] = config
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_checkpoint(path) -> tuple[dict[str, Parameter], dict | None]:
    """Parameters in their stored dtype (float64 where a file names none, as
    files written before the dtype was stored), and the config blob."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    config = doc.pop("config", None)
    params = {}
    for name, entry in doc.items():
        data = np.array(entry["data"], dtype=entry.get("dtype", "float64")).reshape(entry["shape"])
        params[name] = Parameter(name, data)
    return params, config
