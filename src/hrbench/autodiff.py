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

Every node runs on the calling thread, over the whole batch. A second core
trains another run of the grid in a process of its own
(`pipeline.run_train`), which pays no hand-off inside a step.

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
from .files import reading, writing

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


def _column_sums(rows: Array) -> Array:
    """The sum over the rows of a matrix, or of each matrix in a stack, as a
    matrix-vector product: numpy reduces axis 0 of a narrow array one row
    at a time."""
    return np.ones(rows.shape[-2], rows.dtype) @ rows


def _stack_matmul(a: Array, w: Array) -> Array:
    """A stack a (..., n, m) against one weight matrix w (m, k).

    numpy runs a stacked product as one GEMM per leading index. Slices of
    many rows are small GEMMs that OpenBLAS runs without packing, as fast
    as one large GEMM or faster. But a stack of single rows is one
    matrix-vector product per row, so it runs as one 2-d GEMM; and with an
    inner axis of one, numpy's matmul is slower than the broadcast
    product, which rounds the same.
    """
    if w.shape[0] == 1:
        return a * w
    if a.shape[-2] == 1:
        return (a.reshape(-1, a.shape[-1]) @ w).reshape(*a.shape[:-1], w.shape[-1])
    return a @ w


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
            _accum(b, _column_sums(g.reshape(-1, b.shape[0])))

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
                # one GEMM over all rows: per slice, the transposed weight
                # would be packed again
                _accum(a, (g.reshape(-1, k) @ b.data.T).reshape(a.shape))
            if b.requires_grad:
                _accum(b, a.data.reshape(-1, m).T @ g.reshape(-1, k))

        return Tensor(_stack_matmul(a.data, b.data), (a, b), _bw)
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
        n  = tanh(gates_i[t, 2H:] + r * g[2H:]);  h = n + u * (h' - n)

    Only the gate recurrence runs step by step: one (B, H) @ (H, 3H) product
    and elementwise ops on gate-major (B, H) blocks, which are contiguous.
    Each step first copies its input side gate-major, as (3, B, H), with
    the r and u halves of b_hh, and overwrites it with r, u and n. Backward
    keeps those of every step, h', the hidden side of the candidate gate
    and the state after each step. It forms every factor that does not depend on
    d(loss)/dh for all steps at once, walks back through time with six
    numpy calls a step, and forms dw_hh as one product over all steps.
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
    dtype = gi.dtype
    by_gate = gi.reshape(steps, batch, 3, h_dim).transpose(0, 2, 1, 3)
    bias = b.reshape(3, 1, h_dim).copy()
    bias[2] = 0.0  # the candidate's hidden bias sits inside r * g[2H:]
    # per-step states for the backward pass, or one step's working space
    saved = steps if record else 1
    act = np.empty((saved, 3, batch, h_dim), dtype)  # input side, then r, u, n
    h_prev = np.empty((saved, batch, h_dim), dtype)  # the decayed state h'
    g_n = np.empty((saved, batch, h_dim), dtype)  # hidden side of the candidate gate
    h_out = np.empty((saved, batch, h_dim), dtype)  # the state after each step
    g = np.empty((batch, 3, h_dim), dtype)
    g_ru = g[:, :2].transpose(1, 0, 2)
    rg_n = np.empty((batch, h_dim), dtype)
    b_n = b[2 * h_dim :]
    h = np.zeros((batch, h_dim), dtype)
    for t in range(steps):
        s = t if record else 0
        np.add(by_gate[t], bias, out=act[s])
        hp = np.multiply(gamma[t], h, out=h_prev[s])
        np.matmul(hp, w, out=g.reshape(batch, three_h))
        # r and u: sigmoid in its tanh form, 0.5 * (1 + tanh(x / 2)), finite for any x
        ru = np.add(act[s, :2], g_ru, out=act[s, :2])
        ru *= 0.5
        np.tanh(ru, out=ru)
        ru += 1.0
        ru *= 0.5
        r, u, n = act[s]
        np.add(g[:, 2], b_n, out=g_n[s])
        n += np.multiply(r, g_n[s], out=rg_n)
        np.tanh(n, out=n)
        h = np.subtract(hp, n, out=h_out[s])
        h *= u
        h += n
    if not record:
        return Tensor(h, parents)

    def _bw(dh):
        # dh is d(loss)/d(h after step t), walking t back from the last step.
        # d_n = dh * a_n and d_u = dh * a_u feed the candidate and update
        # gates, d_r = d_n * a_r the reset gate, and w_hh sees d_n * r in
        # place of d_n; d(loss)/dh' = (d_r, d_u, d_n * r) @ w_hh.T + dh * u
        r, u, n = act[:, 0], act[:, 1], act[:, 2]
        by_dh = np.empty((3, steps, batch, h_dim), dtype)  # a_u, a_n, u
        by_dn = np.empty((2, steps, batch, h_dim), dtype)  # r, a_r
        keep = np.subtract(1.0, u, out=by_dh[1])
        a_u = np.subtract(h_prev, n, out=by_dh[0])
        a_u *= u
        a_u *= keep
        sq = np.multiply(n, n, out=by_dh[2])
        keep *= np.subtract(1.0, sq, out=sq)  # a_n = (1 - u) * (1 - n^2)
        by_dh[2] = u
        by_dn[0] = r
        a_r = np.subtract(1.0, r, out=by_dn[1])
        a_r *= r
        a_r *= g_n
        # per step: d_n * r, d_r, d_u, d_n, dh * u; the first three meet w_hh
        d = np.empty((5, steps, batch, h_dim), dtype)
        w_t = np.ascontiguousarray(w.reshape(h_dim, 3, h_dim)[:, [2, 0, 1]].transpose(1, 2, 0))
        d_hps = np.empty((steps, batch, h_dim), dtype)  # d(loss)/dh' of every step
        prod = np.empty((3, batch, h_dim), dtype)
        for t in reversed(range(steps)):
            np.multiply(dh, by_dh[:, t], out=d[2:, t])
            np.multiply(d[3, t], by_dn[:, t], out=d[:2, t])
            d_hp = np.add.reduce(np.matmul(d[:3, t], w_t, out=prod), axis=0, out=d_hps[t])
            d_hp += d[4, t]
            dh = d_hp * gamma[t]
        del by_dh, by_dn
        d_w = np.matmul(h_prev.reshape(-1, h_dim).T, d[:3].reshape(3, -1, h_dim))
        _accum(w_hh, np.concatenate([d_w[1], d_w[2], d_w[0]], axis=1))
        d_b = _column_sums(d[:3].reshape(3, -1, h_dim))
        _accum(b_hh, d_b[[1, 2, 0]].reshape(three_h))
        _accum(gates_i, d[1:4].transpose(1, 2, 0, 3).reshape(steps, batch, three_h))
        if gamma_h.requires_grad:
            # h' = gamma * (the state after the step before), zero before step 0
            d_hps[0] = 0.0
            d_hps[1:] *= h_out[:-1]
            _accum(gamma_h, d_hps)

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
    The score scale is folded into the query weights and bias. The
    projections of one input are one product, and their biases are added to
    it in one pass; when x_q is x_kv that is all three. The head outputs,
    and each head's part of the projections' gradient, are written straight
    into the layout they end up in. Returns the output and the attention
    probabilities s, (B, heads, R, T). Backward keeps the projections, s
    and the head outputs, and forms the softmax gradient
    (g - rowsum(g * s)) * s once for all heads, its row sums in one pass.
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
    parents = (x_q, x_kv, w_q, b_q, w_k, w_v, b_v, w_out, b_out)
    record = _records(parents)
    dtype = np.result_type(*(t.data for t in parents))

    def by_head(a, n):
        """(n, m, d), or (n * m, d), to the (n, heads, m, d_head) view of its heads."""
        return a.reshape(n, -1, heads, d_head).transpose(0, 2, 1, 3)

    # each projection's weight, bias and the factor folded into both
    projections = {"q": (w_q, b_q, 1.0 / math.sqrt(d_head)), "k": (w_k, None, 1.0),
                   "v": (w_v, b_v, 1.0)}
    # each input, the projections it feeds, and their weights and biases
    # side by side
    sources = [(x_q, "qkv")] if x_q is x_kv else [(x_q, "q"), (x_kv, "kv")]
    groups = [(x, names,
               np.concatenate([projections[n][0].data * projections[n][2] for n in names],
                              axis=1),
               np.concatenate([np.zeros(d, dtype) if b is None else b.data * f
                               for b, f in (projections[n][1:] for n in names)]))
              for x, names in sources]
    proj = {}  # name -> (batch, heads, rows, d_head) view into its group's product
    for x, names, w, b in groups:
        y = _stack_matmul(x.data, w)
        y += b
        y = y.reshape(*y.shape[:2], len(names), d)
        for i, name in enumerate(names):
            proj[name] = by_head(y[:, :, i], batch)
    q, k, v = proj["q"], proj["k"], proj["v"]
    probs = np.matmul(q, np.swapaxes(k, -1, -2))
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    mixed = np.empty((batch, rows, d), dtype)
    np.matmul(probs, v, out=by_head(mixed, batch))
    value = _stack_matmul(mixed, w_out.data)
    value += b_out.data
    if not record:
        return Tensor(value, parents), probs

    def _bw(g):
        g_rows = g.reshape(-1, d)
        _accum(b_out, _column_sums(g_rows))
        _accum(w_out, mixed.reshape(-1, d).T @ g_rows)
        d_mixed = by_head(g_rows @ w_out.data.T, batch)
        # d(loss)/d(each group's product), filled head by head
        d_ys = [np.empty((batch, x.shape[1], len(names), d), dtype) for x, names, *_ in groups]
        d_proj = {name: by_head(d_y[:, :, i], batch)
                  for d_y, (_, names, *_) in zip(d_ys, groups)
                  for i, name in enumerate(names)}
        np.matmul(np.swapaxes(probs, -1, -2), d_mixed, out=d_proj["v"])
        d_s = d_mixed @ np.swapaxes(v, -1, -2)
        d_s -= np.einsum("...j,...j->...", d_s, probs)[..., None]
        d_s *= probs
        np.matmul(d_s, k, out=d_proj["q"])
        np.matmul(np.swapaxes(d_s, -1, -2), q, out=d_proj["k"])
        # the largest arrays of the step go before the input gradients are made
        del d_mixed, d_s
        for d_y, (x, names, w, _) in zip(d_ys, groups):
            d_y = d_y.reshape(-1, len(names) * d)
            d_w = x.data.reshape(-1, d).T @ d_y
            d_b = _column_sums(d_y)
            for i, name in enumerate(names):
                weight, bias, factor = projections[name]
                columns = slice(i * d, (i + 1) * d)
                _accum(weight, d_w[:, columns] * factor)
                if bias is not None:
                    _accum(bias, d_b[columns] * factor)
            if x.requires_grad:
                _accum(x, (d_y @ w.T).reshape(x.shape))

    return Tensor(value, parents, _bw), probs


def ffn(x, w1, b1, w2, b2) -> Tensor:
    """The position-wise feed-forward block relu(x @ w1 + b1) @ w2 + b2, as
    one node over the last axis of x. Each product, forward and backward, is
    one GEMM over all rows of the batch, and each bias gradient one
    matrix-vector product. Backward keeps the ReLU output, whose sign is the
    ReLU's mask."""
    x, w1, b1, w2, b2 = (_coerce(t) for t in (x, w1, b1, w2, b2))
    if x.ndim < 2 or w1.ndim != 2 or w2.ndim != 2 or x.shape[-1] != w1.shape[0] \
            or b1.shape != (w1.shape[1],) or w2.shape[0] != w1.shape[1] \
            or b2.shape != (w2.shape[1],):
        raise ShapeError(f"ffn: x {x.shape}, w1 {w1.shape}, b1 {b1.shape}, w2 {w2.shape} "
                         f"and b2 {b2.shape} do not chain")
    d_in, d_out = w1.shape[0], w2.shape[1]
    parents = (x, w1, b1, w2, b2)
    record = _records(parents)
    hidden = x.data.reshape(-1, d_in) @ w1.data
    hidden += b1.data
    np.maximum(hidden, 0.0, out=hidden)
    value = hidden @ w2.data
    value += b2.data
    value = value.reshape(*x.shape[:-1], d_out)
    if not record:
        return Tensor(value, parents)

    def _bw(g):
        g_rows = g.reshape(-1, d_out)
        _accum(b2, _column_sums(g_rows))
        _accum(w2, hidden.T @ g_rows)
        d_h = g_rows @ w2.data.T
        d_h *= hidden > 0.0
        _accum(b1, _column_sums(d_h))
        _accum(w1, x.data.reshape(-1, d_in).T @ d_h)
        if x.requires_grad:
            d_x = (d_h @ w1.data.T).reshape(x.shape)
            del d_h  # before _accum adds d_x to the gradient x holds
            _accum(x, d_x)

    return Tensor(value, parents, _bw)


def add_layer_norm(x, y, gain, bias, eps: float = 1e-5) -> Tensor:
    """A residual connection and its layer norm as one node: x + y normalized
    to zero mean and unit variance over the last axis, then gain and bias.

    The row means are einsum passes, which give a row the same bits
    whatever rows share its batch. Backward keeps the normalized rows and
    their inverse deviations; its column sums are matrix-vector products,
    and it forms rowsum(g * gain) as g @ gain and rowsum(g * gain * xhat)
    as (g * xhat) @ gain, from the product the gain's gradient needs anyway.
    """
    x, y, gain, bias = (_coerce(t) for t in (x, y, gain, bias))
    d = x.shape[-1]
    if x.ndim < 2 or y.shape != x.shape or gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"add_layer_norm: x {x.shape} needs a batch axis, y of the same "
                         f"shape and gain/bias ({d},); got {y.shape}, {gain.shape} and "
                         f"{bias.shape}")
    parents = (x, y, gain, bias)
    record = _records(parents)
    xhat = (x.data + y.data).reshape(-1, d)
    xhat -= (np.einsum("ij->i", xhat) / d)[:, None]
    inv = 1.0 / np.sqrt(np.einsum("ij,ij->i", xhat, xhat) / d + eps)[:, None]
    xhat *= inv
    value = xhat * gain.data
    value += bias.data
    value = value.reshape(x.shape)
    if not record:
        return Tensor(value, parents)

    def _bw(g):
        g_rows = g.reshape(-1, d)
        g_xhat = g_rows * xhat
        _accum(gain, _column_sums(g_xhat))
        _accum(bias, _column_sums(g_rows))
        m1 = g_rows @ gain.data / d
        m2 = g_xhat @ gain.data / d
        d_sum = g_rows * gain.data
        d_sum -= m1[:, None]
        d_sum -= np.multiply(xhat, m2[:, None], out=g_xhat)
        d_sum *= inv
        d_sum = d_sum.reshape(x.shape)
        _accum(x, d_sum)
        _accum(y, d_sum)

    return Tensor(value, parents, _bw)


# ---------------------------------------------------------------------------
# persistence


def save_checkpoint(path, params: Iterable[Parameter], config: dict | None = None) -> None:
    """Write parameters as JSON {name: {shape, dtype, data}}, config under
    "config".

    A float64 value is written as its repr, the shortest text that reads
    back to it. A float32 value is written with nine significant digits:
    that text is within 5e-9 (relative, about 2^-27.6) of the value,
    inside its half-ulp of at least 2^-25, so json.load's float64 cast to
    float32 is the value again. Negative zero is written -0.0 to keep its sign. So
    reading the file back in the stored dtype reproduces every value
    bit-exactly. JSON has no token for a non-finite value: a parameter
    holding one is a ContractViolation.
    """
    entries, names = [], set()
    for p in params:
        if p.name == "config":
            raise ContractViolation('parameter name "config" is reserved')
        if p.name in names:
            raise ContractViolation(f"duplicate parameter name {p.name!r}")
        names.add(p.name)
        flat = p.data.reshape(-1)
        if not np.isfinite(flat).all():
            raise ContractViolation(f"parameter {p.name!r} holds a non-finite value, "
                                    "which JSON cannot store")
        values = flat.tolist()
        if p.data.dtype == np.float32:
            # one %-format over all values: twice as fast as a format() per value
            text = ("%.9g, " * len(values) % tuple(values))[:-2]
            if np.any(np.signbit(flat) & (flat == 0)):
                text = ", ".join("-0.0" if v == "-0" else v for v in text.split(", "))
            data = f"[{text}]"
        else:
            data = json.dumps(values)
        head = json.dumps({"shape": list(p.shape), "dtype": p.data.dtype.name})
        entries.append(f'{json.dumps(p.name)}: {head[:-1]}, "data": {data}}}')
    if config is not None:
        entries.append(f'"config": {json.dumps(config)}')
    with writing(path) as fh:
        fh.write("{" + ", ".join(entries) + "}")


def load_checkpoint(path) -> tuple[dict[str, Parameter], dict | None]:
    """Parameters in their stored dtype, and the config blob (None if the
    file holds none). A readable file that is not a checkpoint is a
    ValueError, and no other error: the top level and its config must be
    JSON objects, and each other entry an object of a shape, a dtype,
    float32 or float64, and data that fill the shape with values finite in
    that dtype."""
    try:
        with reading(path) as fh:
            doc = json.load(fh)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("config", {}), dict):
        raise ValueError("not a JSON object of parameters and a config object")
    config = doc.pop("config", None)
    params = {}
    for name, entry in doc.items():
        try:
            if entry["dtype"] not in ("float32", "float64"):
                raise ValueError(f"dtype {entry['dtype']!r} is not float32 or float64")
            # an overflow in the cast itself raises: 3.40282347e+38 is above
            # float32's largest value in float64, yet casts to it exactly
            with np.errstate(over="raise"):
                data = np.array(entry["data"], dtype=entry["dtype"]).reshape(entry["shape"])
        except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(f"parameter {name!r}: {type(exc).__name__}: {exc}") from None
        if not np.isfinite(data).all():
            raise ValueError(f"parameter {name!r} holds a value that is not finite")
        params[name] = Parameter(name, data)
    return params, config
