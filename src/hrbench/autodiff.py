"""Reverse-mode differentiation on float64 numpy arrays.

Define-by-run: every operation eagerly computes its value and records the
backward rule on the produced node, so the graph is rebuilt on each forward
pass. Only the operations the two encoders and their losses need are
provided. Broadcasting is deliberately restricted to adding a last-axis bias
vector; all other elementwise operands must match shapes exactly, which turns
most wiring mistakes into immediate ShapeErrors instead of silent ones.
Inside `no_grad()` nothing is recorded, for inference.
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


class Tensor:
    """A node of the computation graph: value, gradient slot, backward rule.

    A node that needs no gradient keeps neither its parents nor its backward
    rule, so it holds no graph alive.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_rule", "__weakref__")

    def __init__(self, data, parents=(), backward=None, requires_grad=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        parents = tuple(parents)
        if requires_grad is None:
            requires_grad = _recording and any(p.requires_grad for p in parents)
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = parents if self.requires_grad else ()
        self._backward = backward

    @property
    def _backward(self) -> Callable[[Array], None] | None:
        return self._rule

    @_backward.setter
    def _backward(self, rule: Callable[[Array], None] | None) -> None:
        self._rule = rule if self.requires_grad else None

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

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

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
        out = Tensor(a.data + float(b), (a,))
        out._backward = lambda g: _accum(a, g)
        return out
    if isinstance(a, numbers.Real):
        return add(b, a)
    a, b = _coerce(a), _coerce(b)
    if a.shape == b.shape:
        out = Tensor(a.data + b.data, (a, b))

        def _bw(g):
            _accum(a, g)
            _accum(b, g)

    elif b.ndim == 1 and a.ndim >= 2 and a.shape[-1] == b.shape[0]:
        out = Tensor(a.data + b.data, (a, b))

        def _bw(g):
            _accum(a, g)
            _accum(b, _bias_grad(g, b.shape[0]))

    elif a.ndim == 1 and b.ndim >= 2 and b.shape[-1] == a.shape[0]:
        return add(b, a)
    else:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out._backward = _bw
    return out


def sub(a, b) -> Tensor:
    if isinstance(b, numbers.Real):
        return add(a, -float(b))
    return add(a, neg(_coerce(b)))


def neg(a) -> Tensor:
    a = _coerce(a)
    out = Tensor(-a.data, (a,))
    out._backward = lambda g: _accum(a, -g)
    return out


def mul(a, b) -> Tensor:
    if isinstance(b, numbers.Real):
        a = _coerce(a)
        s = float(b)
        out = Tensor(a.data * s, (a,))
        out._backward = lambda g: _accum(a, g * s)
        return out
    if isinstance(a, numbers.Real):
        return mul(b, a)
    a, b = _coerce(a), _coerce(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data * b.data, (a, b))

    def _bw(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    out._backward = _bw
    return out


def div(a, b) -> Tensor:
    if isinstance(b, numbers.Real):
        return mul(a, 1.0 / float(b))
    a, b = _coerce(a), _coerce(b)
    if a.shape != b.shape:
        raise ShapeError(f"div: incompatible shapes {a.shape} and {b.shape}")
    quotient = a.data / b.data
    out = Tensor(quotient, (a, b))

    # closures capture plain arrays, never the output tensor itself: a node
    # referencing itself would form a cycle and defer graph teardown to the gc
    def _bw(g):
        _accum(a, g / b.data)
        _accum(b, -g * quotient / b.data)

    out._backward = _bw
    return out


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims of {a.shape} and {b.shape} differ")
    if a.ndim == b.ndim:
        if a.shape[:-2] != b.shape[:-2]:
            raise ShapeError(f"matmul: stacked dims of {a.shape} and {b.shape} differ")
        out = Tensor(a.data @ b.data, (a, b))

        def _bw(g):
            _accum(a, g @ np.swapaxes(b.data, -1, -2))
            _accum(b, np.swapaxes(a.data, -1, -2) @ g)

    elif b.ndim == 2:
        # stacked left operand against one shared weight matrix
        out = Tensor(a.data @ b.data, (a, b))
        m, k = b.shape

        def _bw(g):
            _accum(a, g @ b.data.T)
            _accum(b, a.data.reshape(-1, m).T @ g.reshape(-1, k))

    else:
        raise ShapeError(f"matmul: unsupported shapes {a.shape} and {b.shape}")
    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def tanh(a) -> Tensor:
    a = _coerce(a)
    value = np.tanh(a.data)
    out = Tensor(value, (a,))
    out._backward = lambda g: _accum(a, g * (1.0 - value * value))
    return out


def sigmoid(a) -> Tensor:
    a = _coerce(a)
    # tanh form stays finite for any float64 input
    value = 0.5 * (1.0 + np.tanh(0.5 * a.data))
    out = Tensor(value, (a,))
    out._backward = lambda g: _accum(a, g * value * (1.0 - value))
    return out


def relu(a) -> Tensor:
    a = _coerce(a)
    out = Tensor(np.maximum(a.data, 0.0), (a,))
    out._backward = lambda g: _accum(a, g * (a.data > 0.0))
    return out


def exp(a) -> Tensor:
    a = _coerce(a)
    value = np.exp(a.data)
    out = Tensor(value, (a,))
    out._backward = lambda g: _accum(a, g * value)
    return out


def log(a) -> Tensor:
    a = _coerce(a)
    out = Tensor(np.log(a.data), (a,))
    out._backward = lambda g: _accum(a, g / a.data)
    return out


def softplus(a) -> Tensor:
    a = _coerce(a)
    # max(x, 0) + log1p(exp(-|x|)) never overflows
    out = Tensor(np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data))), (a,))
    out._backward = lambda g: _accum(a, g * 0.5 * (1.0 + np.tanh(0.5 * a.data)))
    return out


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = _coerce(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s, (a,))

    def _bw(g):
        _accum(a, (g - (g * s).sum(axis=-1, keepdims=True)) * s)

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# shape manipulation and reductions


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    ts = [_coerce(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of an empty sequence")
    out = Tensor(np.concatenate([t.data for t in ts], axis=axis), tuple(ts))
    sizes = [t.shape[axis] for t in ts]

    def _bw(g):
        offset = 0
        for t, size in zip(ts, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + size)
            _accum(t, g[tuple(idx)])
            offset += size

    out._backward = _bw
    return out


def take(a, key) -> Tensor:
    """Basic (non-fancy) indexing; the gradient scatters back into place."""
    a = _coerce(a)
    out = Tensor(np.array(a.data[key]), (a,))

    def _bw(g):
        buf = np.zeros_like(a.data)
        buf[key] = g
        _accum(a, buf)

    out._backward = _bw
    return out


def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    out = Tensor(a.data.reshape(shape), (a,))
    out._backward = lambda g: _accum(a, g.reshape(a.shape))
    return out


def transpose(a, axes=None) -> Tensor:
    a = _coerce(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    inverse = np.argsort(axes)
    out = Tensor(np.transpose(a.data, axes), (a,))
    out._backward = lambda g: _accum(a, np.transpose(g, inverse))
    return out


def mean(a) -> Tensor:
    a = _coerce(a)
    out = Tensor(a.data.mean(), (a,))
    n = a.data.size
    out._backward = lambda g: _accum(a, np.full(a.shape, float(g) / n))
    return out


def sum_(a) -> Tensor:
    a = _coerce(a)
    out = Tensor(a.data.sum(), (a,))
    out._backward = lambda g: _accum(a, np.full(a.shape, float(g)))
    return out


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias must be ({d},), got {gain.shape} and {bias.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data, (x, gain, bias))

    def _bw(g):
        _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        _accum(bias, g.reshape(-1, d).sum(axis=0))
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accum(x, inv * (dxhat - m1 - xhat * m2))

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# verification and persistence


def check_gradients(
    closure: Callable[[], Tensor],
    params: Sequence[Parameter],
    epsilon: float = 1e-4,
) -> float:
    """Compare backward() against central finite differences.

    The closure must rebuild the loss from the live parameter values on each
    call. Returns the worst relative error |a - n| / max(|a|, |n|, 1e-8)
    over every parameter coordinate.
    """
    zero_grads(params)
    loss = closure()
    backward(loss)
    analytic = {id(p): p.grad.copy() for p in params}

    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        aflat = analytic[id(p)].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            hi = closure().item()
            flat[i] = orig - epsilon
            lo = closure().item()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * epsilon)
            err = abs(aflat[i] - numeric) / max(abs(aflat[i]), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


def save_checkpoint(path, params: Iterable[Parameter], config: dict | None = None) -> None:
    """Write parameters as JSON {name: {shape, data}}, config under "config".

    Floats are serialized with repr (shortest round-trip decimal), so reading
    the file back reproduces every value bit-exactly.
    """
    doc: dict = {}
    for p in params:
        if p.name == "config":
            raise ContractViolation('parameter name "config" is reserved')
        if p.name in doc:
            raise ContractViolation(f"duplicate parameter name {p.name!r}")
        doc[p.name] = {"shape": list(p.shape), "data": p.data.reshape(-1).tolist()}
    if config is not None:
        doc["config"] = config
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_checkpoint(path) -> tuple[dict[str, Parameter], dict | None]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    config = doc.pop("config", None)
    params = {}
    for name, entry in doc.items():
        data = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
        params[name] = Parameter(name, data)
    return params, config
