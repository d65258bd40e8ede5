"""Op-by-op references that the package's fused nodes are tested against,
and the helpers only the tests use.

`softmax`, `layer_norm`, `transpose`, `sigmoid` and `sum_` are recorded
autodiff ops of their own, and `grud_forward_reference` and
`transformer_forward_reference` build each encoder from single ops: the forms
that `autodiff.gru_scan`, `autodiff.attention`, `autodiff.ffn` and
`autodiff.add_layer_norm` must agree with. `check_gradients` is the
finite-difference check of backward, and `float64` gives a model the
precision that these comparisons and their bounds are written for;
`mae_rmse` and `groups` serve the metric tests, and `adamw_step_reference`
is the AdamW update as one expression per moment, which the in-place
`training.adamw_step` must equal bit for bit. `save_prepared_reference`
and `load_prepared_reference` are the prepared-dataset codec through the
`csv` module and Python's `int` and `float`, one row at a time: the bytes
`ingest.save_prepared` must write and the columns `ingest.load_prepared`
must read. The package does not ship them.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from collections.abc import Callable, Mapping, Sequence
from pathlib import Path

import numpy as np

from hrbench import autodiff as ad
from hrbench import metrics as met
from hrbench import models
from hrbench.autodiff import Parameter, Tensor, _accum, _coerce
from hrbench.errors import DataError, ShapeError
from hrbench.ingest import HORIZON, StandardizationStats, WindowedDataset, Windows


def sigmoid(a) -> Tensor:
    a = _coerce(a)
    # tanh form stays finite for any float64 input
    value = 0.5 * (1.0 + np.tanh(0.5 * a.data))
    return Tensor(value, (a,), lambda g: _accum(a, g * value * (1.0 - value)))


def sum_(a) -> Tensor:
    a = _coerce(a)
    return Tensor(a.data.sum(), (a,), lambda g: _accum(a, np.full(a.shape, float(g))))


def float64(params: dict[str, Parameter]) -> dict[str, Parameter]:
    """The same model with float64 parameters (the package builds models in
    `models.DTYPE`): what the op-by-op references, the finite-difference
    checks and the float64 acceptance bounds run on."""
    return {name: Parameter(name, p.data.astype(np.float64)) for name, p in params.items()}


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
    ad.zero_grads(params)
    loss = closure()
    ad.backward(loss)
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


def mae_rmse(mu_bpm, targets_bpm, weights=None):
    err = np.asarray(mu_bpm, dtype=np.float64) - np.asarray(targets_bpm, dtype=np.float64)
    return met.weighted_mean(np.abs(err), weights), np.sqrt(met.weighted_mean(err**2, weights))


def groups(pred: met.PredictionSet) -> dict[str, np.ndarray]:
    """record_id -> the positions of its examples in `pred`."""
    out: dict[str, list[int]] = {}
    for i, r in enumerate(pred.record_ids):
        out.setdefault(r, []).append(i)
    return {r: np.array(ix, dtype=np.int64) for r, ix in out.items()}


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = _coerce(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    return Tensor(s, (a,), lambda g: _accum(a, (g - (g * s).sum(axis=-1, keepdims=True)) * s))


def transpose(a, axes=None) -> Tensor:
    a = _coerce(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    inverse = np.argsort(axes)
    return Tensor(np.transpose(a.data, axes), (a,), lambda g: _accum(a, np.transpose(g, inverse)))


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

    def _bw(g):
        _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        _accum(bias, g.reshape(-1, d).sum(axis=0))
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accum(x, inv * (dxhat - m1 - xhat * m2))

    return Tensor(xhat * gain.data + bias.data, (x, gain, bias), _bw)


def attention_reference(x_q, x_kv, w_q, b_q, w_k, w_v, b_v, w_out, b_out, heads):
    """Multi-head attention from single ops: `autodiff.attention`'s output
    and probabilities."""
    x_q, x_kv = _coerce(x_q), _coerce(x_kv)
    batch, rows, d = x_q.shape
    d_head = d // heads

    def split(proj, n):
        return transpose(ad.reshape(proj, (batch, n, heads, d_head)), (0, 2, 1, 3))

    q = split(x_q @ w_q + b_q, rows)
    k = split(x_kv @ w_k, x_kv.shape[1])
    v = split(x_kv @ w_v + b_v, x_kv.shape[1])
    attn = softmax((q @ transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(d_head)))
    mixed = ad.reshape(transpose(attn @ v, (0, 2, 1, 3)), (batch, rows, d))
    return mixed @ w_out + b_out, attn.data


def ffn_reference(x, w1, b1, w2, b2) -> Tensor:
    return ad.relu(x @ w1 + b1) @ w2 + b2


def add_layer_norm_reference(x, y, gain, bias) -> Tensor:
    return layer_norm(_coerce(x) + y, gain, bias)


def grud_forward_reference(config, params, context, mask=None, delta=None):
    """GRU-D as a recorded op per timestep (about 30 nodes a step): the
    op-by-op form `grud_forward` must agree with."""
    dtype = params["grud.proj.w"].data.dtype
    x = models._normalize_context(context, config.input_dim, dtype)
    batch, steps, d = x.shape
    h_dim = config.hidden_dim
    mask = np.ones_like(x) if mask is None else np.broadcast_to(np.asarray(mask, dtype), x.shape)
    delta = np.zeros_like(x) if delta is None else np.broadcast_to(
        np.asarray(delta, dtype), x.shape)
    xbar = np.broadcast_to(np.asarray(config.train_mean, dtype=dtype), (batch, d))
    w_gx, w_gh = params["grud.decay_x.w"], params["grud.decay_h.w"]
    w_z, b_z = params["grud.proj.w"], params["grud.proj.b"]
    w_ih, b_ih = params["grud.gru.w_ih"], params["grud.gru.b_ih"]
    w_hh, b_hh = params["grud.gru.w_hh"], params["grud.gru.b_hh"]
    h = Tensor(np.zeros((batch, h_dim), dtype))
    for t in range(steps):
        x_t, m_t, d_t = x[:, t, :], mask[:, t, :], delta[:, t, :]
        gamma_x = ad.exp(ad.neg(ad.relu(ad.matmul(Tensor(d_t), w_gx))))
        gamma_h = ad.exp(ad.neg(ad.relu(ad.matmul(Tensor(d_t), w_gh))))
        decayed = gamma_x * Tensor(x_t) + (1.0 - gamma_x) * Tensor(xbar)
        x_hat = Tensor(m_t * x_t) + Tensor(1.0 - m_t) * decayed
        z_t = ad.tanh(ad.concat([x_hat, Tensor(m_t)], axis=-1) @ w_z + b_z)
        h_prev = gamma_h * h
        gates_i = z_t @ w_ih + b_ih
        gates_h = h_prev @ w_hh + b_hh
        r = sigmoid(gates_i[:, :h_dim] + gates_h[:, :h_dim])
        u = sigmoid(gates_i[:, h_dim : 2 * h_dim] + gates_h[:, h_dim : 2 * h_dim])
        n = ad.tanh(gates_i[:, 2 * h_dim :] + r * gates_h[:, 2 * h_dim :])
        h = (1.0 - u) * n + u * h_prev
    return h


def transformer_forward_reference(config, params, context):
    """The Transformer from single ops with every layer computed for every
    position, pooled at the last one: what `transformer_forward` must agree
    with."""
    dtype = params["tf.embed.w"].data.dtype
    x = models._normalize_context(context, 1, dtype)
    batch, steps, _ = x.shape
    d = config.d_model
    pos = models.sinusoidal_positions(steps, d)
    hidden = ad.matmul(Tensor(x), params["tf.embed.w"]) + Tensor(
        np.broadcast_to(pos, (batch, steps, d)).astype(dtype))
    for layer in range(config.layers):
        p = f"tf.layer{layer}"
        mha, _ = attention_reference(
            hidden, hidden,
            *(params[f"{p}.attn.{name}"] for name in ("q_w", "q_b", "k_w", "v_w", "v_b",
                                                      "out_w", "out_b")),
            heads=config.heads)
        hidden = hidden + mha
        if config.use_layer_norm:
            hidden = layer_norm(hidden, params[f"{p}.norm1.g"], params[f"{p}.norm1.b"])
        hidden = hidden + ffn_reference(
            hidden, *(params[f"{p}.ffn.{name}"] for name in ("w1", "b1", "w2", "b2")))
        if config.use_layer_norm:
            hidden = layer_norm(hidden, params[f"{p}.norm2.g"], params[f"{p}.norm2.b"])
    return hidden[:, -1, :]


def adamw_step_reference(params, state, lr: float, weight_decay: float) -> None:
    """Bias-corrected Adam with decoupled weight decay, each update formed
    from temporaries: the expression `training.adamw_step` computes in
    place."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for p in params:
        g = p.grad
        m = state.m.setdefault(p.name, np.zeros_like(p.data))
        v = state.v.setdefault(p.name, np.zeros_like(p.data))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        p.data -= lr * (update + weight_decay * p.data)


def save_prepared_reference(
    out_dir,
    windows: Windows,
    stats: StandardizationStats,
    split: Mapping[str, str],
    theta: float,
    H: int = HORIZON,
) -> None:
    """`ingest.save_prepared` one `csv.writer` row at a time."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    T = windows.contexts_bpm.shape[1]
    with open(out / "windows.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["record_id", "start_index", "cls_label", "fc_target"]
            + [f"ctx_{i}" for i in range(T)]
        )
        for record_id, start, label, target, context in zip(
                windows.record_ids.tolist(), windows.start_indices.tolist(),
                windows.cls_labels.tolist(), windows.fc_targets_bpm.tolist(),
                windows.contexts_bpm):
            writer.writerow([record_id, start, label, repr(target),
                             *map(repr, context.tolist())])
    sidecar = {
        "mu": stats.mu,
        "sigma": stats.sigma,
        "theta": theta,
        "T": T,
        "H": H,
        "split": dict(sorted(split.items())),
    }
    with open(out / "dataset.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)


def load_prepared_reference(dataset_dir) -> WindowedDataset:
    """`ingest.load_prepared` one `csv.reader` row at a time, each number
    through Python's `int` or `float`."""
    base = Path(dataset_dir)
    meta = base / "dataset.json"
    try:
        with open(meta, encoding="utf-8") as fh:
            sidecar = json.load(fh)
        stats = StandardizationStats(mu=sidecar["mu"], sigma=sidecar["sigma"])
        T, theta, split = int(sidecar["T"]), float(sidecar["theta"]), sidecar["split"]
    except KeyError as exc:
        raise DataError(f"{meta}: no {exc} entry") from None
    except (ValueError, TypeError) as exc:
        raise DataError(f"{meta}: not a prepared dataset file: {exc}") from None
    path = base / "windows.csv"
    record_ids, starts, labels = [], [], []
    targets, contexts = array("d"), array("d")
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:4] != ["record_id", "start_index", "cls_label", "fc_target"]:
            raise DataError(f"{path}: not a prepared windows file (header {header[:4]})")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != 4 + T:
                raise DataError(f"{where}: expected {4 + T} fields, got {len(row)}")
            if row[0] not in split:
                raise DataError(f"{where}: record {row[0]!r} is not in the split of dataset.json")
            try:
                starts.append(int(row[1]))
                labels.append(int(row[2]))
                targets.append(float(row[3]))
                contexts.extend(map(float, row[4:]))
            except ValueError as exc:
                raise DataError(f"{where}: {exc}") from None
            record_ids.append(row[0])
    windows = Windows(
        record_ids=np.array(record_ids, dtype=str),
        start_indices=np.array(starts, dtype=np.int64),
        contexts_bpm=np.frombuffer(contexts).reshape(-1, T),
        cls_labels=np.array(labels, dtype=np.int64),
        fc_targets_bpm=np.frombuffer(targets),
    )
    return WindowedDataset(windows, split, stats, theta)
