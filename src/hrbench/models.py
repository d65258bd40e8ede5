"""Strictly causal encoders over a fixed context window, plus task heads.

Both encoders consume normalized contexts shaped (T,), (B, T), (T, D) or
(B, T, D) and return the final hidden state (B, hidden). Contexts are data,
not parameters: gradients flow only into the model weights. The models
compute in the dtype of their parameters, DTYPE when built here: each
encoder, the heads and the losses cast the data they read to it, and
`model_predictions` hands back float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ContractViolation, ShapeError

ModelParams = dict[str, Parameter]

# the precision of the models: parameters, activations, gradients, AdamW
# moments and training losses. Everything outside them stays float64.
DTYPE = np.float32


@dataclass(frozen=True)
class GrudConfig:
    input_dim: int = 1
    hidden_dim: int = 64
    train_mean: tuple[float, ...] = (0.0,)  # normalized units, one per feature

    def __post_init__(self):
        if self.hidden_dim <= 0:
            raise ValueError("hidden_dim must be positive")
        if len(self.train_mean) != self.input_dim:
            raise ValueError(
                f"train_mean needs {self.input_dim} entries, got {len(self.train_mean)}"
            )


@dataclass(frozen=True)
class TransformerConfig:
    d_model: int = 64
    layers: int = 2
    heads: int = 4
    ffn_dim: int = 256

    def __post_init__(self):
        if self.d_model <= 0 or self.layers < 1:
            raise ValueError("d_model and layers must be positive")
        if self.heads <= 0 or self.d_model % self.heads != 0:
            raise ValueError("heads must be positive and divide d_model")
        if self.ffn_dim <= 0:
            raise ValueError("ffn_dim must be positive")


@dataclass(frozen=True, eq=False)
class HeadOutputs:
    """Per-window head outputs, each a Tensor of shape (B,)."""

    cls_logit: Tensor
    delta_mu: Tensor
    sigma_n: Tensor  # softplus floor keeps this >= 1e-4
    mu_tilde: Tensor  # last context sample plus delta_mu


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(DTYPE)


def init_grud_params(config: GrudConfig, rng: np.random.Generator) -> ModelParams:
    d, h = config.input_dim, config.hidden_dim
    spec = {
        "grud.decay_x.w": ((d, d), d),
        "grud.decay_h.w": ((d, h), d),
        "grud.proj.w": ((2 * d, h), 2 * d),
        "grud.gru.w_ih": ((h, 3 * h), h),
        "grud.gru.w_hh": ((h, 3 * h), h),
    }
    params = {name: Parameter(name, _uniform(rng, shape, fan)) for name, (shape, fan) in spec.items()}
    for name, size in (("grud.proj.b", h), ("grud.gru.b_ih", 3 * h), ("grud.gru.b_hh", 3 * h)):
        params[name] = Parameter(name, np.zeros(size, DTYPE))
    return params


def _normalize_context(context, input_dim, dtype) -> np.ndarray:
    x = np.asarray(context, dtype=dtype)
    if x.ndim == 1:
        x = x[None, :, None]
    elif x.ndim == 2:
        # ambiguous for input_dim == 1: favor the (B, T) batch layout
        x = x[:, :, None] if input_dim == 1 else x[None, :, :]
    if x.ndim != 3 or x.shape[-1] != input_dim:
        raise ShapeError(f"context of shape {np.shape(context)} for input_dim={input_dim}")
    return x


def grud_forward(
    config: GrudConfig,
    params: ModelParams,
    context,
    mask=None,
    delta=None,
) -> Tensor:
    """Run the decayed GRU over the context, returning h_T of shape (B, hidden).

    Missing features (mask 0) are imputed by decaying the stored value toward
    the training mean; the previous hidden state is decayed by the elapsed
    time since the last observation. With mask all-ones and delta all-zeros
    both decays are exactly 1 and the cell is a plain GRU over the projected
    inputs. Everything but the gate recurrence is computed for all timesteps
    at once; the recurrence is one `autodiff.gru_scan` node.
    """
    dtype = params["grud.proj.w"].data.dtype
    x = _normalize_context(context, config.input_dim, dtype)

    def time_major(a):
        """(B, T, ·) to (T, B, ·), the layout of the recurrence."""
        return np.broadcast_to(np.asarray(a, dtype=dtype).reshape(x.shape),
                               x.shape).transpose(1, 0, 2)

    mask = time_major(np.ones_like(x) if mask is None else mask)
    delta = time_major(np.zeros_like(x) if delta is None else delta)
    if np.any(delta < 0):
        raise ContractViolation("delta must be elementwise >= 0")
    x = x.transpose(1, 0, 2)
    xbar = np.broadcast_to(np.asarray(config.train_mean, dtype=dtype), x.shape)
    w_gx, w_gh = params["grud.decay_x.w"], params["grud.decay_h.w"]
    w_z, b_z = params["grud.proj.w"], params["grud.proj.b"]
    w_ih, b_ih = params["grud.gru.w_ih"], params["grud.gru.b_ih"]

    # the input side of every timestep at once
    gamma_x = ad.exp(ad.neg(ad.relu(ad.matmul(Tensor(delta), w_gx))))
    gamma_h = ad.exp(ad.neg(ad.relu(ad.matmul(Tensor(delta), w_gh))))
    decayed = gamma_x * Tensor(x) + (1.0 - gamma_x) * Tensor(xbar)
    x_hat = Tensor(mask * x) + Tensor(1.0 - mask) * decayed
    z = ad.tanh(ad.concat([x_hat, Tensor(mask)], axis=-1) @ w_z + b_z)
    gates_i = z @ w_ih + b_ih
    return ad.gru_scan(gates_i, gamma_h, params["grud.gru.w_hh"], params["grud.gru.b_hh"])


def sinusoidal_positions(length: int, d_model: int) -> np.ndarray:
    """Standard sin/cos position table: even dims sine, odd dims cosine."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    dim = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * np.floor(dim / 2.0)) / d_model)
    table = np.where(dim % 2 == 0, np.sin(angle), np.cos(angle))
    return table


def init_transformer_params(config: TransformerConfig, rng: np.random.Generator) -> ModelParams:
    d, f = config.d_model, config.ffn_dim
    params: ModelParams = {
        "tf.embed.w": Parameter("tf.embed.w", _uniform(rng, (1, d), 1))
    }
    for layer in range(config.layers):
        p = f"tf.layer{layer}"
        for name in ("q", "k", "v", "out"):
            params[f"{p}.attn.{name}_w"] = Parameter(
                f"{p}.attn.{name}_w", _uniform(rng, (d, d), d)
            )
            if name == "k":
                # a shared key offset adds the same value to every score in a
                # softmax row and cancels, so the key projection has no bias
                continue
            params[f"{p}.attn.{name}_b"] = Parameter(f"{p}.attn.{name}_b", np.zeros(d, DTYPE))
        params[f"{p}.ffn.w1"] = Parameter(f"{p}.ffn.w1", _uniform(rng, (d, f), d))
        params[f"{p}.ffn.b1"] = Parameter(f"{p}.ffn.b1", np.zeros(f, DTYPE))
        params[f"{p}.ffn.w2"] = Parameter(f"{p}.ffn.w2", _uniform(rng, (f, d), f))
        params[f"{p}.ffn.b2"] = Parameter(f"{p}.ffn.b2", np.zeros(d, DTYPE))
        for norm in ("norm1", "norm2"):
            params[f"{p}.{norm}.g"] = Parameter(f"{p}.{norm}.g", np.ones(d, DTYPE))
            params[f"{p}.{norm}.b"] = Parameter(f"{p}.{norm}.b", np.zeros(d, DTYPE))
    return params


def transformer_forward(config: TransformerConfig, params: ModelParams, context) -> Tensor:
    """Self-attention encoder with last-token pooling; h_T has shape (B, d_model).

    Every context sample precedes the prediction time, so full attention over
    the window is causal with respect to the targets. A layer is three kinds
    of autodiff node, each with its own backward: `attention`, `ffn`, and
    `add_layer_norm` for each residual connection. Pooling reads only the
    last position, so the final layer passes that row alone as the
    attention's queries: it computes keys and values for every position but
    everything else (queries, attention, out-projection, residual, layer
    norms, FFN) for the last row only.
    """
    dtype = params["tf.embed.w"].data.dtype
    x = _normalize_context(context, 1, dtype)
    batch, steps, _ = x.shape
    d = config.d_model
    pos = sinusoidal_positions(steps, d)
    hidden = ad.matmul(Tensor(x), params["tf.embed.w"]) + Tensor(
        np.broadcast_to(pos, (batch, steps, d)).astype(dtype)
    )

    for layer in range(config.layers):
        p = f"tf.layer{layer}"
        # the rows this layer's output keeps: all of them, or the pooled one
        rows = hidden[:, -1:, :] if layer == config.layers - 1 else hidden
        # the output alone: the probabilities, a layer's largest array, are
        # then freed at once when no tape keeps them
        mha = ad.attention(
            rows, hidden,
            *(params[f"{p}.attn.{name}"] for name in ("q_w", "q_b", "k_w", "v_w", "v_b",
                                                      "out_w", "out_b")),
            heads=config.heads,
        )[0]
        hidden = ad.add_layer_norm(rows, mha, params[f"{p}.norm1.g"], params[f"{p}.norm1.b"])
        ffn = ad.ffn(hidden, *(params[f"{p}.ffn.{name}"] for name in ("w1", "b1", "w2", "b2")))
        hidden = ad.add_layer_norm(hidden, ffn, params[f"{p}.norm2.g"], params[f"{p}.norm2.b"])

    return hidden[:, -1, :]


SIGMA_FLOOR = 1e-4


def init_head_params(hidden_dim: int, rng: np.random.Generator) -> ModelParams:
    # heads start at zero so the initial predictions are the neutral ones the
    # parameterization intends (logit 0, residual 0 = persistence, prior
    # scale); a random head offset would swamp small residual targets at the
    # short matched budget
    params: ModelParams = {}
    for name in ("cls", "mu", "sigma"):
        params[f"head.{name}.w"] = Parameter(f"head.{name}.w", np.zeros((hidden_dim, 1), DTYPE))
        params[f"head.{name}.b"] = Parameter(f"head.{name}.b", np.zeros(1, DTYPE))
    return params


def build_params(model_kind: str, encoder_config, seed: int) -> ModelParams:
    """The initial encoder and head parameters of a `model_kind` model."""
    rng = np.random.default_rng(seed)
    if model_kind == "grud":
        params = init_grud_params(encoder_config, rng)
        head_dim = encoder_config.hidden_dim
    elif model_kind == "transformer":
        params = init_transformer_params(encoder_config, rng)
        head_dim = encoder_config.d_model
    else:
        raise ValueError(f"unknown model kind {model_kind!r}")
    params.update(init_head_params(head_dim, rng))
    return params


def heads_forward(hidden: Tensor, params: ModelParams, x_last_norm) -> HeadOutputs:
    """Linear task heads on the final hidden state.

    The scale head output is passed through softplus and floored at 1e-4; the
    forecast mean is the last (normalized) context sample plus the predicted
    residual.
    """
    batch = hidden.shape[0]

    def _affine(name):
        out = hidden @ params[f"head.{name}.w"] + params[f"head.{name}.b"]
        return ad.reshape(out, (batch,))

    cls_logit = _affine("cls")
    delta_mu = _affine("mu")
    sigma_n = ad.softplus(_affine("sigma")) + SIGMA_FLOOR
    x_last = np.broadcast_to(np.asarray(x_last_norm, dtype=hidden.data.dtype), (batch,))
    mu_tilde = Tensor(x_last.copy()) + delta_mu
    return HeadOutputs(cls_logit=cls_logit, delta_mu=delta_mu, sigma_n=sigma_n, mu_tilde=mu_tilde)


# ---------------------------------------------------------------------------
# non-learned baselines


def always_negative_probs(n: int) -> np.ndarray:
    """Constant-zero risk probabilities (AUROC 0.5, AUPRC/Brier = prevalence)."""
    return np.zeros(n)


def persistence_forecast(contexts_bpm: np.ndarray, sigma_bpm: float) -> tuple[np.ndarray, np.ndarray]:
    """Next = last. The Gaussian scale is supplied by the caller (train-split
    std of one-step residuals), floored to keep CRPS defined."""
    contexts_bpm = np.atleast_2d(np.asarray(contexts_bpm, dtype=np.float64))
    mu = contexts_bpm[:, -1].copy()
    sigma = np.full(len(mu), max(float(sigma_bpm), 1e-9))
    return mu, sigma


# ---------------------------------------------------------------------------
# batched inference used by evaluation

PREDICT_BATCH = 256


def encoder_forward(model_kind: str, config, params: ModelParams, contexts_norm) -> Tensor:
    if model_kind == "grud":
        return grud_forward(config, params, contexts_norm)
    if model_kind == "transformer":
        return transformer_forward(config, params, contexts_norm)
    raise ValueError(f"unknown model kind {model_kind!r}")


def model_predictions(
    model_kind: str,
    config,
    params: ModelParams,
    contexts_norm: np.ndarray,
    x_last_norm: np.ndarray,
) -> dict[str, np.ndarray]:
    """Forward a whole split in chunks of PREDICT_BATCH windows, recording no
    graph; returns plain float64 numpy head outputs."""
    outs = {"cls_logit": [], "delta_mu": [], "sigma_n": [], "mu_tilde": []}
    n = len(contexts_norm)
    for start in range(0, n, PREDICT_BATCH):
        stop = min(start + PREDICT_BATCH, n)
        with ad.no_grad():
            hidden = encoder_forward(model_kind, config, params, contexts_norm[start:stop])
            heads = heads_forward(hidden, params, x_last_norm[start:stop])
        outs["cls_logit"].append(heads.cls_logit.data)
        outs["delta_mu"].append(heads.delta_mu.data)
        outs["sigma_n"].append(heads.sigma_n.data)
        outs["mu_tilde"].append(heads.mu_tilde.data)
    return {k: (np.concatenate(v, dtype=np.float64) if v else np.empty(0))
            for k, v in outs.items()}
