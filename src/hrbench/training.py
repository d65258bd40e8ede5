"""Losses, AdamW, and the seeded training loop for both tasks."""

from __future__ import annotations

import ctypes
import math
import platform
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import models
from .autodiff import Parameter, Tensor
from .errors import TrainingDiverged
from .ingest import SplitData, WindowedDataset

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PREVALENCE_EPS = 1e-6


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 64
    epochs: int = 6
    seeds: tuple[int, ...] = (0, 1, 2)
    weight_decay: float = 0.01
    target_mode: str = "residual"  # or "absolute"

    def __post_init__(self):
        if self.lr <= 0 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("lr, epochs and batch_size must be positive")
        if self.target_mode not in ("residual", "absolute"):
            raise ValueError(f"unknown target_mode {self.target_mode!r}")
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError(f"seeds must be a non-empty list of values >= 0, got {self.seeds}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds repeats a value: {self.seeds}")


@dataclass
class AdamWState:
    """First/second moments per parameter plus the shared step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def weighted_bce(logits: Tensor, labels: np.ndarray, alpha: float) -> Tensor:
    """Mean class-weighted binary cross-entropy from logits.

    Uses log sigma(s) = -softplus(-s), so it stays finite for any logit
    magnitude the logits' dtype can represent. Labels are cast to that dtype.
    """
    y = np.asarray(labels, dtype=logits.data.dtype)
    pos = Tensor(alpha * y) * ad.softplus(ad.neg(logits))
    neg = Tensor(1.0 - y) * ad.softplus(logits)
    return ad.mean(pos + neg)


def gaussian_nll(mu_tilde: Tensor, sigma_n: Tensor, targets: np.ndarray) -> Tensor:
    """(1/2N) sum((y - mu)/sigma)^2 + (1/N) sum(log sigma), no constant term;
    targets are cast to the dtype of mu."""
    resid = Tensor(np.asarray(targets, dtype=mu_tilde.data.dtype)) - mu_tilde
    z = resid / sigma_n
    return ad.mean(z * z) * 0.5 + ad.mean(ad.log(sigma_n))


def class_weight(labels: np.ndarray) -> float:
    """alpha = (1 - p) / max(p, PREVALENCE_EPS) from train prevalence p."""
    p = float(np.asarray(labels, dtype=np.float64).mean())
    return (1.0 - p) / max(p, PREVALENCE_EPS)


def adamw_step(
    params: list[Parameter],
    state: AdamWState,
    lr: float,
    weight_decay: float,
) -> None:
    """Bias-corrected Adam update with decoupled weight decay, in place,
    with beta1, beta2 and eps the ADAM_* constants:

        m = beta1 * m + (1 - beta1) * g;  v = beta2 * v + (1 - beta2) * g * g
        p -= lr * ((m / bc1) / (sqrt(v / bc2) + eps) + weight_decay * p)

    Each ufunc runs in that order into two scratch arrays per parameter,
    so the result is the expression's, bit for bit, without its eleven
    temporaries. The scratch arrays live for one update: held between
    steps they would add to the training peak, which a step's freed graph
    leaves room for here.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for p in params:
        g = p.grad
        if p.name not in state.m:
            state.m[p.name], state.v[p.name] = np.zeros_like(p.data), np.zeros_like(p.data)
        m, v = state.m[p.name], state.v[p.name]
        update, work = np.empty_like(p.data), np.empty_like(p.data)
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=update)
        v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, g, out=work)
        v += np.multiply(work, g, out=work)
        np.divide(m, bc1, out=update)
        np.divide(v, bc2, out=work)
        np.sqrt(work, out=work)
        work += ADAM_EPS
        update /= work
        update += np.multiply(weight_decay, p.data, out=work)
        update *= lr
        p.data -= update


# glibc's mallopt parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# a 64-window default Transformer step's largest arrays (its attention
# probabilities and FFN activations) are about 4 MB in float32, so they come
# from the heap. Where a live block sits below the top of the heap, all the
# memory a step frees can end up free at the top: 16 to 24 MiB for that step
# (12 to 16 MiB for a GRU-D step), which a lower threshold trims off after
# every step. With these settings a default Transformer step, after three
# warm-up steps, faults in 0.1 pages on average (200 steps, one OpenBLAS
# thread, 2-vCPU Xeon)
MMAP_THRESHOLD = 8 << 20
TRIM_THRESHOLD = 128 << 20


def hold_freed_memory() -> None:
    """Keep the memory a training step frees for the next step.

    With glibc's default thresholds a freed multi-megabyte array goes back to
    the OS (unmapped, or trimmed off the top of the heap), and the next step
    faults the same pages in again. Arrays below MMAP_THRESHOLD come from the
    heap instead, and up to TRIM_THRESHOLD of free memory stays at its top.
    The setting is process-wide. Elsewhere than on glibc this does nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def epoch_batches(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffled index batches covering every example exactly once."""
    perm = rng.permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]


@dataclass(frozen=True, eq=False)
class TrainedRun:
    params: models.ModelParams
    history: list[dict]  # one row per epoch: train/val losses


def _inverse_softplus(y: float) -> float:
    return y + math.log1p(-math.exp(-y))


def _seed_scale_head(params, train: SplitData, target_mode: str) -> None:
    """Start the scale head at the train-split error scale of the initial
    (zero-residual) prediction, so the likelihood does not spend the whole
    short budget shrinking sigma before the mean head sees useful gradients."""
    initial_error = train.residuals if target_mode == "residual" else train.fc_targets_norm
    scale = float(np.sqrt(np.mean(initial_error**2)))
    params["head.sigma.b"].data[:] = _inverse_softplus(max(scale, 1e-3))


def _batch_loss(task, model_kind, config, params, split: SplitData, idx,
                alpha, target_mode) -> Tensor:
    contexts = split.contexts_norm[idx]
    hidden = models.encoder_forward(model_kind, config, params, contexts)
    heads = models.heads_forward(hidden, params, split.last_context_norm[idx])
    if task == "classification":
        return weighted_bce(heads.cls_logit, split.cls_labels[idx], alpha)
    mu = heads.mu_tilde if target_mode == "residual" else heads.delta_mu
    return gaussian_nll(mu, heads.sigma_n, split.fc_targets_norm[idx])


def train_model(
    task: str,
    model_kind: str,
    dataset: WindowedDataset,
    config: TrainConfig,
    seed: int,
    encoder_config,
) -> TrainedRun:
    """Train one (task, model, seed) run; deterministic given the seed.

    `encoder_config` is the GrudConfig or TransformerConfig of `model_kind`.
    Batches are reshuffled across records each epoch; the final-epoch weights
    are returned without any validation-based selection. On glibc it first
    sets the process's allocator thresholds (`hold_freed_memory`).
    """
    if task not in ("classification", "forecasting"):
        raise ValueError(f"unknown task {task!r}")
    train = dataset.split("train")
    val = dataset.split("val")
    if not len(train):
        raise TrainingDiverged("empty training split")

    hold_freed_memory()
    params = models.build_params(model_kind, encoder_config, seed)
    if task == "forecasting":
        _seed_scale_head(params, train, config.target_mode)
    param_list = list(params.values())
    state = AdamWState()
    rng = np.random.default_rng(seed)
    alpha = class_weight(train.cls_labels) if task == "classification" else None

    history = []
    step = 0
    for epoch in range(1, config.epochs + 1):
        batch_losses = []
        for idx in epoch_batches(len(train), config.batch_size, rng):
            ad.zero_grads(param_list)
            loss = _batch_loss(task, model_kind, encoder_config, params, train, idx,
                               alpha, config.target_mode)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingDiverged(f"non-finite loss at step {step}")
            ad.backward(loss)
            # free this step's graph before the next forward builds another
            del loss
            adamw_step(param_list, state, config.lr, config.weight_decay)
            batch_losses.append(value)
            step += 1
        val_loss = float("nan")
        if len(val):
            with ad.no_grad():
                val_loss = _batch_loss(task, model_kind, encoder_config, params, val,
                                       np.arange(len(val)), alpha, config.target_mode).item()
        history.append(
            {"epoch": epoch, "train_loss": float(np.mean(batch_losses)), "val_loss": val_loss}
        )
    return TrainedRun(params=params, history=history)
