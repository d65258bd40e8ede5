"""Benchmark configuration: flat key = value sections in one INI file.

Every training-protocol hyperparameter has a key whose default is the
published protocol value (AdamW at 1e-3, batch 64, 6 epochs, seeds 0/1/2,
theta candidates 100/95/90/85, 1000 bootstrap draws, F-beta with beta 2).
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .errors import DataError
from .models import GrudConfig, TransformerConfig
from .synth import SyntheticSpec
from .training import TrainConfig


@dataclass(frozen=True)
class DataConfig:
    peaks_manifest: str = ""
    peaks_combined: str = ""
    exclude: tuple[str, ...] = ()
    dataset_dir: str = "out/dataset"
    synth_dir: str = "data/synthetic"


@dataclass(frozen=True)
class WindowConfig:
    context_seconds: int = 60
    horizon_seconds: int = 10
    theta_candidates: tuple[float, ...] = (100.0, 95.0, 90.0, 85.0)


@dataclass(frozen=True)
class SplitConfig:
    ratios: tuple[float, float, float] = (0.70, 0.15, 0.15)
    seed: int = 0


@dataclass(frozen=True)
class ModelsConfig:
    kinds: tuple[str, ...] = ("grud", "transformer")
    grud_hidden: int = 64
    d_model: int = 64
    layers: int = 2
    heads: int = 4
    ffn_dim: int = 256
    layer_norm: bool = True


@dataclass(frozen=True)
class CalibrationConfig:
    enabled: bool = True
    beta: float = 2.0


@dataclass(frozen=True)
class EvaluationConfig:
    bootstrap_draws: int = 1000
    bootstrap_seed: int = 1234
    ece_bins: int = 10


@dataclass(frozen=True)
class BenchConfig:
    data: DataConfig = field(default_factory=DataConfig)
    windows: WindowConfig = field(default_factory=WindowConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    models: ModelsConfig = field(default_factory=ModelsConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    hidden_sweep: tuple[int, ...] = ()
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    synth: SyntheticSpec = field(default_factory=SyntheticSpec)
    runs_dir: str = "out/runs"

    def __post_init__(self):
        # every encoder the grid names is built here, so that the encoder
        # configs' own checks fail when the config is made, not in training
        named = [("[models]", kind, None) for kind in self.models.kinds]
        named += [("[train] hidden_sweep", "grud", hidden) for hidden in self.hidden_sweep]
        for where, kind, hidden in named:
            try:
                self.encoder_config(kind, hidden)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None

    def encoder_config(self, model_kind: str, hidden: int | None = None):
        """The encoder config of a run of `model_kind`; `hidden`, if given,
        replaces the GRU-D hidden size (the capacity sweep)."""
        m = self.models
        if model_kind == "grud":
            return GrudConfig(hidden_dim=m.grud_hidden if hidden is None else hidden)
        if model_kind == "transformer":
            return TransformerConfig(
                d_model=m.d_model,
                layers=m.layers,
                heads=m.heads,
                ffn_dim=m.ffn_dim,
                max_len=self.windows.context_seconds,
                use_layer_norm=m.layer_norm,
            )
        raise ValueError(f"unknown model kind {model_kind!r}")


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _parse_value(raw: str, kind):
    raw = raw.strip()
    if kind is bool:
        if raw.lower() not in _BOOLEANS:
            raise ValueError(f"not a boolean (one of {', '.join(_BOOLEANS)})")
        return _BOOLEANS[raw.lower()]
    if kind in (int, float, str):
        return kind(raw)
    raise TypeError(f"unsupported config field type {kind}")


def _parse_tuple(raw: str, kind):
    items = [item.strip() for item in raw.split(",") if item.strip()]
    return tuple(kind(item) for item in items)


_TUPLE_KINDS = {
    "exclude": str,
    "theta_candidates": float,
    "ratios": float,
    "kinds": str,
    "seeds": int,
    "hidden_sweep": int,
}

# BenchConfig's own fields, kept under [train] in the INI file
_TRAIN_EXTRAS = ("hidden_sweep", "runs_dir")


def _parse_key(cls, key: str, raw: str):
    if key in _TUPLE_KINDS:
        return _parse_tuple(raw, _TUPLE_KINDS[key])
    return _parse_value(raw, type(getattr(cls(), key)))


def load_config(path) -> BenchConfig:
    """Parse an INI file; a malformed key or value raises DataError naming
    the file, section and key."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    known = {f.name for f in fields(BenchConfig) if f.default_factory is not MISSING}
    for name in parser.sections():
        if name not in known:
            raise DataError(f"{path}: unknown section [{name}]")
    top: dict = {}
    for section in fields(BenchConfig):
        # each BenchConfig field built by a factory is the section of its name
        cls = section.default_factory
        if cls is MISSING:
            continue
        names = {f.name for f in fields(cls)}
        values = {}
        for key, raw in parser.items(section.name) if parser.has_section(section.name) else ():
            owner = BenchConfig if section.name == "train" and key in _TRAIN_EXTRAS else cls
            if owner is cls and key not in names:
                raise DataError(f"{path}: unknown key {key!r} in section [{section.name}]")
            try:
                parsed = _parse_key(owner, key, raw)
            except ValueError as exc:
                raise DataError(f"{path}: [{section.name}] {key} = {raw.strip()!r}: {exc}") from None
            (top if owner is BenchConfig else values)[key] = parsed
        try:
            top[section.name] = cls(**values)
        except ValueError as exc:
            raise DataError(f"{path}: [{section.name}]: {exc}") from None
    try:
        return BenchConfig(**top)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


DEFAULT_CONFIG_TEXT = """\
# Benchmark configuration. Every key shows its default; delete or edit freely.

[data]
# Either a manifest CSV (record_id,path to one peak-times file per record)
# or a single combined CSV (record_id,peak_time).
peaks_manifest =
peaks_combined =
exclude =
dataset_dir = out/dataset
# Where `bench synth` writes; `bench prepare` falls back to its manifest when
# no peak source is configured.
synth_dir = data/synthetic

[windows]
context_seconds = 60
horizon_seconds = 10
theta_candidates = 100,95,90,85

[split]
ratios = 0.70,0.15,0.15
seed = 0

[models]
kinds = grud,transformer
grud_hidden = 64
d_model = 64
layers = 2
heads = 4
ffn_dim = 256
layer_norm = true

[train]
lr = 0.001
batch_size = 64
epochs = 6
seeds = 0,1,2
weight_decay = 0.01
prevalence_eps = 1e-6
target_mode = residual
hidden_sweep =
runs_dir = out/runs

[calibration]
enabled = true
beta = 2.0

[evaluation]
bootstrap_draws = 1000
bootstrap_seed = 1234
ece_bins = 10

[synth]
n_records = 20
record_seconds = 1800
base_hr = 78.0
ar_coeff = 0.9
reversion = 0.9
noise_scale = 0.25
episode_rate_per_hour = 4.0
episode_duration_s = 110.0
episode_amplitude = 42.0
episode_ramp_s = 40.0
osc_amplitude = 10.0
osc_period_s = 100.0
seed = 7
"""


def write_default_config(path) -> None:
    Path(path).write_text(DEFAULT_CONFIG_TEXT, encoding="utf-8")
