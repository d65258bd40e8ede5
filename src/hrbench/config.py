"""Benchmark configuration: flat key = value sections in one INI file.

Every training-protocol hyperparameter has a key whose default is the
published protocol value (AdamW at 1e-3, batch 64, 6 epochs, seeds 0/1/2,
theta candidates 100/95/90/85, 1000 bootstrap draws, F-beta with beta 2).
The dataclasses below are the only declaration of a setting's name, default
and type: `load_config` parses a key by its field's annotation,
`render_config` writes the file `bench init-config` starts from, and
`override` applies a command-line flag.
"""

from __future__ import annotations

import configparser
import typing
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

from .errors import DataError
from .ingest import CONTEXT_LEN, HORIZON, SPLIT_RATIOS, THETA_CANDIDATES
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
    context_seconds: int = CONTEXT_LEN
    horizon_seconds: int = HORIZON
    theta_candidates: tuple[float, ...] = THETA_CANDIDATES

    def __post_init__(self):
        if self.context_seconds < 1 or self.horizon_seconds < 1:
            raise ValueError("context_seconds and horizon_seconds must be >= 1")
        if not self.theta_candidates or not all(t > 0 for t in self.theta_candidates):
            raise ValueError("theta_candidates must be a non-empty list of positive values")


@dataclass(frozen=True)
class SplitConfig:
    ratios: tuple[float, float, float] = SPLIT_RATIOS
    seed: int = 0

    def __post_init__(self):
        r = self.ratios
        if len(r) != 3 or not min(r) >= 0 or not abs(sum(r) - 1.0) <= 1e-9:
            raise ValueError(f"ratios must be 3 non-negative values (train, val, test) "
                             f"summing to 1, got {r}")


@dataclass(frozen=True)
class ModelsConfig:
    kinds: tuple[str, ...] = ("grud", "transformer")
    grud_hidden: int = GrudConfig.hidden_dim
    d_model: int = TransformerConfig.d_model
    layers: int = TransformerConfig.layers
    heads: int = TransformerConfig.heads
    ffn_dim: int = TransformerConfig.ffn_dim
    layer_norm: bool = TransformerConfig.use_layer_norm

    def __post_init__(self):
        if not self.kinds:
            raise ValueError("kinds must name at least one model")


@dataclass(frozen=True)
class CalibrationConfig:
    enabled: bool = True
    beta: float = 2.0

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")


@dataclass(frozen=True)
class EvaluationConfig:
    bootstrap_draws: int = 1000
    bootstrap_seed: int = 1234
    ece_bins: int = 10

    def __post_init__(self):
        if self.bootstrap_draws < 1 or self.ece_bins < 1:
            raise ValueError("bootstrap_draws and ece_bins must be >= 1")
        if self.bootstrap_seed < 0:
            raise ValueError(f"bootstrap_seed must be >= 0, got {self.bootstrap_seed}")


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

# BenchConfig's own fields, kept under [train] in the INI file
_TRAIN_EXTRAS = ("hidden_sweep", "runs_dir")


def _parse(raw: str, annotation):
    """The value of a setting annotated `annotation`, from its text."""
    raw = raw.strip()
    if typing.get_origin(annotation) is tuple:
        kind = typing.get_args(annotation)[0]
        return tuple(_parse(item, kind) for item in raw.split(",") if item.strip())
    if annotation is bool:
        if raw.lower() not in _BOOLEANS:
            raise ValueError(f"not a boolean (one of {', '.join(_BOOLEANS)})")
        return _BOOLEANS[raw.lower()]
    return annotation(raw)


def _sections() -> list[tuple[str, type]]:
    """(name, dataclass) of each INI section: the BenchConfig fields built
    by a factory, in field order."""
    return [(f.name, f.default_factory) for f in fields(BenchConfig)
            if f.default_factory is not MISSING]


def load_config(path) -> BenchConfig:
    """Parse an INI file; a malformed key or value raises DataError naming
    the file, section and key."""
    # no interpolation and no inline comments: a value is its text, `%`, `#`
    # and `;` included; `#` and `;` start a comment only at the start of a line
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise DataError(f"{path}: {' '.join(str(exc).split())}") from None
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    sections = dict(_sections())
    for name in parser.sections():
        if name not in sections:
            raise DataError(f"{path}: unknown section [{name}]")
    top: dict = {}
    for name, cls in sections.items():
        values = {}
        for key, raw in parser.items(name) if parser.has_section(name) else ():
            owner = BenchConfig if name == "train" and key in _TRAIN_EXTRAS else cls
            hints = typing.get_type_hints(owner)
            if owner is cls and key not in hints:
                raise DataError(f"{path}: unknown key {key!r} in section [{name}]")
            try:
                parsed = _parse(raw, hints[key])
            except ValueError as exc:
                raise DataError(f"{path}: [{name}] {key} = {raw.strip()!r}: {exc}") from None
            (top if owner is BenchConfig else values)[key] = parsed
        try:
            top[name] = cls(**values)
        except ValueError as exc:
            raise DataError(f"{path}: [{name}]: {exc}") from None
    try:
        return BenchConfig(**top)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def override(config, setting: str, raw: str):
    """`config` with one setting, a field of it or `section.key`, parsed from
    `raw`; the dataclass checks raise ValueError."""
    name, _, key = setting.partition(".")
    if key:
        return replace(config, **{name: override(getattr(config, name), key, raw)})
    return replace(config, **{name: _parse(raw, typing.get_type_hints(type(config))[name])})


def _text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(_text, value))
    return str(value).lower() if isinstance(value, bool) else str(value)


_DATA_COMMENT = [
    "# Either a manifest CSV (record_id,path to one peak-times file per record)",
    "# or a single combined CSV (record_id,peak_time). With neither,",
    "# `bench prepare` reads the manifest that `bench synth` writes to synth_dir.",
]


def render_config(config: BenchConfig) -> str:
    """The INI text of `config`, which `load_config` reads back as `config`."""
    lines = []
    for name, cls in _sections():
        section = getattr(config, name)
        values = [(f.name, getattr(section, f.name)) for f in fields(cls)]
        if name == "train":
            values += [(key, getattr(config, key)) for key in _TRAIN_EXTRAS]
        lines += ["", f"[{name}]", *(_DATA_COMMENT if name == "data" else [])]
        lines += [f"{key} = {_text(value)}".rstrip() for key, value in values]
    return "\n".join(lines) + "\n"


def write_default_config(path) -> None:
    header = "# Benchmark configuration. Every key shows its default; delete or edit freely.\n"
    Path(path).write_text(header + render_config(BenchConfig()), encoding="utf-8")
