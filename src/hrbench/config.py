"""Benchmark configuration: flat key = value sections in one INI file.

Every training-protocol hyperparameter has a key whose default is the
published protocol value (AdamW at 1e-3, batch 64, 6 epochs, seeds 0/1/2,
1000 bootstrap draws, F-beta with beta 2). The task and metric definitions
are constants, not keys, the same ones the benchmark's oracles restate: the
60 s context, 10 s horizon and theta candidates 100/95/90/85 of `ingest`,
and the `ECE_BINS` (10) of `metrics`.
The dataclasses below are the only declaration of a setting's name, default
and type: `load_config` parses a key by its field's annotation,
`render_config` writes the file `bench init-config` starts from, and
`override` applies a command-line flag.
"""

from __future__ import annotations

import configparser
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, replace

from .errors import DataError
from .files import reading, writing
from .ingest import SPLIT_RATIOS
from .models import GrudConfig, TransformerConfig
from .synth import SyntheticSpec
from .training import TrainConfig


@dataclass(frozen=True)
class DataConfig:
    peaks_manifest: str = ""
    exclude: tuple[str, ...] = ()
    dataset_dir: str = "out/dataset"
    synth_dir: str = "data/synthetic"


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

    def __post_init__(self):
        if not self.kinds:
            raise ValueError("kinds must name at least one model")
        if len(set(self.kinds)) < len(self.kinds):
            raise ValueError(f"kinds repeats a model: {self.kinds}")


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

    def __post_init__(self):
        if self.bootstrap_draws < 1:
            raise ValueError(f"bootstrap_draws must be >= 1, got {self.bootstrap_draws}")
        if self.bootstrap_seed < 0:
            raise ValueError(f"bootstrap_seed must be >= 0, got {self.bootstrap_seed}")


@dataclass(frozen=True)
class BenchConfig:
    data: DataConfig = field(default_factory=DataConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    models: ModelsConfig = field(default_factory=ModelsConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    hidden_sweep: tuple[int, ...] = ()
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    synth: SyntheticSpec = field(default_factory=SyntheticSpec)
    runs_dir: str = "out/runs"

    def __post_init__(self):
        if len(set(self.hidden_sweep)) < len(self.hidden_sweep):
            raise ValueError(f"[train] hidden_sweep repeats a size: {self.hidden_sweep}")
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
    value = annotation(raw)
    if annotation is float and not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


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
        with reading(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise DataError(f"{path}: {' '.join(str(exc).split())}") from None
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
    "# A manifest CSV (record_id,path to one peak-times file per record). Without",
    "# one, `bench prepare` reads the manifest that `bench synth` writes to synth_dir.",
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
    with writing(path) as fh:
        fh.write(header + render_config(BenchConfig()))
