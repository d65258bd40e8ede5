"""Synthetic heart-rate corpora for desk-scale runs without PhysioNet data.

Each record is a clipped AR(1) deviation around a base rate with injected
tachycardia episodes (trapezoidal ramps, so onsets are visible trends rather
than jumps). The per-second series is converted back to R-peak times by
walking RR = 60/HR, which is what the ingest pipeline consumes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .files import write_csv, write_json, writing
from .ingest import HR_MAX, HR_MIN, MAX_RECORD_SECONDS, HrSeries, RPeakRecord, build_windows


# the shape of every synthetic record; the spec sets its size, base rate,
# episode rate and height, and seed
AR_COEFF = 0.9  # persistence of the bpm-per-second velocity
REVERSION = 0.9  # pull of the deviation back toward base
NOISE_SCALE = 0.25  # innovation of the velocity process, bpm/s
EPISODE_DURATION_S = 110.0
EPISODE_RAMP_S = 40.0
OSC_AMPLITUDE = 10.0  # slow sinusoidal drift, bpm
OSC_PERIOD_S = 100.0


@dataclass(frozen=True)
class SyntheticSpec:
    n_records: int = 20
    record_seconds: int = 1800
    base_hr: float = 78.0
    episode_rate_per_hour: float = 4.0
    episode_amplitude: float = 42.0
    seed: int = 7

    def __post_init__(self):
        if self.record_seconds < 1 or self.n_records < 1:
            raise ValueError("need at least one record of at least one second")
        if self.record_seconds > MAX_RECORD_SECONDS:
            raise ValueError(f"record_seconds = {self.record_seconds}: more than the "
                             f"{MAX_RECORD_SECONDS} s ({MAX_RECORD_SECONDS // 86400} days) "
                             "a record may span")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _episode_level(spec: SyntheticSpec, rng: np.random.Generator) -> tuple[np.ndarray, list]:
    """Trapezoid bump per episode; onsets jittered inside evenly spaced slots.

    A bump is added over its own span only: outside (onset, end) its term is
    an exact zero, so the level is bit for bit the sum over the whole record.
    """
    secs = spec.record_seconds
    level = np.zeros(secs)
    expected = spec.episode_rate_per_hour * secs / 3600.0
    if expected > secs:  # each episode is a pass of the loop below
        raise DataError(f"[synth] episode_rate_per_hour = {spec.episode_rate_per_hour:g}: "
                        f"{expected:g} episodes in a {secs} s record, more than one a second")
    n_episodes = int(round(expected))
    episodes = []
    if n_episodes == 0 or spec.episode_amplitude == 0.0:
        return level, episodes
    slot = secs / n_episodes
    plateau = EPISODE_DURATION_S - 2.0 * EPISODE_RAMP_S
    for k in range(n_episodes):
        latest = slot - EPISODE_DURATION_S - 1.0
        onset = k * slot + rng.uniform(0.0, max(latest, 0.0))
        end = onset + EPISODE_RAMP_S + plateau + EPISODE_RAMP_S
        span = slice(int(onset), min(int(end) + 1, secs))
        t = np.arange(span.start, span.stop, dtype=np.float64)
        up = np.clip((t - onset) / EPISODE_RAMP_S, 0.0, 1.0)
        down = np.clip((end - t) / EPISODE_RAMP_S, 0.0, 1.0)
        level[span] += spec.episode_amplitude * np.minimum(up, down)
        episodes.append({"onset": float(onset), "duration": EPISODE_DURATION_S})
    return level, episodes


def _record_hr(spec: SyntheticSpec, index: int) -> tuple[np.ndarray, list]:
    # deviation integrates a persistent velocity, so the next sample is
    # largely determined by the recent trend (as in real heart rate); plain
    # white-noise steps would leave nothing for a forecaster to learn
    rng = np.random.default_rng([spec.seed, index])
    level, episodes = _episode_level(spec, rng)
    t = np.arange(spec.record_seconds, dtype=np.float64)
    period = OSC_PERIOD_S * rng.uniform(0.7, 1.3)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    osc = OSC_AMPLITUDE * np.sin(2.0 * np.pi * t / period + phase)
    noise = rng.normal(0.0, NOISE_SCALE, size=spec.record_seconds)
    dev = np.empty(spec.record_seconds)
    velocity = 0.0
    value = 0.0
    for k in range(spec.record_seconds):
        velocity = AR_COEFF * velocity + noise[k]
        value = REVERSION * value + velocity
        dev[k] = value
    hr = np.clip(spec.base_hr + level + osc + dev, HR_MIN, HR_MAX)
    return hr, episodes


def hr_to_peaks(hr: np.ndarray) -> tuple[float, ...]:
    """Walk RR intervals at the rate of the current second, starting at 0."""
    secs = len(hr)
    peaks = [0.0]
    t = 0.0
    while True:
        t += 60.0 / hr[min(int(t), secs - 1)]
        if t >= secs:
            break
        peaks.append(t)
    return tuple(peaks)


def generate_corpus(spec: SyntheticSpec) -> tuple[list[RPeakRecord], dict]:
    """Records plus bookkeeping with the generator's own positive-window counts.

    The bookkeeping counts come straight from the true per-second series (no
    peak round trip), which gives an independent check on the ingest path.
    """
    records = []
    bookkeeping: dict = {"spec": asdict(spec), "records": {}}
    for i in range(spec.n_records):
        record_id = f"synth{i:03d}"
        hr, episodes = _record_hr(spec, i)
        records.append(RPeakRecord(record_id, hr_to_peaks(hr)))
        true_windows = build_windows(HrSeries(record_id, hr), theta=100.0)
        bookkeeping["records"][record_id] = {
            "n_seconds": int(len(hr)),
            "episodes": episodes,
            "true_positive_windows_theta100": int(true_windows.cls_labels.sum()),
            "true_windows": len(true_windows),
        }
    return records, bookkeeping


def write_corpus(out_dir, records: list[RPeakRecord], bookkeeping: dict) -> Path:
    """Peak files (one float per line), a manifest CSV, and bookkeeping JSON."""
    out = Path(out_dir)
    for record in records:
        with writing(out / f"{record.record_id}.txt") as fh:
            fh.write("".join(f"{t:.6f}\n" for t in record.peak_times.tolist()))
    write_csv(out / "manifest.csv",
              [["record_id", "path"]] + [[r.record_id, f"{r.record_id}.txt"] for r in records])
    write_json(out / "bookkeeping.json", bookkeeping)
    return out / "manifest.csv"
