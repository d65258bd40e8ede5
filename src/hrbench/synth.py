"""Synthetic heart-rate corpora for desk-scale runs without PhysioNet data.

Each record is a clipped AR(1) deviation around a base rate with injected
tachycardia episodes (trapezoidal ramps, so onsets are visible trends rather
than jumps). The per-second series is converted back to R-peak times by
walking RR = 60/HR, which is what the ingest pipeline consumes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .ingest import HR_MAX, HR_MIN, HrSeries, RPeakRecord, build_windows


@dataclass(frozen=True)
class SyntheticSpec:
    n_records: int = 20
    record_seconds: int = 1800
    base_hr: float = 78.0
    ar_coeff: float = 0.9  # persistence of the bpm-per-second velocity
    reversion: float = 0.9  # pull of the deviation back toward base
    noise_scale: float = 0.25  # innovation of the velocity process, bpm/s
    episode_rate_per_hour: float = 4.0
    episode_duration_s: float = 110.0
    episode_amplitude: float = 42.0
    episode_ramp_s: float = 40.0
    osc_amplitude: float = 10.0  # slow sinusoidal drift, bpm
    osc_period_s: float = 100.0
    seed: int = 7

    def __post_init__(self):
        if not 0.0 <= self.ar_coeff < 1.0 or not 0.0 <= self.reversion < 1.0:
            raise ValueError("ar_coeff and reversion must be in [0, 1)")
        if self.record_seconds < 1 or self.n_records < 1:
            raise ValueError("need at least one record of at least one second")


def _episode_level(spec: SyntheticSpec, rng: np.random.Generator) -> tuple[np.ndarray, list]:
    """Trapezoid bump per episode; onsets jittered inside evenly spaced slots."""
    secs = spec.record_seconds
    level = np.zeros(secs)
    n_episodes = int(round(spec.episode_rate_per_hour * secs / 3600.0))
    episodes = []
    if n_episodes == 0 or spec.episode_amplitude == 0.0:
        return level, episodes
    slot = secs / n_episodes
    duration = spec.episode_duration_s
    ramp = min(spec.episode_ramp_s, duration / 2.0)
    plateau = duration - 2.0 * ramp
    for k in range(n_episodes):
        latest = slot - duration - 1.0
        onset = k * slot + rng.uniform(0.0, max(latest, 0.0))
        t = np.arange(secs, dtype=np.float64)
        up = np.clip((t - onset) / max(ramp, 1e-9), 0.0, 1.0)
        down = np.clip((onset + ramp + plateau + ramp - t) / max(ramp, 1e-9), 0.0, 1.0)
        level += spec.episode_amplitude * np.minimum(up, down)
        episodes.append({"onset": float(onset), "duration": float(duration)})
    return level, episodes


def _record_hr(spec: SyntheticSpec, index: int) -> tuple[np.ndarray, list]:
    # deviation integrates a persistent velocity, so the next sample is
    # largely determined by the recent trend (as in real heart rate); plain
    # white-noise steps would leave nothing for a forecaster to learn
    rng = np.random.default_rng([spec.seed, index])
    level, episodes = _episode_level(spec, rng)
    t = np.arange(spec.record_seconds, dtype=np.float64)
    period = spec.osc_period_s * rng.uniform(0.7, 1.3)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    osc = spec.osc_amplitude * np.sin(2.0 * np.pi * t / period + phase)
    noise = rng.normal(0.0, spec.noise_scale, size=spec.record_seconds)
    dev = np.empty(spec.record_seconds)
    velocity = 0.0
    value = 0.0
    for k in range(spec.record_seconds):
        velocity = spec.ar_coeff * velocity + noise[k]
        value = spec.reversion * value + velocity
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
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "manifest.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["record_id", "path"])
        for record in records:
            name = f"{record.record_id}.txt"
            writer.writerow([record.record_id, name])
            with open(out / name, "w", encoding="utf-8") as peaks_fh:
                peaks_fh.write("\n".join(f"{t:.6f}" for t in record.peak_times))
                peaks_fh.write("\n")
    with open(out / "bookkeeping.json", "w", encoding="utf-8") as fh:
        json.dump(bookkeeping, fh, indent=2)
    return out / "manifest.csv"
