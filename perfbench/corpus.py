"""Seeded R-peak corpora, written as one peak-time file per record plus a
`record_id,path` manifest.

Per-second heart rate is a base rate plus a slowly reverting deviation whose
velocity follows an AR(1) process, a slow sinusoidal drift and trapezoidal
tachycardia episodes. R-peak times come from walking RR = 60 / HR. Nothing
here imports hrbench: the program under test receives only the files, so a
change to the program cannot change a workload's input.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


EPISODE_DURATION_S = 110.0
EPISODE_RAMP_S = 40.0
OSC_PERIOD_S = 100.0
AR_COEFF = 0.9
REVERSION = 0.9
NOISE_SCALE = 0.25
HR_LOW = 40.0


@dataclass(frozen=True)
class CorpusSpec:
    """A corpus's make-up; every spec gives each record at least one episode."""

    n_records: int
    seconds: int
    base_hr: float
    episode_rate_per_hour: float
    episode_amplitude: float
    osc_amplitude: float
    hr_high: float = 200.0


@dataclass(frozen=True)
class Corpus:
    """Record ids and peak times, each exactly as its file's text parses."""

    record_ids: tuple[str, ...]
    peaks: tuple[np.ndarray, ...]

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["record_id,path"]
        for record_id, times in zip(self.record_ids, self.peaks):
            text = "".join(f"{v:.6f}\n" for v in times)
            (out / f"{record_id}.txt").write_text(text, encoding="utf-8")
            lines.append(f"{record_id},{record_id}.txt")
        manifest = out / "manifest.csv"
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return manifest


def _episodes(spec: CorpusSpec, rng: np.random.Generator) -> np.ndarray:
    """(records, seconds) episode level; onsets jittered inside even slots."""
    t = np.arange(spec.seconds, dtype=np.float64)
    level = np.zeros((spec.n_records, spec.seconds))
    n_episodes = int(round(spec.episode_rate_per_hour * spec.seconds / 3600.0))
    slot = spec.seconds / n_episodes
    latest = max(slot - EPISODE_DURATION_S - 1.0, 0.0)
    onsets = np.arange(n_episodes) * slot + rng.uniform(0.0, latest, (spec.n_records, n_episodes))
    for k in range(n_episodes):
        onset = onsets[:, k : k + 1]
        up = np.clip((t - onset) / EPISODE_RAMP_S, 0.0, 1.0)
        down = np.clip((onset + EPISODE_DURATION_S - t) / EPISODE_RAMP_S, 0.0, 1.0)
        level += spec.episode_amplitude * np.minimum(up, down)
    return level


def per_second_hr(spec: CorpusSpec, rng: np.random.Generator) -> np.ndarray:
    """(records, seconds) heart rate in bpm."""
    level = _episodes(spec, rng)
    t = np.arange(spec.seconds, dtype=np.float64)
    period = OSC_PERIOD_S * rng.uniform(0.7, 1.3, (spec.n_records, 1))
    phase = rng.uniform(0.0, 2.0 * np.pi, (spec.n_records, 1))
    osc = spec.osc_amplitude * np.sin(2.0 * np.pi * t / period + phase)
    noise = rng.normal(0.0, NOISE_SCALE, (spec.n_records, spec.seconds))
    dev = np.empty((spec.n_records, spec.seconds))
    velocity = np.zeros(spec.n_records)
    value = np.zeros(spec.n_records)
    for k in range(spec.seconds):
        velocity = AR_COEFF * velocity + noise[:, k]
        value = REVERSION * value + velocity
        dev[:, k] = value
    return np.clip(spec.base_hr + level + osc + dev, HR_LOW, spec.hr_high)


def peak_times(hr: np.ndarray, first: np.ndarray) -> list[np.ndarray]:
    """Walk RR = 60 / HR(current second) from each record's first peak."""
    n_records, seconds = hr.shape
    rows = np.arange(n_records)
    max_beats = int(seconds * hr.max() / 60.0) + 2
    out = np.full((n_records, max_beats), np.nan)
    t = first.astype(np.float64).copy()
    out[:, 0] = t
    active = t < seconds
    beat = 1
    while active.any():
        t = t + 60.0 / hr[rows, np.minimum(t.astype(np.int64), seconds - 1)]
        active &= t < seconds
        out[active, beat] = t[active]
        beat += 1
    return [row[~np.isnan(row)] for row in out]


def make_corpus(spec: CorpusSpec, seed: int, stream: int) -> Corpus:
    """The corpus for one workload seed; `stream` keeps workloads apart."""
    rng = np.random.default_rng([stream, seed])
    hr = per_second_hr(spec, rng)
    first = rng.uniform(0.0, 0.9, spec.n_records)
    # keep the values the program will parse from the files, not the
    # unrounded walk; formatting them again gives the same text
    peaks = tuple(np.array([float(f"{v:.6f}") for v in times])
                  for times in peak_times(hr, first))
    return Corpus(tuple(f"rec{i:03d}" for i in range(spec.n_records)), peaks)
