"""From R-peak timestamps to standardized, split, labeled training windows.

The pipeline is: per-second heart rate from RR intervals, non-overlapping
context windows with a risk label and a one-step target, corpus-wide label
threshold selection under a positive-support guard, record-level stratified
splits, and train-statistics standardization. Everything here is a pure
function over immutable inputs.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Mapping, Sequence

import numpy as np

from .errors import DegenerateScale, EmptySignal, GuardUnsatisfied, SplitInfeasible

HR_MIN = 20.0
HR_MAX = 220.0
CONTEXT_LEN = 60
HORIZON = 10
THETA_CANDIDATES = (100.0, 95.0, 90.0, 85.0)
MIN_POSITIVE_RECORDS = 3
MIN_POSITIVE_WINDOWS = 40
SPLIT_NAMES = ("train", "val", "test")


@dataclass(frozen=True)
class RPeakRecord:
    """R-peak arrival times (seconds) for one recording."""

    record_id: str
    peak_times: tuple[float, ...]

    def __post_init__(self):
        times = self.peak_times
        if times and times[0] < 0.0:
            raise ValueError(f"{self.record_id}: peak times must be >= 0")
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise ValueError(f"{self.record_id}: peak times must strictly increase")


@dataclass(frozen=True, eq=False)
class HrSeries:
    """Per-second heart rate samples (bpm, 1 Hz) for one recording."""

    record_id: str
    hr: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "hr", np.asarray(self.hr, dtype=np.float64))
        if self.hr.size and (self.hr.min() < HR_MIN or self.hr.max() > HR_MAX):
            raise ValueError(f"{self.record_id}: samples outside [{HR_MIN}, {HR_MAX}]")

    def __len__(self) -> int:
        return int(self.hr.size)


@dataclass(frozen=True, eq=False)
class LabeledWindow:
    record_id: str
    start_index: int
    context: np.ndarray  # (CONTEXT_LEN,) bpm
    cls_label: int
    fc_target: float  # bpm


@dataclass(frozen=True)
class StandardizationStats:
    """Train-split mean/scale used to normalize every split."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise DegenerateScale(f"sigma must be > 0, got {self.sigma}")

    def normalize(self, x):
        return (np.asarray(x, dtype=np.float64) - self.mu) / self.sigma

    def denormalize(self, x):
        return np.asarray(x, dtype=np.float64) * self.sigma + self.mu

    def scale_to_bpm(self, s):
        return np.asarray(s, dtype=np.float64) * self.sigma


@dataclass(frozen=True)
class ThresholdGuardResult:
    theta: float
    n_positive_windows: int
    n_positive_records: int


@dataclass(frozen=True)
class SplitAssignment:
    """record_id -> split name; every record lands in exactly one split."""

    assignment: Mapping[str, str]

    def split_of(self, record_id: str) -> str:
        return self.assignment[record_id]

    def records_in(self, split: str) -> tuple[str, ...]:
        return tuple(r for r, s in sorted(self.assignment.items()) if s == split)


def derive_hr(record: RPeakRecord) -> HrSeries:
    """Per-second HR: clip(60/RR, 20, 220) from the interval covering each second.

    Integer seconds before the first peak or at/after the last peak are not
    covered by any right-open RR interval and are omitted, so the series runs
    over ceil(t_first) .. ceil(t_last) - 1.
    """
    if len(record.peak_times) < 2:
        raise EmptySignal(f"{record.record_id}: need >= 2 peaks, got {len(record.peak_times)}")
    t = np.asarray(record.peak_times, dtype=np.float64)
    first = math.ceil(t[0])
    last_excl = math.ceil(t[-1])
    if last_excl <= first:
        return HrSeries(record.record_id, np.empty(0))
    secs = np.arange(first, last_excl, dtype=np.float64)
    idx = np.searchsorted(t, secs, side="right") - 1
    rr = t[idx + 1] - t[idx]
    # an interval under 60 / HR_MAX clips to HR_MAX anyway; flooring it at half
    # that keeps 60 / rr finite for intervals too short to invert
    hr = np.clip(60.0 / np.maximum(rr, 30.0 / HR_MAX), HR_MIN, HR_MAX)
    return HrSeries(record.record_id, hr)


def build_windows(
    series: HrSeries,
    T: int = CONTEXT_LEN,
    H: int = HORIZON,
    theta: float = THETA_CANDIDATES[0],
) -> list[LabeledWindow]:
    """Non-overlapping T-second contexts at stride T.

    A window at offset o is emitted only when the series covers all of
    o .. o+T+H-1; the label is 1 iff the mean over the H samples after the
    context is >= theta, and the forecast target is the first of them.
    """
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    hr = series.hr
    windows: list[LabeledWindow] = []
    for start in range(0, max(len(hr) - T - H, -1) + 1, T):
        context = hr[start : start + T]
        horizon = hr[start + T : start + T + H]
        windows.append(
            LabeledWindow(
                record_id=series.record_id,
                start_index=start,
                context=context.copy(),
                cls_label=int(horizon.mean() >= theta),
                fc_target=float(horizon[0]),
            )
        )
    return windows


def select_threshold(
    corpus: Sequence[HrSeries],
    candidates: Sequence[float] = THETA_CANDIDATES,
    T: int = CONTEXT_LEN,
    H: int = HORIZON,
) -> ThresholdGuardResult:
    """First candidate (in the given order) with enough positive support.

    The guard requires at least MIN_POSITIVE_RECORDS records holding a
    positive window and at least MIN_POSITIVE_WINDOWS positive windows
    corpus-wide.
    """
    if not corpus:
        raise GuardUnsatisfied("empty corpus")
    results = []
    for theta in candidates:
        n_windows = 0
        n_records = 0
        for series in corpus:
            pos = sum(w.cls_label for w in build_windows(series, T=T, H=H, theta=theta))
            n_windows += pos
            n_records += int(pos > 0)
        result = ThresholdGuardResult(theta, n_windows, n_records)
        if n_records >= MIN_POSITIVE_RECORDS and n_windows >= MIN_POSITIVE_WINDOWS:
            return result
        results.append(result)
    best = max(results, key=lambda r: (r.n_positive_records, r.n_positive_windows))
    raise GuardUnsatisfied(
        f"no theta in {list(candidates)} reaches {MIN_POSITIVE_RECORDS} positive "
        f"records and {MIN_POSITIVE_WINDOWS} positive windows; best was "
        f"theta={best.theta} with {best.n_positive_records} records / "
        f"{best.n_positive_windows} windows"
    )


def _apportion(n: int, ratios: Sequence[float]) -> list[int]:
    # largest-remainder rounding; ties go to the earlier split
    quotas = [n * r for r in ratios]
    counts = [math.floor(q) for q in quotas]
    remainders = sorted(
        range(len(ratios)), key=lambda i: (quotas[i] - counts[i], ratios[i]), reverse=True
    )
    for i in range(n - sum(counts)):
        counts[remainders[i]] += 1
    return counts


def split_records(
    positivity: Mapping[str, bool],
    ratios: tuple[float, float, float] = (0.70, 0.15, 0.15),
    seed: int = 0,
) -> SplitAssignment:
    """Record-level split, shuffling positives and negatives separately.

    When at least three positive records exist, each split is guaranteed at
    least one (records are moved from the most positive-rich split if the
    ratio apportionment left a split empty).
    """
    if len(positivity) < 3:
        raise SplitInfeasible(f"need >= 3 records, got {len(positivity)}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")
    if any(r < 0 for r in ratios):
        raise ValueError(f"ratios must be non-negative, got {ratios}")

    rng = random.Random(seed)
    positives = sorted(r for r, flag in positivity.items() if flag)
    negatives = sorted(r for r, flag in positivity.items() if not flag)
    rng.shuffle(positives)
    rng.shuffle(negatives)

    pos_counts = _apportion(len(positives), ratios)
    if len(positives) >= MIN_POSITIVE_RECORDS:
        while min(pos_counts) == 0:
            pos_counts[pos_counts.index(max(pos_counts))] -= 1
            pos_counts[pos_counts.index(min(pos_counts))] += 1
    neg_counts = _apportion(len(negatives), ratios)

    assignment: dict[str, str] = {}
    for pool, counts in ((positives, pos_counts), (negatives, neg_counts)):
        cursor = 0
        for split, count in zip(SPLIT_NAMES, counts):
            for record_id in pool[cursor : cursor + count]:
                assignment[record_id] = split
            cursor += count
    return SplitAssignment(assignment)


@dataclass(frozen=True, eq=False)
class SplitData:
    """Column arrays for one split, aligned by window."""

    record_ids: tuple[str, ...]
    start_indices: np.ndarray
    contexts_bpm: np.ndarray  # (N, T)
    cls_labels: np.ndarray  # (N,) int
    fc_targets_bpm: np.ndarray  # (N,)
    contexts_norm: np.ndarray  # (N, T)
    fc_targets_norm: np.ndarray  # (N,)
    last_context_norm: np.ndarray  # (N,) normalized final context sample
    residuals: np.ndarray  # (N,) fc_targets_norm - last_context_norm

    @property
    def n(self) -> int:
        return len(self.record_ids)


class WindowedDataset:
    """Standardized windows grouped by split, with read-access logging.

    The access log exists so the pipeline can assert that nothing touched the
    test split before evaluation.
    """

    def __init__(
        self,
        splits: Mapping[str, SplitData],
        stats: StandardizationStats,
        assignment: SplitAssignment,
        theta: float,
        T: int = CONTEXT_LEN,
        H: int = HORIZON,
    ):
        self._splits = dict(splits)
        self.stats = stats
        self.assignment = assignment
        self.theta = theta
        self.T = T
        self.H = H
        self.access_log: list[str] = []

    def split(self, name: str) -> SplitData:
        if name not in self._splits:
            raise KeyError(f"unknown split {name!r}")
        self.access_log.append(name)
        return self._splits[name]

    def split_sizes(self) -> dict[str, int]:
        return {name: data.n for name, data in self._splits.items()}


def _split_data(windows: Sequence[LabeledWindow], stats: StandardizationStats,
                T: int) -> SplitData:
    if windows:
        contexts = np.stack([w.context for w in windows])
        targets = np.array([w.fc_target for w in windows])
    else:
        contexts = np.empty((0, T))
        targets = np.empty(0)
    contexts_norm = stats.normalize(contexts)
    targets_norm = stats.normalize(targets)
    last = contexts_norm[:, -1] if len(windows) else np.empty(0)
    return SplitData(
        record_ids=tuple(w.record_id for w in windows),
        start_indices=np.array([w.start_index for w in windows], dtype=np.int64),
        contexts_bpm=contexts,
        cls_labels=np.array([w.cls_label for w in windows], dtype=np.int64),
        fc_targets_bpm=targets,
        contexts_norm=contexts_norm,
        fc_targets_norm=targets_norm,
        last_context_norm=last,
        residuals=targets_norm - last,
    )


def standardize(
    windows: Sequence[LabeledWindow],
    assignment: SplitAssignment,
    theta: float = THETA_CANDIDATES[0],
    T: int = CONTEXT_LEN,
    H: int = HORIZON,
) -> tuple[WindowedDataset, StandardizationStats]:
    """Fit mu/sigma on train-split context samples, transform every split.

    sigma is the population standard deviation; a constant training corpus
    raises DegenerateScale.
    """
    by_split: dict[str, list[LabeledWindow]] = {name: [] for name in SPLIT_NAMES}
    for w in windows:
        by_split[assignment.split_of(w.record_id)].append(w)
    train = by_split["train"]
    if not train:
        raise DegenerateScale("training split contains no windows")
    train_contexts = np.stack([w.context for w in train])
    mu = float(train_contexts.mean())
    sigma = float(train_contexts.std())
    if sigma == 0.0:
        raise DegenerateScale("training contexts are constant (sigma = 0)")
    stats = StandardizationStats(mu=mu, sigma=sigma)
    splits = {name: _split_data(ws, stats, T) for name, ws in by_split.items()}
    dataset = WindowedDataset(splits, stats, assignment, theta=theta, T=T, H=H)
    return dataset, stats


# ---------------------------------------------------------------------------
# file formats


def read_peak_file(path) -> tuple[float, ...]:
    times = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                times.append(float(line))
    return tuple(times)


def read_manifest(manifest_path) -> list[RPeakRecord]:
    """Manifest CSV `record_id,path`; paths resolve relative to the manifest."""
    base = Path(manifest_path).parent
    records = []
    with open(manifest_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0] == "record_id":
                continue
            record_id, rel = row[0].strip(), row[1].strip()
            path = Path(rel)
            if not path.is_absolute():
                path = base / path
            records.append(RPeakRecord(record_id, read_peak_file(path)))
    return records


def read_combined_peaks(path) -> list[RPeakRecord]:
    """Single CSV `record_id,peak_time` sorted by (record_id, peak_time)."""
    times: dict[str, list[float]] = {}
    order: list[str] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0] == "record_id":
                continue
            record_id = row[0].strip()
            if record_id not in times:
                times[record_id] = []
                order.append(record_id)
            times[record_id].append(float(row[1]))
    return [RPeakRecord(r, tuple(times[r])) for r in order]


def save_prepared(
    out_dir,
    windows: Sequence[LabeledWindow],
    stats: StandardizationStats,
    assignment: SplitAssignment,
    theta: float,
    T: int = CONTEXT_LEN,
    H: int = HORIZON,
) -> None:
    """Dataset CSV (raw bpm) plus a sidecar JSON with stats and the split map."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "windows.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["record_id", "start_index", "cls_label", "fc_target"]
            + [f"ctx_{i}" for i in range(T)]
        )
        for w in windows:
            writer.writerow(
                [w.record_id, w.start_index, w.cls_label, repr(w.fc_target)]
                + [repr(float(v)) for v in w.context]
            )
    sidecar = {
        "mu": stats.mu,
        "sigma": stats.sigma,
        "theta": theta,
        "T": T,
        "H": H,
        "split": dict(sorted(assignment.assignment.items())),
    }
    with open(out / "dataset.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)


def load_prepared(dataset_dir) -> WindowedDataset:
    base = Path(dataset_dir)
    with open(base / "dataset.json", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    stats = StandardizationStats(mu=sidecar["mu"], sigma=sidecar["sigma"])
    assignment = SplitAssignment(sidecar["split"])
    T = int(sidecar["T"])
    windows = []
    with open(base / "windows.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header[:4] == ["record_id", "start_index", "cls_label", "fc_target"]
        for row in reader:
            windows.append(
                LabeledWindow(
                    record_id=row[0],
                    start_index=int(row[1]),
                    context=np.array([float(v) for v in row[4 : 4 + T]]),
                    cls_label=int(row[2]),
                    fc_target=float(row[3]),
                )
            )
    by_split: dict[str, list[LabeledWindow]] = {name: [] for name in SPLIT_NAMES}
    for w in windows:
        by_split[assignment.split_of(w.record_id)].append(w)
    splits = {name: _split_data(ws, stats, T) for name, ws in by_split.items()}
    return WindowedDataset(
        splits, stats, assignment, theta=float(sidecar["theta"]), T=T, H=int(sidecar["H"])
    )
