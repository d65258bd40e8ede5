"""From R-peak timestamps to standardized, split, labeled training windows.

The pipeline is: per-second heart rate from RR intervals, non-overlapping
context windows with a risk label and a one-step target, corpus-wide label
threshold selection under a positive-support guard, record-level stratified
splits, and train-statistics standardization. Everything here is a pure
function over immutable inputs.

Windows are one column table, `Windows`, from `build_windows` to
`windows.csv` and back. The split is the `record_id -> split name` map that
`dataset.json` stores, and a split's `SplitData` is its rows of the table
plus their normalized columns.
"""

from __future__ import annotations

import csv
import json
import math
import random
from array import array
from dataclasses import dataclass, fields
from pathlib import Path
from collections.abc import Mapping, Sequence

import numpy as np

from .errors import DataError, DegenerateScale, EmptySignal, GuardUnsatisfied, SplitInfeasible

HR_MIN = 20.0
HR_MAX = 220.0
CONTEXT_LEN = 60
HORIZON = 10
THETA_CANDIDATES = (100.0, 95.0, 90.0, 85.0)
SPLIT_RATIOS = (0.70, 0.15, 0.15)  # train, val, test
MIN_POSITIVE_RECORDS = 3
MIN_POSITIVE_WINDOWS = 40
SPLIT_NAMES = ("train", "val", "test")


@dataclass(frozen=True, eq=False)
class RPeakRecord:
    """R-peak arrival times (seconds) for one recording."""

    record_id: str
    peak_times: np.ndarray  # (P,) float64

    def __post_init__(self):
        times = np.asarray(self.peak_times, dtype=np.float64)
        object.__setattr__(self, "peak_times", times)
        if not np.isfinite(times).all():
            raise ValueError(f"{self.record_id}: peak times must be finite")
        if times.size and times[0] < 0.0:
            raise ValueError(f"{self.record_id}: peak times must be >= 0")
        if not (np.diff(times) > 0.0).all():
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
class Windows:
    """Labeled windows as aligned columns, one row per window: the columns
    `windows.csv` stores."""

    record_ids: np.ndarray  # (N,) str
    start_indices: np.ndarray  # (N,) int
    contexts_bpm: np.ndarray  # (N, T)
    cls_labels: np.ndarray  # (N,) int
    fc_targets_bpm: np.ndarray  # (N,) the first sample after the context

    def __len__(self) -> int:
        return len(self.start_indices)

    def rows(self, index) -> Windows:
        """The rows at `index`, a boolean mask or positions, in table order."""
        return Windows(*(getattr(self, f.name)[index] for f in fields(Windows)))

    @staticmethod
    def concat(tables: Sequence[Windows]) -> Windows:
        return Windows(*(np.concatenate([getattr(t, f.name) for t in tables])
                         for f in fields(Windows)))


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


def derive_hr(record: RPeakRecord) -> HrSeries:
    """Per-second HR: clip(60/RR, 20, 220) from the interval covering each second.

    Integer seconds before the first peak or at/after the last peak are not
    covered by any right-open RR interval and are omitted, so the series runs
    over ceil(t_first) .. ceil(t_last) - 1.
    """
    if len(record.peak_times) < 2:
        raise EmptySignal(f"{record.record_id}: need >= 2 peaks, got {len(record.peak_times)}")
    t = record.peak_times
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


def _window_starts(n: int, T: int, H: int) -> np.ndarray:
    """Offsets of the windows whose context and horizon lie within n samples."""
    return np.arange(0, max(n - T - H, -1) + 1, T, dtype=np.int64)


def _horizon_means(hr: np.ndarray, T: int, H: int) -> np.ndarray:
    """Mean over the H samples after each window's context, one per window."""
    starts = _window_starts(len(hr), T, H)
    return hr[starts[:, None] + T + np.arange(H)].mean(axis=1)


def build_windows(
    series: HrSeries,
    T: int = CONTEXT_LEN,
    H: int = HORIZON,
    theta: float = THETA_CANDIDATES[0],
) -> Windows:
    """Non-overlapping T-second contexts at stride T.

    A window at offset o is emitted only when the series covers all of
    o .. o+T+H-1; the label is 1 iff the mean over the H samples after the
    context is >= theta, and the forecast target is the first of them.
    """
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    hr = series.hr
    starts = _window_starts(len(hr), T, H)
    return Windows(
        record_ids=np.full(len(starts), series.record_id),
        start_indices=starts,
        contexts_bpm=hr[starts[:, None] + np.arange(T)],
        cls_labels=(_horizon_means(hr, T, H) >= theta).astype(np.int64),
        fc_targets_bpm=hr[starts + T],
    )


def select_threshold(
    corpus: Sequence[HrSeries],
    candidates: Sequence[float] = THETA_CANDIDATES,
    T: int = CONTEXT_LEN,
    H: int = HORIZON,
) -> ThresholdGuardResult:
    """First candidate (in the given order) with enough positive support.

    The guard requires at least MIN_POSITIVE_RECORDS records holding a
    positive window and at least MIN_POSITIVE_WINDOWS positive windows
    corpus-wide. Every candidate is counted from one pass of horizon means.
    """
    if not corpus:
        raise GuardUnsatisfied("empty corpus")
    means = [_horizon_means(series.hr, T, H) for series in corpus]
    results = []
    for theta in candidates:
        positives = [int((m >= theta).sum()) for m in means]
        result = ThresholdGuardResult(theta, sum(positives), sum(p > 0 for p in positives))
        if (result.n_positive_records >= MIN_POSITIVE_RECORDS
                and result.n_positive_windows >= MIN_POSITIVE_WINDOWS):
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
    ratios: tuple[float, float, float] = SPLIT_RATIOS,
    seed: int = 0,
) -> dict[str, str]:
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
    return assignment


@dataclass(frozen=True, eq=False)
class SplitData(Windows):
    """One split's rows of the window table, plus their normalized columns."""

    contexts_norm: np.ndarray  # (N, T)
    fc_targets_norm: np.ndarray  # (N,)
    last_context_norm: np.ndarray  # (N,) normalized final context sample
    residuals: np.ndarray  # (N,) fc_targets_norm - last_context_norm


class WindowedDataset:
    """Standardized windows grouped by split, with read-access logging.

    The access log exists so the pipeline can assert that nothing touched the
    test split before evaluation.
    """

    def __init__(self, windows: Windows, split: Mapping[str, str],
                 stats: StandardizationStats, theta: float):
        split_of = _split_of(windows, split)
        self._splits = {name: _split_data(windows.rows(split_of == name), stats)
                        for name in SPLIT_NAMES}
        self.stats = stats
        self.theta = theta
        self.access_log: list[str] = []

    def split(self, name: str) -> SplitData:
        if name not in self._splits:
            raise KeyError(f"unknown split {name!r}")
        self.access_log.append(name)
        return self._splits[name]

    def split_sizes(self) -> dict[str, int]:
        return {name: len(data) for name, data in self._splits.items()}


def _split_of(windows: Windows, split: Mapping[str, str]) -> np.ndarray:
    """The split name of each row of the table."""
    records, row_record = np.unique(windows.record_ids, return_inverse=True)
    return np.array([split[r] for r in records.tolist()], dtype=str)[row_record]


def _split_data(rows: Windows, stats: StandardizationStats) -> SplitData:
    contexts_norm = stats.normalize(rows.contexts_bpm)
    targets_norm = stats.normalize(rows.fc_targets_bpm)
    last = contexts_norm[:, -1]
    return SplitData(*(getattr(rows, f.name) for f in fields(Windows)),
                     contexts_norm=contexts_norm, fc_targets_norm=targets_norm,
                     last_context_norm=last, residuals=targets_norm - last)


def standardize(windows: Windows, split: Mapping[str, str]) -> StandardizationStats:
    """Fit mu/sigma on train-split context samples; `WindowedDataset`
    applies them to every split.

    sigma is the population standard deviation; a constant training corpus
    raises DegenerateScale.
    """
    train_contexts = windows.contexts_bpm[_split_of(windows, split) == "train"]
    if not len(train_contexts):
        raise DegenerateScale("training split contains no windows")
    mu = float(train_contexts.mean())
    sigma = float(train_contexts.std())
    if sigma == 0.0:
        raise DegenerateScale("training contexts are constant (sigma = 0)")
    return StandardizationStats(mu=mu, sigma=sigma)


# ---------------------------------------------------------------------------
# file formats


def _peak_record(record_id: str, times, where: str) -> RPeakRecord:
    try:
        return RPeakRecord(record_id, times)
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from None


def _number(text: str) -> float:
    """`text` as a float; NaN if it is not a number."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _not_a_number(text: str, where: str) -> DataError:
    return DataError(f"{where}: {text.strip()!r} is not a finite number")


def read_peak_file(path) -> np.ndarray:
    """One peak time per non-blank line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    try:
        times = np.array([float(line) for line in lines if line.strip()])
        valid = bool(np.isfinite(times).all())
    except ValueError:
        valid = False
    if not valid:
        # only a file that fails is scanned line by line, to name the line
        lineno, line = next((n, line) for n, line in enumerate(lines, 1)
                            if line.strip() and not math.isfinite(_number(line)))
        raise _not_a_number(line, f"{path}:{lineno}")
    return times


def read_manifest(manifest_path) -> list[RPeakRecord]:
    """Manifest CSV `record_id,path`; paths resolve relative to the manifest."""
    base = Path(manifest_path).parent
    records = []
    seen: dict[str, int] = {}
    with open(manifest_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0] == "record_id":
                continue
            where = f"{manifest_path}:{reader.line_num}"
            if len(row) < 2:
                raise DataError(f"{where}: expected `record_id,path`, got {row}")
            record_id, rel = row[0].strip(), row[1].strip()
            if record_id in seen:
                raise DataError(f"{where}: record {record_id!r} is listed twice "
                                f"(first at line {seen[record_id]})")
            seen[record_id] = reader.line_num
            path = Path(rel)
            if not path.is_absolute():
                path = base / path
            records.append(_peak_record(record_id, read_peak_file(path), where))
    return records


def read_combined_peaks(path) -> list[RPeakRecord]:
    """Single CSV `record_id,peak_time` sorted by (record_id, peak_time)."""
    times: dict[str, list[float]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0] == "record_id":
                continue
            if len(row) < 2:
                raise DataError(f"{path}:{reader.line_num}: expected `record_id,peak_time`, "
                                f"got {row}")
            peak = _number(row[1])
            if not math.isfinite(peak):
                raise _not_a_number(row[1], f"{path}:{reader.line_num}")
            times.setdefault(row[0].strip(), []).append(peak)
    return [_peak_record(r, t, str(path)) for r, t in times.items()]


def save_prepared(
    out_dir,
    windows: Windows,
    stats: StandardizationStats,
    split: Mapping[str, str],
    theta: float,
    H: int = HORIZON,
) -> None:
    """Dataset CSV (raw bpm) plus a sidecar JSON with stats and the split map."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    T = windows.contexts_bpm.shape[1]
    with open(out / "windows.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["record_id", "start_index", "cls_label", "fc_target"]
            + [f"ctx_{i}" for i in range(T)]
        )
        # one row at a time: the whole table as Python floats would be
        # several times the size of its arrays
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


def load_prepared(dataset_dir) -> WindowedDataset:
    base = Path(dataset_dir)
    with open(base / "dataset.json", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    stats = StandardizationStats(mu=sidecar["mu"], sigma=sidecar["sigma"])
    T = int(sidecar["T"])
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
            if row[0] not in sidecar["split"]:
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
    return WindowedDataset(windows, sidecar["split"], stats, float(sidecar["theta"]))
