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
import hashlib
import io
import json
import math
import random
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from collections.abc import Collection, Mapping, Sequence

import numpy as np

from .errors import DataError, DegenerateScale, EmptySignal, GuardUnsatisfied, SplitInfeasible
from .files import reading, write_json, writing

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
        if "\0" in self.record_id:
            raise ValueError(f"{self.record_id!r}: a record id cannot hold a NUL byte")
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
        if not (math.isfinite(self.mu) and 0.0 < self.sigma < math.inf):
            raise DegenerateScale(f"need a finite mu and a finite sigma > 0, got "
                                  f"{self.mu}, {self.sigma}")

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


def _window_starts(n: int) -> np.ndarray:
    """Offsets of the windows whose context and horizon lie within n samples."""
    return np.arange(0, max(n - CONTEXT_LEN - HORIZON, -1) + 1, CONTEXT_LEN, dtype=np.int64)


def _horizon_means(hr: np.ndarray) -> np.ndarray:
    """Mean over the HORIZON samples after each window's context, one per window."""
    starts = _window_starts(len(hr))
    return hr[starts[:, None] + CONTEXT_LEN + np.arange(HORIZON)].mean(axis=1)


def build_windows(series: HrSeries, theta: float = THETA_CANDIDATES[0]) -> Windows:
    """Non-overlapping CONTEXT_LEN-second contexts at stride CONTEXT_LEN.

    A window at offset o is emitted only when the series covers all of
    o .. o+CONTEXT_LEN+HORIZON-1; the label is 1 iff the mean over the
    HORIZON samples after the context is >= theta, and the forecast target
    is the first of them.
    """
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    hr = series.hr
    starts = _window_starts(len(hr))
    return Windows(
        record_ids=np.full(len(starts), series.record_id),
        start_indices=starts,
        contexts_bpm=hr[starts[:, None] + np.arange(CONTEXT_LEN)],
        cls_labels=(_horizon_means(hr) >= theta).astype(np.int64),
        fc_targets_bpm=hr[starts + CONTEXT_LEN],
    )


def select_threshold(corpus: Sequence[HrSeries]) -> ThresholdGuardResult:
    """First of THETA_CANDIDATES, in their order, with enough positive support.

    The guard requires at least MIN_POSITIVE_RECORDS records holding a
    positive window and at least MIN_POSITIVE_WINDOWS positive windows
    corpus-wide. Every candidate is counted from one pass of horizon means.
    """
    if not corpus:
        raise GuardUnsatisfied("empty corpus")
    means = [_horizon_means(series.hr) for series in corpus]
    results = []
    for theta in THETA_CANDIDATES:
        positives = [int((m >= theta).sum()) for m in means]
        result = ThresholdGuardResult(theta, sum(positives), sum(p > 0 for p in positives))
        if (result.n_positive_records >= MIN_POSITIVE_RECORDS
                and result.n_positive_windows >= MIN_POSITIVE_WINDOWS):
            return result
        results.append(result)
    best = max(results, key=lambda r: (r.n_positive_records, r.n_positive_windows))
    raise GuardUnsatisfied(
        f"no theta in {list(THETA_CANDIDATES)} reaches {MIN_POSITIVE_RECORDS} positive "
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
    """Standardized windows of the splits `names`, in `SPLIT_NAMES` order:
    a split left out is not built, so nothing can read it."""

    def __init__(self, windows: Windows, split: Mapping[str, str],
                 stats: StandardizationStats, theta: float, names=SPLIT_NAMES, sha256=None):
        split_of = _split_of(windows, split)
        self._splits = {name: _split_data(windows.rows(split_of == name), stats)
                        for name in SPLIT_NAMES if name in names}
        self.stats = stats
        self.theta = theta
        self.sha256 = sha256

    def split(self, name: str) -> SplitData:
        if name not in self._splits:
            raise KeyError(f"split {name!r} is not loaded")
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


def _loadtxt(source, **options) -> np.ndarray:
    """`np.loadtxt` without its warning on a source that holds no row: such
    a file is an empty table here."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(source, comments=None, **options)


def _parse_fields(fields: Sequence[str], dtype) -> np.ndarray:
    """`fields` as one record of `dtype`, read by numpy's text parser: the
    number rules of the one-pass parses, applied to one line's fields. Each
    field is quoted, so it is read whole, whatever it holds."""
    line = ",".join('"' + field.replace('"', '""') + '"' for field in fields)
    return _loadtxt([line], dtype=dtype, delimiter=",", quotechar='"', ndmin=1)


def read_peak_file(path) -> np.ndarray:
    """One peak time per non-blank line, in one pass of numpy's text parser.

    A number is what that parser reads: Python's float() also takes digit
    separators (`1_0`) and non-ASCII digits, this does not. Only a file that
    fails is scanned line by line, with the same rules, to name the first
    line that holds no number, more than one, or a non-finite one, or to
    raise the DataError of a file that cannot be read. A name numpy would
    decompress a file by is refused, as the line scan would not.
    """
    if str(path).endswith((".gz", ".bz2", ".xz", ".lzma")):
        raise DataError(f"{path}: a compressed peak file is not read; decompress it first")
    try:
        # by path, not through `reading`: numpy reads an open text handle
        # about a third slower
        times = _loadtxt(path, encoding="utf-8", ndmin=2)
        if times.shape[1] == 1 and np.isfinite(times).all():
            return times.reshape(-1)
    except (ValueError, OSError):
        pass
    with reading(path) as fh:
        lines = fh.read().split("\n")
    for lineno, line in enumerate(lines, 1):
        if line.strip():
            try:
                valid = bool(np.isfinite(_parse_fields([line], np.float64)).all())
            except ValueError:
                valid = False
            if not valid:
                raise DataError(f"{path}:{lineno}: {line.strip()!r} is not a finite number")
    raise DataError(f"{path}: not a peak file")


def read_manifest(manifest_path, exclude: Collection[str] = ()) -> list[RPeakRecord]:
    """Manifest CSV `record_id,path`; paths resolve relative to the manifest.
    A fault in a listed record's peaks is a DataError naming the manifest line.

    The records `exclude` names are left out, and their peak files are not
    read; their rows are checked like any other. An id in `exclude` that the
    manifest does not list is a DataError."""
    base = Path(manifest_path).parent
    records = []
    seen: dict[str, int] = {}
    with reading(manifest_path, newline="") as fh:
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
            if record_id in exclude:
                continue
            try:
                records.append(RPeakRecord(record_id, read_peak_file(base / rel)))
            except (DataError, ValueError) as exc:
                raise DataError(f"{where}: {exc}") from None
    unknown = set(exclude) - seen.keys()
    if unknown:
        raise DataError(f"{manifest_path}: exclude names records the manifest does not list: "
                        f"{', '.join(map(repr, sorted(unknown)))}")
    return records


# windows.csv is formatted this many rows at a time: the whole table as Python
# floats and strings would be several times the size of its arrays
_CHUNK_ROWS = 256
_HEADER = ["record_id", "start_index", "cls_label", "fc_target"]


def _csv_field(text: str) -> str:
    """`text` as `csv.writer` writes it among other fields: quoted only when
    it holds a comma, a quote or a line break, with each quote doubled."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[: -len(",\r\n")]


def save_prepared(
    out_dir,
    windows: Windows,
    stats: StandardizationStats,
    split: Mapping[str, str],
    theta: float,
) -> None:
    """Dataset CSV (raw bpm) plus a sidecar JSON with stats and the split map.

    `windows.csv` holds the bytes `csv.writer` would write: CRLF rows, a
    record id quoted only when it must be, each value as its `repr`.
    """
    out = Path(out_dir)
    T = windows.contexts_bpm.shape[1]
    field = {r: _csv_field(r) for r in set(windows.record_ids.tolist())}
    with writing(out / "windows.csv", newline="") as fh:
        fh.write(",".join(_HEADER + [f"ctx_{i}" for i in range(T)]) + "\r\n")
        for lo in range(0, len(windows), _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            values = np.column_stack([windows.fc_targets_bpm[rows],
                                      windows.contexts_bpm[rows]]).tolist()
            fh.write("".join(
                f"{field[record_id]},{start},{label},{','.join(map(repr, row))}\r\n"
                for record_id, start, label, row in zip(
                    windows.record_ids[rows].tolist(), windows.start_indices[rows].tolist(),
                    windows.cls_labels[rows].tolist(), values)))
    sidecar = {
        "mu": stats.mu,
        "sigma": stats.sigma,
        "theta": theta,
        "T": T,
        "H": HORIZON,
        "split": dict(sorted(split.items())),
    }
    write_json(out / "dataset.json", sidecar)


def _table(record_ids: np.ndarray, numbers: np.ndarray) -> Windows:
    """The columns of a parsed `windows.csv` body, as views of `numbers`."""
    values = numbers["values"]
    return Windows(record_ids=record_ids, start_indices=numbers["start"],
                   contexts_bpm=values[:, 1:], cls_labels=numbers["label"],
                   fc_targets_bpm=values[:, 0])


def _until_blank(lines):
    # loadtxt skips an empty line, which the loader rejects
    for line in lines:
        if line in ("\n", "\r\n", "\r"):
            raise ValueError("blank line")
        yield line


def _checked(numbers: np.ndarray) -> np.ndarray:
    """Parsed `windows.csv` numbers, if each row can be a window, else a
    ValueError. Mins and maxes down the columns need no table-sized buffer,
    and a NaN is both the min and the max of a column that holds one."""
    starts, labels, values = numbers["start"], numbers["label"], numbers["values"]
    if len(numbers) and not (starts.min() >= 0 and 0 <= labels.min() <= labels.max() <= 1
                             and np.isfinite([values.min(axis=0), values.max(axis=0)]).all()):
        raise ValueError("a value no window holds")
    return numbers


def _parse_windows(fh, split: Mapping[str, str]) -> Windows:
    """The body of `windows.csv` in one pass of numpy's text parser; a
    ValueError on anything the row-by-row scan must look at."""
    # one character wider than any split id, so that a longer id is not
    # truncated into a known one
    width = max(map(len, split), default=0) + 1
    dtype = np.dtype([("id", f"U{width}"), ("start", "i8"), ("label", "i8"),
                      ("values", "f8", (CONTEXT_LEN + 1,))])
    table = _loadtxt(_until_blank(fh), dtype=dtype, delimiter=",", quotechar='"', ndmin=1)
    # a set, as np.unique without indices would import numpy.ma
    present = set(table["id"].tolist())
    if any(record_id not in split for record_id in present):
        raise ValueError("a record outside the split")
    # the width np.array(ids, dtype=str) gives
    longest = max(map(len, present), default=0)
    return _table(table["id"].astype(f"U{max(longest, 1)}"), _checked(table))


def _scan_windows(path, split: Mapping[str, str]) -> Windows:
    """The body of `windows.csv` row by row, as `csv.reader` splits it, with
    each row's numbers read as `_parse_windows` reads them: a DataError names
    the first faulty line, and a file without one gives the same table."""
    dtype = np.dtype([("start", "i8"), ("label", "i8"), ("values", "f8", (CONTEXT_LEN + 1,))])
    names = _HEADER[1:] + [f"ctx_{i}" for i in range(CONTEXT_LEN)]
    record_ids, rows = [], []
    with reading(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header, already checked
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != 4 + CONTEXT_LEN:
                raise DataError(f"{where}: expected {4 + CONTEXT_LEN} fields, got {len(row)}")
            if row[0] not in split:
                raise DataError(f"{where}: record {row[0]!r} is not in the split of dataset.json")
            try:
                rows.append(_checked(_parse_fields(row[1:], dtype)))
            except ValueError:
                raise _bad_field(names, row[1:], where) from None
            record_ids.append(row[0])
    numbers = np.concatenate(rows) if rows else np.empty(0, dtype)
    return _table(np.array(record_ids, dtype=str), numbers)


def _bad_field(names: Sequence[str], fields: Sequence[str], where: str) -> DataError:
    """The error naming the first of a row's number fields that no window holds."""
    for i, (name, text) in enumerate(zip(names, fields)):
        dtype, kind = (np.int64, "an integer") if i < 2 else (np.float64, "a number")
        try:
            value = _parse_fields([text], dtype)[0]
        except ValueError:
            return DataError(f"{where}: {name} {text!r} is not {kind}")
        fault = ("is negative" if i == 0 and value < 0 else
                 "is not 0 or 1" if i == 1 and value not in (0, 1) else
                 "is not finite" if i > 1 and not np.isfinite(value) else None)
        if fault:
            return DataError(f"{where}: {name} {text!r} {fault}")
    return DataError(f"{where}: not a row of numbers")


def load_prepared(dataset_dir, names=SPLIT_NAMES) -> WindowedDataset:
    """The splits `names` of the dataset `save_prepared` wrote, and its
    `sha256`: that of the dataset.json text parsed here, read untranslated.

    A dataset whose `T`, `H` or `theta` is not the task's (an older version
    could prepare one under other settings) is a DataError. The body of
    `windows.csv` is read in one pass of numpy's text parser, whose numbers
    are those of `read_peak_file`. Only a file that pass rejects, or one
    with a blank line or a record outside the split, is scanned row by row,
    to name the first faulty line in a DataError.

    Every window, in every split, must have a start index >= 0, a label 0
    or 1 and finite values; another is a DataError naming its line.
    """
    base = Path(dataset_dir)
    meta = base / "dataset.json"
    with reading(meta, newline="") as fh:
        text = fh.read()
    try:
        sidecar = json.loads(text)
        stats = StandardizationStats(mu=sidecar["mu"], sigma=sidecar["sigma"])
        T, H, theta = int(sidecar["T"]), int(sidecar["H"]), float(sidecar["theta"])
        split = sidecar["split"]
    except KeyError as exc:
        raise DataError(f"{meta}: no {exc} entry") from None
    except (ValueError, TypeError, OverflowError, DegenerateScale) as exc:
        raise DataError(f"{meta}: not a prepared dataset file: {exc}") from None
    if (T, H) != (CONTEXT_LEN, HORIZON) or theta not in THETA_CANDIDATES:
        raise DataError(f"{meta}: T = {T}, H = {H}, theta = {theta}, not the task's "
                        f"T = {CONTEXT_LEN}, H = {HORIZON} and theta one of "
                        f"{list(THETA_CANDIDATES)}; prepare the dataset again")
    if not isinstance(split, dict):
        raise DataError(f"{meta}: split is not a record -> split map")
    for record_id, name in split.items():
        if name not in SPLIT_NAMES:
            raise DataError(f"{meta}: record {record_id!r} has split {name!r}, "
                            f"not one of {', '.join(SPLIT_NAMES)}")
    path = base / "windows.csv"
    with reading(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), [])
        if header[:4] != _HEADER:
            raise DataError(f"{path}: not a prepared windows file (header {header[:4]})")
        try:
            windows = _parse_windows(fh, split)
        except ValueError:
            windows = None
    if windows is None:
        windows = _scan_windows(path, split)
    return WindowedDataset(windows, split, stats, theta, names,
                           hashlib.sha256(text.encode("utf-8")).hexdigest())
