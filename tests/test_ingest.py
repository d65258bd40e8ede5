import csv
import hashlib
import re
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import load_prepared_reference, save_prepared_reference

from hrbench import ingest
from hrbench.errors import (
    DataError,
    DegenerateScale,
    EmptySignal,
    GuardUnsatisfied,
    SplitInfeasible,
)
from hrbench.ingest import (
    CONTEXT_LEN,
    HORIZON,
    HR_MAX,
    HR_MIN,
    HrSeries,
    RPeakRecord,
    SplitData,
    StandardizationStats,
    WindowedDataset,
    Windows,
    build_windows,
    derive_hr,
    load_prepared,
    read_manifest,
    save_prepared,
    select_threshold,
    split_records,
    standardize,
)


def constant_series(record_id, bpm, length):
    return HrSeries(record_id, np.full(length, float(bpm)))


class TestDeriveHr:
    def test_hand_evaluated_intervals(self):
        # RR 0.5, 0.5, 1.0: seconds 10 and 11 are covered, 12 is the boundary
        series = derive_hr(RPeakRecord("r", (10.0, 10.5, 11.0, 12.0)))
        np.testing.assert_array_equal(series.hr, [120.0, 60.0])

    def test_upper_clip(self):
        peaks = tuple(0.25 * i for i in range(41))  # RR 0.25 -> raw 240
        series = derive_hr(RPeakRecord("r", peaks))
        assert len(series) == 10
        assert np.all(series.hr == 220.0)

    def test_lower_clip(self):
        series = derive_hr(RPeakRecord("r", (0.0, 4.0, 8.0)))  # raw 15
        assert np.all(series.hr == 20.0)
        assert len(series) == 8

    def test_fewer_than_two_peaks(self):
        with pytest.raises(EmptySignal):
            derive_hr(RPeakRecord("r", (3.0,)))

    def test_sub_nanosecond_interval_clips_without_overflow(self):
        # 60 / 5e-324 overflows float64; the sample must still clip to 220
        series = derive_hr(RPeakRecord("r", (0.0, 5e-324, 2.0)))
        np.testing.assert_array_equal(series.hr, [220.0, 30.0])

    def test_non_integer_boundaries(self):
        # coverage [1.2, 3.7): seconds 2 and 3 only
        series = derive_hr(RPeakRecord("r", (1.2, 2.2, 3.7)))
        np.testing.assert_allclose(series.hr, [60.0 / 1.0, 60.0 / 1.5])

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
            min_size=2,
            max_size=40,
            unique=True,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_every_sample_clipped(self, times):
        series = derive_hr(RPeakRecord("r", tuple(sorted(times))))
        if len(series):
            assert series.hr.min() >= 20.0
            assert series.hr.max() <= 220.0

    def test_peaks_must_increase(self):
        with pytest.raises(ValueError):
            RPeakRecord("r", (1.0, 1.0, 2.0))


class TestBuildWindows:
    def test_two_windows_at_length_140(self):
        # offsets 0 and 60 both fit: 60+70 <= 140 and 120+10 = 130 <= 140
        windows = build_windows(constant_series("r", 110, 140), theta=100)
        assert len(windows) == 2
        assert windows.start_indices.tolist() == [0, 60]
        assert all(windows.cls_labels == 1)
        assert all(windows.fc_targets_bpm == 110.0)

    def test_single_negative_window(self):
        windows = build_windows(constant_series("r", 80, 70), theta=100)
        assert len(windows) == 1
        assert windows.cls_labels[0] == 0
        assert windows.fc_targets_bpm[0] == 80.0

    def test_insufficient_coverage(self):
        windows = build_windows(constant_series("r", 80, 69), theta=100)
        assert len(windows) == 0
        assert windows.contexts_bpm.shape == (0, 60)

    def test_contexts_never_share_an_index(self):
        windows = build_windows(constant_series("r", 90, 400), theta=100)
        seen: set[int] = set()
        for start in windows.start_indices:
            indices = set(range(start, start + 60))
            assert not (seen & indices)
            seen |= indices

    def test_label_uses_horizon_mean(self):
        hr = np.full(70, 80.0)
        hr[60:70] = [120] * 5 + [85] * 5  # mean 102.5
        windows = build_windows(HrSeries("r", hr), theta=100)
        assert windows.cls_labels[0] == 1
        assert windows.fc_targets_bpm[0] == 120.0

    @given(st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_smaller_theta_never_loses_positives(self, seed):
        rng = np.random.default_rng(seed)
        hr = np.clip(95 + rng.normal(0, 15, 500), 20, 220)
        series = HrSeries("r", hr)
        counts = [
            build_windows(series, theta=t).cls_labels.sum()
            for t in (100.0, 95.0, 90.0, 85.0)
        ]
        assert counts == sorted(counts)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 400), st.floats(60.0, 140.0))
    @settings(max_examples=50, deadline=None)
    def test_labels_match_the_per_window_horizon_mean(self, seed, length, theta):
        T, H = CONTEXT_LEN, HORIZON
        hr = np.random.default_rng(seed).uniform(40.0, 160.0, length)
        windows = build_windows(HrSeries("r", hr), theta=theta)
        assert windows.cls_labels.tolist() == [
            int(hr[start + T : start + T + H].mean() >= theta) for start in windows.start_indices
        ]
        contexts = [hr[start : start + T] for start in windows.start_indices]
        np.testing.assert_array_equal(windows.contexts_bpm, np.reshape(contexts, (-1, T)))
        positives = int(windows.cls_labels.sum())
        if positives:
            # 40 copies of the record meet the guard whatever the positive count
            with mock.patch.object(ingest, "THETA_CANDIDATES", (theta,)):
                guard = select_threshold([HrSeries("r", hr)] * 40)
            assert (guard.n_positive_windows, guard.n_positive_records) == (40 * positives, 40)


class TestSelectThreshold:
    def test_first_candidate_satisfying_guard(self):
        # theta=100 -> 2 positive records; theta=95 -> enough support
        loud = [constant_series(f"a{i}", 97, 4000) for i in range(5)]
        quiet = [constant_series(f"b{i}", 60, 4000) for i in range(2)]
        spiky = []
        for i in range(2):
            hr = np.full(500, 80.0)
            hr[60:200] = 150.0
            spiky.append(HrSeries(f"c{i}", hr))
        result = select_threshold(spiky + loud + quiet)
        assert result.theta == 95.0
        assert result.n_positive_records >= 3
        assert result.n_positive_windows >= 40

    def test_keeps_100_when_support_is_ample(self):
        corpus = [constant_series(f"r{i}", 120, 400) for i in range(17)]
        result = select_threshold(corpus)
        assert result.theta == 100.0
        assert result.n_positive_records == 17

    def test_guard_unsatisfied_names_best(self):
        corpus = [constant_series("r0", 60, 500)]
        with pytest.raises(GuardUnsatisfied) as exc:
            select_threshold(corpus)
        assert "85" in str(exc.value)


def records_in(split, name):
    return [r for r, s in sorted(split.items()) if s == name]


class TestSplitRecords:
    def test_three_positives_spread_across_splits(self):
        positivity = {f"r{i}": i < 3 for i in range(10)}
        assignment = split_records(positivity, (0.7, 0.15, 0.15), seed=0)
        for split in ("train", "val", "test"):
            positives = [r for r in records_in(assignment, split) if positivity[r]]
            assert len(positives) == 1

    def test_three_records_one_per_split(self):
        assignment = split_records({"a": True, "b": True, "c": True}, (0.34, 0.33, 0.33), seed=1)
        sizes = {s: len(records_in(assignment, s)) for s in ("train", "val", "test")}
        assert sizes == {"train": 1, "val": 1, "test": 1}

    def test_deterministic(self):
        positivity = {f"r{i}": i % 4 == 0 for i in range(23)}
        a = split_records(positivity, seed=9)
        b = split_records(positivity, seed=9)
        assert a == b

    def test_disjoint_and_exhaustive(self):
        positivity = {f"r{i}": i % 3 == 0 for i in range(17)}
        assignment = split_records(positivity, seed=2)
        all_records = []
        for split in ("train", "val", "test"):
            all_records.extend(records_in(assignment, split))
        assert sorted(all_records) == sorted(positivity)

    def test_too_few_records(self):
        with pytest.raises(SplitInfeasible):
            split_records({"a": True, "b": False})

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            split_records({"a": 1, "b": 0, "c": 1}, ratios=(0.5, 0.2, 0.2))


def _windows(*rows):
    """A table from (record_id, context, fc_target, label, start) rows."""
    record_ids, contexts, targets, labels, starts = zip(*rows)
    return Windows(
        record_ids=np.array(record_ids),
        start_indices=np.array(starts, dtype=np.int64),
        contexts_bpm=np.array(contexts, dtype=np.float64),
        cls_labels=np.array(labels, dtype=np.int64),
        fc_targets_bpm=np.array(targets, dtype=np.float64),
    )


def _toy_windows():
    ctx_a = [60.0, 80.0] * 30
    ctx_b = [80.0, 60.0] * 30
    return _windows(
        ("a", ctx_a, 80.0, 1, 0),
        ("a", ctx_b, 60.0, 0, 60),
        ("b", ctx_a, 70.0, 0, 0),
        ("c", ctx_b, 90.0, 1, 0),
    )


def _toy_assignment():
    return split_records({"a": True, "b": False, "c": True}, (0.34, 0.33, 0.33), seed=0)


class TestStandardize:
    def test_two_point_symmetry(self):
        windows = _toy_windows()
        assignment = _toy_assignment()
        stats = standardize(windows, assignment)
        assert stats.mu == pytest.approx(70.0)
        assert stats.sigma == pytest.approx(10.0)
        assert stats.normalize(80.0) == pytest.approx(1.0)

    def test_residual_definition(self):
        # normalized target 0.7 with final context sample 0.5 -> residual 0.2
        stats = StandardizationStats(mu=70.0, sigma=10.0)
        assert stats.normalize(77.0) - stats.normalize(75.0) == pytest.approx(0.2)
        windows, assignment = _toy_windows(), _toy_assignment()
        dataset = WindowedDataset(windows, assignment, standardize(windows, assignment), 100.0)
        train = dataset.split("train")
        np.testing.assert_allclose(
            train.residuals, train.fc_targets_norm - train.contexts_norm[:, -1], atol=0
        )

    def test_inverse_round_trip(self):
        stats = standardize(_toy_windows(), _toy_assignment())
        assert stats.denormalize(1.0) == pytest.approx(80.0)
        values = np.linspace(20, 220, 13)
        np.testing.assert_allclose(
            stats.denormalize(stats.normalize(values)), values, rtol=1e-9
        )

    def test_constant_training_data_rejected(self):
        windows = _windows(*((r, [70.0] * 60, 70.0, 0, 0) for r in "abc"))
        with pytest.raises(DegenerateScale):
            standardize(windows, _toy_assignment())

    @given(st.floats(min_value=20.0, max_value=220.0))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_identity_property(self, bpm):
        stats = standardize(_toy_windows(), _toy_assignment())
        assert stats.denormalize(stats.normalize(bpm)) == pytest.approx(bpm, rel=1e-9)

    def test_stats_come_from_train_split_only(self):
        windows = _toy_windows()
        assignment = _toy_assignment()
        train_split = [i for i, r in enumerate(windows.record_ids) if assignment[r] == "train"]
        samples = windows.contexts_bpm[train_split]
        stats = standardize(windows, assignment)
        assert stats.mu == pytest.approx(samples.mean())
        assert stats.sigma == pytest.approx(samples.std())


# record ids with inner and outer spaces, the CSV delimiter and quote, the
# comment character and non-ASCII letters, all of which csv.writer and the
# loader must carry through
ID_ALPHABET = "abcxyz_-0123456789 ,\"#éü─😀"


def _assert_same_columns(a, b):
    """Every column of two splits holds the same dtype, shape and bytes: -0.0
    and each NaN's bits included."""
    for f in fields(SplitData):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), f.name
        assert x.tobytes() == y.tobytes(), f.name


class TestPreparedFiles:
    def test_save_load_round_trip(self, tmp_path):
        windows = _toy_windows()
        assignment = _toy_assignment()
        stats = standardize(windows, assignment)
        dataset = WindowedDataset(windows, assignment, stats, 100.0)
        save_prepared(tmp_path, windows, stats, assignment, theta=100.0)
        loaded = load_prepared(tmp_path)
        assert loaded.theta == 100.0
        assert loaded.stats.mu == stats.mu and loaded.stats.sigma == stats.sigma
        for split in ("train", "val", "test"):
            a, b = dataset.split(split), loaded.split(split)
            assert a.record_ids.tolist() == b.record_ids.tolist()
            np.testing.assert_array_equal(a.contexts_bpm, b.contexts_bpm)
            np.testing.assert_array_equal(a.cls_labels, b.cls_labels)
            np.testing.assert_array_equal(a.fc_targets_bpm, b.fc_targets_bpm)
            np.testing.assert_array_equal(a.contexts_norm, b.contexts_norm)

    def test_empty_split_keeps_context_length(self, tmp_path):
        T = CONTEXT_LEN
        windows = _windows(
            ("a", [60.0, 80.0] * (T // 2), 80.0, 1, 0),
            ("b", [80.0, 60.0] * (T // 2), 70.0, 0, 0),
        )
        assignment = {"a": "train", "b": "val", "c": "test"}
        stats = standardize(windows, assignment)
        dataset = WindowedDataset(windows, assignment, stats, 100.0)
        save_prepared(tmp_path, windows, stats, assignment, theta=100.0)
        for data in (dataset, load_prepared(tmp_path)):
            empty = data.split("test")
            assert len(empty) == 0
            assert empty.contexts_bpm.shape == (0, T)
            assert empty.contexts_norm.shape == (0, T)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_is_bit_exact(self, tmp_path_factory, data):
        T = CONTEXT_LEN
        ids = data.draw(st.lists(st.text(ID_ALPHABET, min_size=1, max_size=8),
                                 min_size=2, max_size=6, unique=True))
        names = ("train", "val", "test")
        empty = data.draw(st.sampled_from(names[1:]))
        # every record's split is drawn, the emptied one excepted; the first is train
        assignment = {ids[0]: "train"}
        for r in ids[1:]:
            assignment[r] = data.draw(st.sampled_from([n for n in names if n != empty]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(1, 12))
        rows = [ids[0]] + [ids[i] for i in rng.integers(0, len(ids), n - 1)]
        windows = Windows(
            record_ids=np.array(rows),
            start_indices=rng.integers(0, 10**6, n),
            contexts_bpm=rng.uniform(20.0, 220.0, (n, T)),
            cls_labels=rng.integers(0, 2, n),
            fc_targets_bpm=rng.uniform(20.0, 220.0, n),
        )
        # a constant draw has no scale; every other table standardizes
        if windows.contexts_bpm[windows.record_ids == ids[0]].std() == 0.0:
            return
        stats = standardize(windows, assignment)
        dataset = WindowedDataset(windows, assignment, stats, 95.0)
        out = tmp_path_factory.mktemp("prepared")
        save_prepared(out, windows, stats, assignment, theta=95.0)
        loaded = load_prepared(out)
        assert (loaded.stats, loaded.theta) == (stats, 95.0)
        assert loaded.split_sizes() == dataset.split_sizes()
        assert loaded.split_sizes()[empty] == 0
        for name in names:
            _assert_same_columns(dataset.split(name), loaded.split(name))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_codec_matches_the_csv_module_reference(self, tmp_path_factory, data):
        """The chunked writer writes the reference's bytes, and the one-pass
        loader, and the row-by-row scan it falls back on, read the
        reference's columns bit for bit, dtypes included; or, where a row
        cannot be a window, both raise a DataError naming its line."""
        T = CONTEXT_LEN
        # line breaks in an id make csv.writer quote it across lines
        ids = data.draw(st.lists(st.text(ID_ALPHABET + "\r\n", min_size=1, max_size=6),
                                 min_size=1, max_size=5, unique=True))
        split = {r: data.draw(st.sampled_from(("train", "val", "test"))) for r in ids}
        n = data.draw(st.integers(0, 9))
        # half the tables hold only windows, their values in the bpm range;
        # in the others any value can be drawn, and most hold a row the
        # loader refuses
        any_value = data.draw(st.booleans())
        awkward = [72.30000000000001, HR_MIN, HR_MAX, 99.99999999999999]
        values = st.one_of(st.floats(), st.sampled_from(
            [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, *awkward])) if any_value else (
            st.one_of(st.floats(HR_MIN, HR_MAX), st.sampled_from(awkward)))
        windows = Windows(
            record_ids=np.array(data.draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n)),
                                dtype=str),
            start_indices=np.array(data.draw(st.lists(
                st.integers(-2**63 if any_value else 0, 2**63 - 1), min_size=n, max_size=n)),
                dtype=np.int64),
            contexts_bpm=np.array(data.draw(st.lists(values, min_size=n * T, max_size=n * T)),
                                  dtype=np.float64).reshape(n, T),
            cls_labels=np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                                dtype=np.int64),
            fc_targets_bpm=np.array(data.draw(st.lists(values, min_size=n, max_size=n)),
                                    dtype=np.float64),
        )
        stats = StandardizationStats(mu=70.0, sigma=10.0)
        ours, theirs = tmp_path_factory.mktemp("ours"), tmp_path_factory.mktemp("theirs")
        with mock.patch.object(ingest, "_CHUNK_ROWS", data.draw(st.integers(1, 4))):
            save_prepared(ours, windows, stats, split, theta=95.0)
        save_prepared_reference(theirs, windows, stats, split, theta=95.0)
        for name in ("windows.csv", "dataset.json"):
            assert (ours / name).read_bytes() == (theirs / name).read_bytes(), name

        def in_range(bpm):
            return (HR_MIN <= bpm) & (bpm <= HR_MAX)

        faulty = np.flatnonzero((windows.start_indices < 0)
                                | ~in_range(windows.contexts_bpm).all(axis=1)
                                | ~in_range(windows.fc_targets_bpm))
        if len(faulty):
            with open(ours / "windows.csv", encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                lines = [reader.line_num for _ in reader]
            where = re.escape(f"{ours / 'windows.csv'}:{lines[faulty[0] + 1]}: ")
            with pytest.raises(DataError, match=f"^{where}"):
                load_prepared(ours)
            with pytest.raises(DataError, match=f"^{where}"):
                ingest._scan_windows(ours / "windows.csv", split)
            return
        expected = load_prepared_reference(theirs)
        loaded = load_prepared(ours)
        scanned = WindowedDataset(ingest._scan_windows(ours / "windows.csv", split),
                                  split, stats, 95.0)
        for name in ("train", "val", "test"):
            _assert_same_columns(loaded.split(name), expected.split(name))
            _assert_same_columns(scanned.split(name), expected.split(name))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_the_fingerprint_is_that_of_the_dataset_json_bytes(self, tmp_path, newline):
        windows, assignment = _toy_windows(), {"a": "train", "b": "val", "c": "test"}
        save_prepared(tmp_path, windows, standardize(windows, assignment), assignment,
                      theta=100.0)
        meta = tmp_path / "dataset.json"
        meta.write_bytes(meta.read_bytes().replace(b"\n", newline.encode()))
        digest = hashlib.sha256(meta.read_bytes()).hexdigest()
        assert load_prepared(tmp_path).sha256 == digest
        assert load_prepared(tmp_path, ("train", "val")).sha256 == digest

    @pytest.mark.parametrize("column, text, fault", [
        ("start_index", "-7", "is negative"), ("cls_label", "2", "is not 0 or 1"),
        ("cls_label", "-1", "is not 0 or 1"), ("fc_target", "nan", "is not finite"),
        ("ctx_0", "-inf", "is not finite"), ("ctx_59", "1e400", "is not finite"),
        ("ctx_9", "1e300", "is outside [20, 220] bpm"),
        ("fc_target", "19.999999999999996", "is outside [20, 220] bpm")])
    def test_a_row_that_cannot_be_a_window_is_named_in_any_split(self, tmp_path, column, text,
                                                                  fault):
        windows, assignment = _toy_windows(), {"a": "train", "b": "val", "c": "test"}
        save_prepared(tmp_path, windows, standardize(windows, assignment), assignment,
                      theta=100.0)
        path = tmp_path / "windows.csv"
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        # the last row, record c's, is in the test split, which is not loaded
        fields = rows[-1].split(",")
        fields[header.split(",").index(column)] = text
        rows[-1] = ",".join(fields)
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        with pytest.raises(DataError) as raised:
            load_prepared(tmp_path, ("train", "val"))
        assert str(raised.value) == f"{path}:{len(rows) + 1}: {column} {text!r} {fault}"

    @pytest.mark.filterwarnings("error")
    def test_header_only_file_loads_as_empty_splits(self, tmp_path):
        T = CONTEXT_LEN
        empty = Windows(np.array([], dtype=str), np.array([], dtype=np.int64),
                        np.empty((0, T)), np.array([], dtype=np.int64), np.empty(0))
        split = {"a": "train", "b": "val", "c": "test"}
        save_prepared(tmp_path, empty, StandardizationStats(70.0, 10.0), split, theta=100.0)
        assert (tmp_path / "windows.csv").read_bytes().count(b"\r\n") == 1
        loaded, expected = load_prepared(tmp_path), load_prepared_reference(tmp_path)
        for name in ("train", "val", "test"):
            assert loaded.split(name).contexts_bpm.shape == (0, T)
            _assert_same_columns(loaded.split(name), expected.split(name))

    def test_a_missing_peak_file_names_its_manifest_line(self, tmp_path):
        (tmp_path / "r1.txt").write_text("1.0\n2.0\n", encoding="utf-8")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("record_id,path\nr1,r1.txt\nr2,r2.txt\n", encoding="utf-8")
        with pytest.raises(DataError) as raised:
            read_manifest(manifest)
        assert str(raised.value) == (f"{manifest}:3: {tmp_path / 'r2.txt'}: "
                                     "No such file or directory")

    def test_a_dataset_loaded_for_training_holds_no_test_split(self, tmp_path):
        windows, assignment = _toy_windows(), {"a": "train", "b": "val", "c": "test"}
        save_prepared(tmp_path, windows, standardize(windows, assignment), assignment,
                      theta=100.0)
        full, loaded = load_prepared(tmp_path), load_prepared(tmp_path, ("train", "val"))
        assert full.split_sizes()["test"] > 0
        assert loaded.split_sizes() == {"train": full.split_sizes()["train"],
                                        "val": full.split_sizes()["val"]}
        for name in ("train", "val"):
            _assert_same_columns(loaded.split(name), full.split(name))
        with pytest.raises(KeyError, match="'test' is not loaded"):
            loaded.split("test")
