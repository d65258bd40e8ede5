import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import episode_level_reference

from hrbench import synth
from hrbench.ingest import HrSeries, build_windows, derive_hr, read_manifest
from hrbench.synth import SyntheticSpec, generate_corpus, hr_to_peaks, write_corpus


class TestGenerate:
    def test_deterministic_given_seed(self):
        spec = SyntheticSpec(n_records=3, record_seconds=300, seed=11)
        a, _ = generate_corpus(spec)
        b, _ = generate_corpus(spec)
        for ra, rb in zip(a, b):
            assert ra.record_id == rb.record_id
            np.testing.assert_array_equal(ra.peak_times, rb.peak_times)

    def test_zero_amplitude_has_no_positive_windows(self):
        spec = SyntheticSpec(
            n_records=4, record_seconds=600, base_hr=75.0, episode_amplitude=0.0, seed=5
        )
        records, bookkeeping = generate_corpus(spec)
        for record in records:
            series = derive_hr(record)
            assert build_windows(series, theta=100.0).cls_labels.sum() == 0
        for entry in bookkeeping["records"].values():
            assert entry["true_positive_windows_theta100"] == 0

    def test_default_corpus_window_count(self):
        # floor((1800 - 70) / 60) + 1 = 29 windows per record, 20 records
        records, _ = generate_corpus(SyntheticSpec())
        total = 0
        for record in records:
            total += len(build_windows(derive_hr(record), theta=100.0))
        assert total == 29 * 20 == 580

    def test_bookkeeping_counts_match_pipeline_within_ten_percent(self):
        records, bookkeeping = generate_corpus(SyntheticSpec())
        true_total = sum(
            entry["true_positive_windows_theta100"]
            for entry in bookkeeping["records"].values()
        )
        pipeline_total = 0
        for record in records:
            series = derive_hr(record)
            pipeline_total += build_windows(series, theta=100.0).cls_labels.sum()
        assert true_total > 0
        assert abs(pipeline_total - true_total) <= 0.1 * true_total

    def test_samples_within_physiological_clip(self):
        records, _ = generate_corpus(SyntheticSpec(n_records=3, record_seconds=400, seed=2))
        for record in records:
            series = derive_hr(record)
            assert series.hr.min() >= 20.0
            assert series.hr.max() <= 220.0


# rates up to 3600 an hour make episodes overlap and run past the record's end
@given(seconds=st.integers(1, 3000), rate=st.floats(0.0, 3600.0),
       amplitude=st.floats(-60.0, 60.0), seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_episode_level_equals_the_whole_record_sum(seconds, rate, amplitude, seed):
    spec = SyntheticSpec(record_seconds=seconds, episode_rate_per_hour=rate,
                         episode_amplitude=amplitude, seed=seed)
    level, _ = synth._episode_level(spec, np.random.default_rng(seed))
    want = episode_level_reference(spec, np.random.default_rng(seed))
    assert level.tobytes() == want.tobytes()


class TestPeakRoundTrip:
    @pytest.mark.parametrize("bpm", [40.0, 72.0, 113.0, 180.0])
    def test_constant_rate_recovers_exactly(self, bpm):
        hr = np.full(120, bpm)
        series = derive_hr_from(hr)
        assert np.abs(series.hr - bpm).max() < 1e-6

    def test_slow_ramp_recovers_within_one_bpm(self):
        hr = np.linspace(40.0, 180.0, 400)  # 0.35 bpm per second
        series = derive_hr_from(hr)
        n = len(series.hr)
        assert np.abs(series.hr - hr[:n]).max() < 1.0

    def test_gentle_wave_recovers_within_one_bpm(self):
        t = np.arange(600)
        hr = 110.0 + 60.0 * np.sin(2 * np.pi * t / 600.0)  # peak slope ~0.63 bpm/s
        series = derive_hr_from(hr)
        n = len(series.hr)
        assert np.abs(series.hr - hr[:n]).max() < 1.0


def derive_hr_from(hr):
    from hrbench.ingest import RPeakRecord

    return derive_hr(RPeakRecord("round", hr_to_peaks(hr)))


class TestWriteCorpus:
    def test_files_round_trip(self, tmp_path):
        spec = SyntheticSpec(n_records=3, record_seconds=200, seed=4)
        records, bookkeeping = generate_corpus(spec)
        manifest = write_corpus(tmp_path, records, bookkeeping)
        loaded = read_manifest(manifest)
        assert [r.record_id for r in loaded] == [r.record_id for r in records]
        for a, b in zip(loaded, records):
            np.testing.assert_allclose(a.peak_times, b.peak_times, atol=1e-6)
        with open(tmp_path / "bookkeeping.json", encoding="utf-8") as fh:
            assert json.load(fh)["spec"]["n_records"] == 3

    def test_same_seed_same_bytes(self, tmp_path):
        spec = SyntheticSpec(n_records=2, record_seconds=150, seed=9)
        for sub in ("a", "b"):
            records, bookkeeping = generate_corpus(spec)
            write_corpus(tmp_path / sub, records, bookkeeping)
        for name in ("manifest.csv", "synth000.txt", "synth001.txt", "bookkeeping.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
