"""The three workloads: corpus, program configuration, set-up and timed part.

A set-up fills a fresh directory with `corpus/` (peak files and manifest)
and, where the workload needs them, `dataset/` (prepared windows) and `runs/`
(trained runs); each timed round works on its own fresh copy of it. Set-up
runs in the benchmark process; each part of the timed part runs in a fresh
worker process (see worker.py), so set-up cannot hide a part's peak memory,
and on train_grid the Transformer's peak cannot hide the GRU-D's.
"""

from __future__ import annotations

import time
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

from corpus import Corpus, CorpusSpec

from hrbench import ingest, pipeline
from hrbench.config import BenchConfig, DataConfig

# the desk-scale corpus (20 records x 1800 s): every record holds episodes
# well above 100 bpm, so the guard keeps theta = 100 and every split has the
# same number of windows whatever the seed
DESK = CorpusSpec(n_records=20, seconds=1800, base_hr=78.0, episode_rate_per_hour=4.0,
                  episode_amplitude=42.0, osc_amplitude=10.0)
# ten MIT-BIH-sized record sets (480 records x 1800 s); episodes top out
# below 100 bpm, so the guard rejects theta = 100 before it accepts one
INGEST = CorpusSpec(n_records=480, seconds=1800, base_hr=72.0, episode_rate_per_hour=2.0,
                    episode_amplitude=16.0, osc_amplitude=4.0, hr_high=98.0)

CORPORA = {"train_grid": DESK, "evaluate_runs": DESK, "prepare_corpus": INGEST}
STREAMS = {"train_grid": 1, "evaluate_runs": 2, "prepare_corpus": 3}
ENCODERS = ("grud", "transformer")
TASKS = ("classification", "forecasting")
# the timed part of a round, one worker process per part
PARTS = {"train_grid": ENCODERS, "evaluate_runs": ("evaluate_report",),
         "prepare_corpus": ("prepare_load",)}


def config(workload: str, round_dir) -> BenchConfig:
    """Published protocol (AdamW 1e-3, batch 64, 6 epochs, 1000 draws), except
    that both train_grid and evaluate_runs train seed 0 only, and
    evaluate_runs trains for one epoch in set-up, since its timed part never
    trains."""
    base = Path(round_dir)
    cfg = BenchConfig(
        data=DataConfig(peaks_manifest=str(base / "corpus" / "manifest.csv"),
                        dataset_dir=str(base / "dataset")),
        runs_dir=str(base / "runs"),
    )
    if workload == "train_grid":
        return replace(cfg, train=replace(cfg.train, seeds=(0,)))
    if workload == "evaluate_runs":
        return replace(cfg, train=replace(cfg.train, seeds=(0,), epochs=1))
    return cfg


def only(cfg: BenchConfig, kind: str) -> BenchConfig:
    return replace(cfg, models=replace(cfg.models, kinds=(kind,)))


def grid(cfg: BenchConfig) -> list[tuple[str, str, int]]:
    """(model kind, task, seed) of every run the configuration trains."""
    return [(k, t, s) for k in cfg.models.kinds for t in TASKS for s in cfg.train.seeds]


def set_up(workload: str, corpus: Corpus, round_dir) -> None:
    """Write the corpus; prepare it, and for evaluate_runs train the grid."""
    round_dir = Path(round_dir)
    corpus.write(round_dir / "corpus")
    if workload == "prepare_corpus":
        return
    cfg = config(workload, round_dir)
    with open(round_dir / "setup.log", "w", encoding="utf-8") as log, redirect_stdout(log):
        pipeline.run_prepare(cfg)
        if workload == "evaluate_runs":
            pipeline.run_train(cfg)


def timed_part(workload: str, round_dir, part: str) -> dict:
    """Run one part of the workload's timed calls; returns its wall time in
    seconds under "parts"."""
    cfg = config(workload, round_dir)
    start = time.perf_counter()
    if workload == "train_grid":
        pipeline.run_train(only(cfg, part))
        return {"parts": {part: time.perf_counter() - start}}
    if workload == "evaluate_runs":
        pipeline.run_evaluate(cfg)
        pipeline.run_report(cfg.runs_dir)
        return {"parts": {part: time.perf_counter() - start}}
    pipeline.run_prepare(cfg)
    dataset = ingest.load_prepared(cfg.data.dataset_dir)
    elapsed = time.perf_counter() - start
    return {"parts": {part: elapsed}, "split_sizes": dataset.split_sizes()}
