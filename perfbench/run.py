"""hrbench benchmark: one workload per invocation, timed from outside.

    python3 perfbench/run.py --workload {train_grid,evaluate_runs,prepare_corpus}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/`. A run sets up at least three times, each in a fresh directory, so
that `setup_s` is a median; then it repeats rounds, each on a fresh copy of the
first set-up and with each part of the timed part (on train_grid, each
encoder's training) in a fresh worker process, until the timed parts add up
to S seconds. It checks the outputs against its own
computations (checks.py) and prints one JSON object as the last line: the
end-to-end metrics with --trace 0, the per-layer metrics from spans
(spans.py) with --trace 1. Program output and round directories go to
`.perfbench_out/<workload>/`, replaced on each run.

The benchmark's modules are imported inside functions: the BLAS thread
count must be set before numpy loads, and `workloads` imports the program,
which must first be found under `src/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("train_grid", "evaluate_runs", "prepare_corpus")
# a run sets up at least MIN_SETUPS times, and a cheap set-up repeats until
# the set-ups add up to SETUP_SECONDS, so that the median is steady
MIN_SETUPS = 3
SETUP_SECONDS = 5.0
WORKER_TIMEOUT_S = 170
# one BLAS thread: below nproc on any machine, and steadier than two
# threads on a shared two-core box
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchFailure(Exception):
    """The benchmark cannot produce a result."""


def _import_program():
    if not (SRC / "hrbench" / "__init__.py").is_file():
        raise BenchFailure(f"no program to measure: {SRC / 'hrbench'} is missing")
    sys.path.insert(0, str(SRC))
    import hrbench

    if Path(hrbench.__file__).resolve().parent != SRC / "hrbench":
        raise BenchFailure(f"hrbench imported from {hrbench.__file__}, not from {SRC}")


def _worker(workload: str, round_dir: Path, trace: bool, part: str) -> dict:
    log_path = round_dir / f"worker_{part}.log"
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(round_dir), str(int(trace)),
             part],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, timeout=WORKER_TIMEOUT_S,
        )
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8")[-2000:]
        raise BenchFailure(f"{workload} timed part {part} exited {proc.returncode}:\n{tail}")
    return json.loads((round_dir / f"result_{part}.json").read_text(encoding="utf-8"))


def _round(workload: str, round_dir: Path, trace: bool) -> dict:
    """Run each part of the timed part in its own worker; "maxrss_kb" maps
    each part to its worker's peak resident memory."""
    import workloads

    merged = {"dir": round_dir, "parts": {}, "maxrss_kb": {}, "wall_s": 0.0}
    for part in workloads.PARTS[workload]:
        result = _worker(workload, round_dir, trace, part)
        merged["parts"].update(result["parts"])
        merged["maxrss_kb"][part] = result["maxrss_kb"]
        merged["wall_s"] += result["wall_s"]
        if "split_sizes" in result:
            merged["split_sizes"] = result["split_sizes"]
    return merged


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up repeatedly, then run rounds, each on a fresh copy of the first
    set-up's directory, until the timed parts add up to `seconds`."""
    import workloads
    from corpus import make_corpus

    out = ROOT / ".perfbench_out" / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    corpus = make_corpus(workloads.CORPORA[workload], seed, workloads.STREAMS[workload])

    setups, setup_s = [], []
    while len(setups) < MIN_SETUPS or sum(setup_s) < SETUP_SECONDS:
        setups.append(out / f"setup{len(setups)}")
        setups[-1].mkdir()
        start = time.perf_counter()
        workloads.set_up(workload, corpus, setups[-1])
        setup_s.append(time.perf_counter() - start)

    rounds, timed = [], 0.0
    while timed < seconds or not rounds:
        round_dir = out / f"round{len(rounds)}"
        shutil.copytree(setups[0], round_dir)
        rounds.append(_round(workload, round_dir, trace))
        timed += sum(rounds[-1]["parts"].values())

    cfg = workloads.config(workload, rounds[-1]["dir"])
    m = {"setup_s": setup_s, "rounds": rounds, "cfg": cfg}
    m.update(VERIFY[workload](corpus, setups, rounds, cfg, workloads.grid(cfg)))
    return m


def _verify_prepare_corpus(corpus, setups, rounds, cfg, grid) -> dict:
    """Rounds must write identical datasets, so the full check runs on the last."""
    import checks

    datasets = [r["dir"] / "dataset" for r in rounds]
    errors, failed = checks.check_prepared(
        corpus.record_ids, corpus.peaks, checks.Prepared.read(datasets[-1]),
        rounds[-1]["split_sizes"], first_theta_rejected=True)
    for name in ("windows.csv", "dataset.json"):
        errors += checks.check_identical(name, [d / name for d in datasets])
    if any(r["split_sizes"] != rounds[-1]["split_sizes"] for r in rounds):
        errors.append("load_prepared split sizes differ between repetitions")
    hr_samples = sum(len(checks.orc.hr_from_peaks(p)) for p in corpus.peaks)
    return {"errors": errors, "attempted": len(corpus.record_ids) * len(rounds),
            "failed": failed * len(rounds),
            "per_round": [hr_samples / r["parts"]["prepare_load"] for r in rounds]}


def _verify_prepared_setups(corpus, setups):
    import checks

    prep = checks.Prepared.read(setups[0] / "dataset")
    errors, _ = checks.check_prepared(corpus.record_ids, corpus.peaks, prep)
    errors += checks.check_identical("windows.csv", [d / "dataset" / "windows.csv" for d in setups])
    return errors, prep


def _verify_train_grid(corpus, setups, rounds, cfg, grid) -> dict:
    import checks

    errors, prep = _verify_prepared_setups(corpus, setups)
    failed = 0
    for r in rounds:
        e, f = checks.check_trained(prep, r["dir"] / "runs", grid, cfg.train.epochs)
        errors += e
        failed += f
    errors += checks.check_runs_identical([r["dir"] / "runs" for r in rounds])
    windows = int(prep.mask("train").sum()) * cfg.train.epochs * len(grid)
    return {"errors": errors, "attempted": len(grid) * len(rounds), "failed": failed,
            "per_round": [windows / sum(r["parts"].values()) for r in rounds],
            "n_train": int(prep.mask("train").sum())}


def _verify_evaluate_runs(corpus, setups, rounds, cfg, grid) -> dict:
    """Rounds must write identical reports, so the full check runs on the last."""
    import checks

    errors, prep = _verify_prepared_setups(corpus, setups)
    errors += checks.check_runs_identical([d / "runs" for d in setups])
    e, failed = checks.check_report(prep, rounds[-1]["dir"] / "runs", grid, cfg.train.seeds)
    errors += e
    errors += checks.check_identical("report.csv", [r["dir"] / "runs" / "report.csv"
                                                    for r in rounds])
    per_round = []
    for r in rounds:
        rows = [row for row in checks.read_report(r["dir"] / "runs") if row["ci_low"] is not None]
        per_round.append(len(rows) / r["parts"]["evaluate_report"])
    return {"errors": errors, "attempted": len(grid) * len(rounds),
            "failed": failed * len(rounds), "per_round": per_round}


VERIFY = {"train_grid": _verify_train_grid, "evaluate_runs": _verify_evaluate_runs,
          "prepare_corpus": _verify_prepare_corpus}


def _mb(kb: int) -> float:
    return kb * 1024 / 1e6


def end_to_end(m: dict) -> dict:
    return {
        "setup_s": {"value": statistics.median(m["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(_mb(max(r["maxrss_kb"].values()))
                                                   for r in m["rounds"]),
                        "unit": "MB"},
        "work_per_s": {"value": statistics.median(m["per_round"]), "unit": "1/s"},
    }


def per_layer(workload: str, m: dict) -> tuple[dict, list[str]]:
    """Every per-layer metric BENCHMARK.json names, with its unit there."""
    import spans
    import workloads

    rounds, errors = [], []
    for r in m["rounds"]:
        metrics = spans.round_metrics(spans.read_spans(
            [r["dir"] / f"spans_{part}.jsonl" for part in workloads.PARTS[workload]]))
        if workload == "train_grid":
            cfg = m["cfg"]
            want = cfg.train.epochs * math.ceil(m["n_train"] / cfg.train.batch_size)
            steps = metrics["_steps_per_run"]
            if not steps or any(n != want for n in steps):
                errors.append(f"optimizer steps per run {steps}, "
                              f"expected {want} (epochs x ceil(n_train / batch))")
        rounds.append(metrics)
    values = spans.combine(rounds)
    values["trace.timed_s"] = statistics.median(r["wall_s"] for r in m["rounds"])
    for kind in workloads.ENCODERS:
        values[f"training.{kind}.peak_rss_mb"] = statistics.median(
            _mb(r["maxrss_kb"].get(kind, 0)) for r in m["rounds"])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        raise BenchFailure(f"no value for the per-layer metrics {missing}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        _import_program()
        with redirect_stdout(sys.stderr):
            m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            errors = list(m["errors"])
            if args.trace:
                metrics, trace_errors = per_layer(args.workload, m)
                errors += trace_errors
            else:
                metrics = end_to_end(m)
    except BenchFailure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for error in errors:
        print(f"perfbench check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": m["attempted"], "failed": m["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
