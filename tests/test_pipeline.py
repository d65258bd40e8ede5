import contextlib
import csv
import gzip
import hashlib
import json
import multiprocessing
import os
import pickle
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from hrbench import cli, errors, models, pipeline
from hrbench.autodiff import save_checkpoint
from hrbench.config import (
    BenchConfig,
    CalibrationConfig,
    DataConfig,
    EvaluationConfig,
    ModelsConfig,
    SplitConfig,
    load_config,
    render_config,
    write_default_config,
)
from hrbench.errors import DataError, EvaluationError, HelperDied, TrainingDiverged
from hrbench.ingest import load_prepared
from hrbench.models import GrudConfig
from hrbench.synth import SyntheticSpec
from hrbench.training import TrainConfig


def micro_config(tmp_path, **overrides) -> BenchConfig:
    base = BenchConfig(
        data=DataConfig(
            dataset_dir=str(tmp_path / "dataset"), synth_dir=str(tmp_path / "synth")
        ),
        split=SplitConfig(ratios=(0.5, 0.25, 0.25), seed=0),
        models=ModelsConfig(grud_hidden=8, d_model=8, layers=1, heads=2, ffn_dim=16),
        train=TrainConfig(epochs=2, seeds=(0,)),
        calibration=CalibrationConfig(),
        evaluation=EvaluationConfig(bootstrap_draws=40, bootstrap_seed=5),
        synth=SyntheticSpec(n_records=10, record_seconds=500, episode_rate_per_hour=22.0, seed=3),
        runs_dir=str(tmp_path / "runs"),
    )
    return replace(base, **overrides)


@pytest.fixture()
def prepared(tmp_path):
    config = micro_config(tmp_path)
    pipeline.run_synth(config)
    summary = pipeline.run_prepare(config)
    return config, summary


class TestPrepare:
    def test_summary_and_files(self, prepared, capsys):
        config, summary = prepared
        assert summary.theta in (100.0, 95.0, 90.0, 85.0)
        assert summary.n_positive_records >= 3
        assert summary.n_positive_windows >= 40
        assert (Path(config.data.dataset_dir) / "windows.csv").exists()
        assert (Path(config.data.dataset_dir) / "dataset.json").exists()

    def test_no_records_is_exit_code_2(self, tmp_path):
        manifest = tmp_path / "empty.csv"
        manifest.write_text("record_id,path\n", encoding="utf-8")
        ini = tmp_path / "bench.ini"
        ini.write_text(
            f"[data]\npeaks_manifest = {manifest}\n", encoding="utf-8"
        )
        code = cli.main(["prepare", "--config", str(ini)])
        assert code == 2

    def test_exclusion_list(self, tmp_path, capsys):
        config = micro_config(tmp_path)
        pipeline.run_synth(config)
        excluded = replace(
            config, data=replace(config.data, exclude=("synth000", "synth001"))
        )
        pipeline.run_prepare(excluded)
        sidecar = json.loads(
            (Path(config.data.dataset_dir) / "dataset.json").read_text(encoding="utf-8")
        )
        assert "synth000" not in sidecar["split"]

    def test_an_excluded_record_is_not_read(self, tmp_path, capsys):
        # a missing peak file stopped prepare, though exclude left its record out
        config = micro_config(tmp_path)
        pipeline.run_synth(config)
        manifest = Path(config.data.synth_dir) / "manifest.csv"
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write("mitbih102,missing102.txt\n")
        ini = tmp_path / "bench.ini"
        ini.write_text(render_config(replace(config, data=replace(
            config.data, exclude=("mitbih102",)))), encoding="utf-8")
        assert cli.main(["prepare", "--config", str(ini)]) == 0
        sidecar = json.loads(
            (Path(config.data.dataset_dir) / "dataset.json").read_text(encoding="utf-8"))
        assert "mitbih102" not in sidecar["split"] and len(sidecar["split"]) == 10
        # its row is still read as a manifest row
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write("mitbih102,missing102.txt\n")
        capsys.readouterr()
        assert cli.main(["prepare", "--config", str(ini)]) == DataError.exit_code
        assert "record 'mitbih102' is listed twice" in capsys.readouterr().err


class TestTrain:
    def test_grid_and_artifacts(self, prepared):
        config, _ = prepared
        run_ids = pipeline.run_train(config)
        assert len(run_ids) == 4  # 2 models x 2 tasks x 1 seed
        for run_id in run_ids:
            run_dir = Path(config.runs_dir) / run_id
            assert (run_dir / "checkpoint.json").exists()
            assert (run_dir / "manifest.json").exists()
            log = (run_dir / "train_log.csv").read_text(encoding="utf-8").splitlines()
            assert log[0] == "run_id,epoch,split,loss"
            assert len(log) == 1 + 2 * config.train.epochs

    def test_each_manifest_holds_the_fingerprint_of_the_dataset_json_bytes(self, prepared):
        config, _ = prepared
        run_ids = pipeline.run_train(config)
        meta = Path(config.data.dataset_dir) / "dataset.json"
        digest = hashlib.sha256(meta.read_bytes()).hexdigest()
        assert load_prepared(config.data.dataset_dir).sha256 == digest
        assert {json.loads((Path(config.runs_dir) / run_id / "manifest.json").read_text(
            encoding="utf-8"))["dataset_sha256"] for run_id in run_ids} == {digest}

    def test_hidden_sweep_adds_classification_runs(self, prepared):
        config, _ = prepared
        swept = replace(config, hidden_sweep=(4,), runs_dir=config.runs_dir + "_sweep")
        run_ids = pipeline.run_train(swept)
        assert "classification_grud_h4_seed0" in run_ids
        assert len(run_ids) == 5

    def test_rerun_is_byte_identical(self, prepared, tmp_path):
        config, _ = prepared
        a_dir, b_dir = tmp_path / "runs_a", tmp_path / "runs_b"
        ids_a = pipeline.run_train(replace(config, runs_dir=str(a_dir)))
        ids_b = pipeline.run_train(replace(config, runs_dir=str(b_dir)))
        assert ids_a == ids_b
        for run_id in ids_a:
            a = (a_dir / run_id / "checkpoint.json").read_bytes()
            b = (b_dir / run_id / "checkpoint.json").read_bytes()
            assert a == b

    def test_a_run_whose_log_cannot_be_written_has_no_checkpoint(self, prepared, capsys):
        config, _ = prepared
        run_dir = Path(config.runs_dir) / "classification_grud_seed0"
        ini = Path(config.runs_dir).parent / "bench.ini"
        ini.write_text(render_config(replace(config, train=replace(config.train, epochs=1))),
                       encoding="utf-8")

        def train_with_an_unwritable_log():
            (run_dir / "train_log.csv").mkdir(parents=True)
            assert cli.main(["train", "--config", str(ini)]) == DataError.exit_code
            assert "train_log.csv" in capsys.readouterr().err
            assert json.loads((run_dir / "manifest.json").read_text(
                encoding="utf-8"))["train"]["epochs"] == 1
            assert not (run_dir / "checkpoint.json").exists()
            assert not list(run_dir.glob("*.tmp"))
            assert cli.main(["evaluate", "--config", str(ini)]) == EvaluationError.exit_code
            assert ("grid run classification_grud_seed0 has no checkpoint"
                    in capsys.readouterr().err)

        train_with_an_unwritable_log()
        # a rerun over a whole two-epoch grid that stops at the same run
        # removes that run's old checkpoint, which the new manifest no
        # longer describes
        (run_dir / "train_log.csv").rmdir()
        pipeline.run_train(config)
        (run_dir / "train_log.csv").unlink()
        train_with_an_unwritable_log()

    def test_sweep_and_absolute_runs_evaluate_under_their_labels(self, prepared):
        config, _ = prepared
        config = replace(config, hidden_sweep=(4,),
                         train=replace(config.train, target_mode="absolute"))
        run_ids = pipeline.run_train(config)
        assert "classification_grud_h4_seed0" in run_ids
        assert "forecasting_grud_absolute_seed0" in run_ids
        manifest = json.loads((Path(config.runs_dir) / "classification_grud_h4_seed0"
                               / "manifest.json").read_text(encoding="utf-8"))
        assert (manifest["hidden"], manifest["target_mode"]) == (4, "absolute")
        rows = pipeline.run_evaluate(config)
        labels = {(r["task"], r["model"]) for r in rows}
        assert ("classification", "grud_h4") in labels
        assert ("forecasting", "grud_absolute") in labels
        assert ("classification", "grud") in labels  # classification ignores target_mode

    def test_training_never_reads_test_split(self, prepared):
        config, _ = prepared
        # without the test split, a read of it would raise
        dataset = load_prepared(config.data.dataset_dir, ("train", "val"))
        from hrbench.training import train_model

        train_model(
            "classification", "grud", dataset, config.train, 0,
            encoder_config=GrudConfig(hidden_dim=8),
        )


def _pin_cpus(monkeypatch, n: int) -> None:
    """Let a stage see `n` CPUs, and so run its runs on `n` processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _running(pid: int) -> bool:
    """Whether the process `pid` still runs (a zombie does not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _bench(ini: Path, stage: str, stderr=subprocess.PIPE) -> subprocess.Popen:
    """`bench <stage>` started in a process of its own."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-m", "hrbench.cli", stage, "--config", str(ini)],
                            env=env, stdout=subprocess.DEVNULL, stderr=stderr, text=True)


def _helpers(bench: subprocess.Popen) -> list[int]:
    """The child processes of `bench` once it has any; none if it ends first."""
    children = Path(f"/proc/{bench.pid}/task/{bench.pid}/children")
    deadline = time.monotonic() + 120
    while bench.poll() is None and time.monotonic() < deadline:
        try:
            pids = [int(pid) for pid in children.read_text().split()]
        except FileNotFoundError:  # bench has just ended
            break
        if pids:
            return pids
        time.sleep(1e-3)
    return []


def _bench_killing_its_helper(ini: Path, stage: str):
    """Run `bench <stage>` in a process of its own and SIGKILL its first
    helper process once one exists. Returns the exit code, stderr, the
    killed pid and every child process seen."""
    bench = _bench(ini, stage)
    seen = _helpers(bench)
    killed = seen[0] if seen else None
    if killed:
        os.kill(killed, signal.SIGKILL)
    err = bench.communicate(timeout=300)[1]
    return bench.returncode, err, killed, set(seen)


needs_proc_children = pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists()
    or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="needs two CPUs and Linux's /proc/<pid>/task/<pid>/children")


class TestTrainPool:
    def test_one_process_and_two_write_the_same_bytes_and_lines(self, prepared, tmp_path,
                                                                monkeypatch, capsys):
        config, _ = prepared
        grid_ids = [spec.run_id for spec in pipeline._grid(config)]
        files, lines = {}, {}
        for n in (1, 2):
            _pin_cpus(monkeypatch, n)
            runs = replace(config, runs_dir=str(tmp_path / f"runs_{n}"))
            capsys.readouterr()
            assert pipeline.run_train(runs) == grid_ids
            lines[n] = capsys.readouterr().out.splitlines()
            base = Path(runs.runs_dir)
            files[n] = {path.relative_to(base).as_posix(): path.read_bytes()
                        for path in base.rglob("*") if path.is_file()}
        assert [line.split(":")[0] for line in lines[1]] == grid_ids
        assert lines[1] == lines[2]
        assert len(files[1]) == 3 * len(grid_ids) and files[1] == files[2]

    @needs_proc_children
    def test_a_killed_helper_ends_train_with_a_typed_error(self, prepared, capsys):
        config, _ = prepared
        ini = Path(config.runs_dir).parent / "bench.ini"
        ini.write_text(render_config(config), encoding="utf-8")
        assert cli.main(["train", "--config", str(ini)]) == 0  # every run has a checkpoint
        code, err, killed, seen = _bench_killing_its_helper(ini, "train")
        assert killed and code == HelperDied.exit_code
        assert f"exited with code {-signal.SIGKILL}; runs left untrained: " in err
        untrained = err.strip().split("runs left untrained: ")[1].split(", ")
        assert untrained and set(untrained) <= {spec.run_id for spec in pipeline._grid(config)}
        assert not any(map(_running, seen))
        # the runs the killed train left have no checkpoint, not the first train's
        assert cli.main(["evaluate", "--config", str(ini)]) == EvaluationError.exit_code
        assert f"grid run {min(untrained)} has no checkpoint" in capsys.readouterr().err

    @needs_proc_children
    def test_a_killed_bench_leaves_no_helper_training(self, prepared):
        # eight runs, so that a helper left to itself would train several
        config, _ = prepared
        config = replace(config, train=replace(config.train, seeds=(0, 1)))
        ini = Path(config.runs_dir).parent / "bench.ini"
        ini.write_text(render_config(config), encoding="utf-8")
        # stderr not piped: the helper would hold the pipe open
        bench = _bench(ini, "train", stderr=subprocess.DEVNULL)
        helpers = _helpers(bench)
        bench.kill()  # SIGKILL, sent only while bench runs
        assert helpers and bench.wait(timeout=60) == -signal.SIGKILL

        def checkpoints():
            return len(list(Path(config.runs_dir).glob("*/checkpoint.json")))

        at_kill = checkpoints()
        # a helper finishes the run it holds, so that run's files are whole,
        # and takes no other
        deadline = time.monotonic() + 60
        while any(map(_running, helpers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, helpers))
        assert checkpoints() <= at_kill + 1 < len(pipeline._grid(config))

    def test_a_runs_error_reaches_the_cli_unchanged_from_any_process(self, prepared,
                                                                    monkeypatch, capsys):
        config, _ = prepared
        ini = Path(config.runs_dir).parent / "bench.ini"
        ini.write_text(render_config(config), encoding="utf-8")
        # the second run's log cannot be written
        (Path(config.runs_dir) / "forecasting_grud_seed0" / "train_log.csv").mkdir(parents=True)
        ends = []
        for n in (1, 2):
            _pin_cpus(monkeypatch, n)
            ends.append((cli.main(["train", "--config", str(ini)]), capsys.readouterr().err))
            assert multiprocessing.active_children() == []
        assert ends[0] == ends[1]
        assert ends[0][0] == DataError.exit_code
        assert ends[0][1] == (f"error: {Path(config.runs_dir)}/forecasting_grud_seed0/"
                              "train_log.csv: Is a directory\n")

    def test_an_old_checkpoint_that_cannot_be_removed_stops_train_before_any_run(
            self, prepared, monkeypatch, capsys):
        config, _ = prepared
        ini = Path(config.runs_dir).parent / "bench.ini"
        ini.write_text(render_config(config), encoding="utf-8")
        checkpoint = Path(config.runs_dir) / "forecasting_grud_seed0" / "checkpoint.json"
        checkpoint.mkdir(parents=True)
        _pin_cpus(monkeypatch, 2)
        assert cli.main(["train", "--config", str(ini)]) == DataError.exit_code
        assert capsys.readouterr().err.startswith(f"error: {checkpoint}: ")
        assert multiprocessing.active_children() == []
        assert not list(Path(config.runs_dir).glob("*/manifest.json"))

    def test_a_script_without_a_main_guard_keeps_its_checkpoints(self, prepared, tmp_path):
        # a forked helper does not run the script's main module again
        config, _ = prepared
        ini = tmp_path / "bench.ini"
        ini.write_text(render_config(config), encoding="utf-8")
        script = tmp_path / "train_unguarded.py"
        script.write_text("import os\n"
                          "os.sched_getaffinity = lambda pid: {0, 1}\n"
                          "from hrbench import config, pipeline\n"
                          f"pipeline.run_train(config.load_config({str(ini)!r}))\n",
                          encoding="utf-8")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                             text=True, timeout=300).stdout
        trained = [line.split(":")[0] for line in out.splitlines()]
        assert trained == [spec.run_id for spec in pipeline._grid(config)]
        assert all((Path(config.runs_dir) / run_id / "checkpoint.json").exists()
                   for run_id in trained)

    def test_a_helper_sends_its_runs_error_and_stops_the_claims(self, prepared):
        config, _ = prepared
        # a float32 step of lr = inf: the second step's loss is NaN
        config = replace(config, train=replace(config.train, lr=1e300))
        grid = pipeline._grid(config)
        dataset = load_prepared(config.data.dataset_dir, ("train", "val"))

        def run(index):
            with np.errstate(over="ignore", invalid="ignore"):
                return pipeline._train_run(config, dataset, grid[index])

        with pytest.raises(TrainingDiverged) as inline:
            run(1)
        context = multiprocessing.get_context("fork")
        claims = pipeline._claims(range(1, len(grid)))
        receiver, sender = context.Pipe(duplex=False)
        helper = context.Process(target=pipeline._serve,
                                 args=(run, claims, sender, os.getpid()))
        helper.start()
        sender.close()
        try:
            assert receiver.poll(120)
            index, error = receiver.recv()
            helper.join(timeout=60)
            assert (index, type(error), str(error)) == (1, TrainingDiverged, str(inline.value))
            assert helper.exitcode == 0 and list(pipeline._claimed(claims)) == []
        finally:
            os.close(claims)


class TestEvaluatePool:
    @pytest.fixture()
    def trained(self, prepared):
        config, _ = prepared
        pipeline.run_train(config)
        return config

    def test_one_process_and_two_write_the_same_bytes(self, trained, tmp_path, monkeypatch):
        files = {}
        for n in (1, 2):
            _pin_cpus(monkeypatch, n)
            runs = replace(trained, runs_dir=str(tmp_path / f"runs_{n}"))
            shutil.copytree(trained.runs_dir, runs.runs_dir)
            pipeline.run_evaluate(runs)
            base = Path(runs.runs_dir)
            files[n] = {path.relative_to(base).as_posix(): path.read_bytes()
                        for path in base.rglob("*") if path.is_file()}
        written = {"report.csv", "report.json"} | {
            f"{spec.run_id}/calibration.json" for spec in pipeline._grid(trained)
            if spec.task == "classification"}
        assert written <= set(files[1]) and files[1] == files[2]

    def test_a_helpers_error_reaches_the_cli_unchanged(self, trained, tmp_path, monkeypatch,
                                                       capsys):
        ini = tmp_path / "bench.ini"
        ini.write_text(render_config(trained), encoding="utf-8")
        last = max(spec.run_id for spec in pipeline._grid(trained))
        checkpoint = Path(trained.runs_dir) / last / "checkpoint.json"
        checkpoint.write_text(checkpoint.read_text(encoding="utf-8")[:100], encoding="utf-8")
        # the calling process waits in its first run, so a helper takes the last
        caller, scored_by = os.getpid(), {}
        score_run = pipeline._score_run

        def slow_in_the_caller(config, dataset, spec):
            if os.getpid() == caller:
                time.sleep(0.5)
            (tmp_path / spec.run_id).write_text(str(os.getpid()), encoding="utf-8")
            return score_run(config, dataset, spec)

        monkeypatch.setattr(pipeline, "_score_run", slow_in_the_caller)
        ends = []
        for n in (1, 2):
            _pin_cpus(monkeypatch, n)
            ends.append((cli.main(["evaluate", "--config", str(ini)]), capsys.readouterr().err))
            scored_by[n] = int((tmp_path / last).read_text(encoding="utf-8"))
            assert multiprocessing.active_children() == []
            assert not (Path(trained.runs_dir) / "report.csv").exists()
        assert scored_by[1] == caller != scored_by[2]
        assert ends[0] == ends[1]
        assert ends[0][0] == EvaluationError.exit_code
        assert ends[0][1].startswith(f"error: run {last}: unreadable checkpoint.json under ")

    @needs_proc_children
    def test_a_killed_helper_ends_evaluate_with_a_typed_error(self, trained, tmp_path):
        # more bootstrap draws, so the calling process's first run outlasts the kill
        config = replace(trained, evaluation=replace(trained.evaluation, bootstrap_draws=2000))
        ini = tmp_path / "bench.ini"
        ini.write_text(render_config(config), encoding="utf-8")
        code, err, killed, seen = _bench_killing_its_helper(ini, "evaluate")
        assert killed and code == HelperDied.exit_code
        assert f"exited with code {-signal.SIGKILL}; runs left unscored: " in err
        unscored = err.strip().split("runs left unscored: ")[1].split(", ")
        assert unscored and set(unscored) <= {spec.run_id for spec in pipeline._grid(config)}
        assert not any(map(_running, seen))
        assert not (Path(config.runs_dir) / "report.csv").exists()


def test_the_calling_process_takes_the_first_run_and_any_grid_the_claims_cannot_hold(
        monkeypatch):
    import fcntl  # a Unix module, as the pool is Linux-only

    _pin_cpus(monkeypatch, 2)
    assert next(pipeline._pooled(lambda index: os.getpid(), ["a", "b"], "test", "undone")) \
        == os.getpid()
    reader, writer = os.pipe()
    try:
        capacity = fcntl.fcntl(writer, fcntl.F_GETPIPE_SZ)
    finally:
        os.close(reader)
        os.close(writer)
    # one record more than the claims pipe holds: every run runs here
    ids = [str(index) for index in range(capacity // pipeline._CLAIM.size + 2)]
    outcomes = list(pipeline._pooled(lambda index: (index, os.getpid()), ids, "test", "undone"))
    assert outcomes == [(index, os.getpid()) for index in range(len(ids))]


def _claim_all(claims, start, conn, pause):
    """A process of the tests below: every index it takes, once all start,
    waiting `pause` seconds after each."""
    start.wait(timeout=120)
    taken = []
    for index in pipeline._claimed(claims):
        taken.append(index)
        time.sleep(pause)
    conn.send(taken)


def _claiming_at_once(n_runs: int, n_processes: int, victim=None, pause=0.0):
    """`n_processes` processes take indices from one claims pipe at once; the
    `victim`-th is SIGKILLed as they start. Returns what each process that
    ended took, by process, and their exit codes."""
    context = multiprocessing.get_context("fork")
    claims = pipeline._claims(range(n_runs))
    assert claims is not None
    try:
        start = context.Barrier(n_processes + 1)
        pipes = [context.Pipe(duplex=False) for _ in range(n_processes)]
        processes = [context.Process(target=_claim_all, args=(claims, start, sender, pause))
                     for _, sender in pipes]
        for process, (_, sender) in zip(processes, pipes):
            process.start()
            sender.close()
        start.wait(timeout=120)
        if victim is not None:
            os.kill(processes[victim].pid, signal.SIGKILL)
        taken, codes = [], []
        for (receiver, _), process in zip(pipes, processes):
            assert receiver.poll(120)
            with contextlib.suppress(EOFError):  # a killed process sends nothing
                taken.append(receiver.recv())
            process.join(timeout=60)
            assert not process.is_alive()
            codes.append(process.exitcode)
        assert list(pipeline._claimed(claims)) == []
    finally:
        os.close(claims)
    return taken, codes


def test_processes_claiming_at_once_take_every_run_once():
    # more processes than cores, all reading one claims pipe at once: a
    # shared or torn record would give two of them one index, or skip one
    n_runs = 16000
    taken, codes = _claiming_at_once(n_runs, 4)
    assert codes == [0] * 4
    assert sorted(index for indices in taken for index in indices) == list(range(n_runs))


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_a_process_killed_while_claiming_stops_no_other():
    # each process pauses after a claim, so the victim is still claiming
    n_runs = 16000
    taken, codes = _claiming_at_once(n_runs, 4, victim=0, pause=1e-4)
    assert codes == [-signal.SIGKILL, 0, 0, 0] and len(taken) == 3
    indices = [index for indices in taken for index in indices]
    assert len(set(indices)) == len(indices) and set(indices) <= set(range(n_runs))


@pytest.mark.parametrize("cls", [value for value in vars(errors).values()
                                 if isinstance(value, type) and issubclass(value, errors.BenchError)])
def test_every_bench_error_survives_a_pickle_round_trip(cls):
    # a helper process of `train` or `evaluate` sends the error its run raised this way
    error = pickle.loads(pickle.dumps(cls("a message")))
    assert (type(error), str(error), error.exit_code) == (cls, "a message", cls.exit_code)


class TestEvaluate:
    def test_report_contents(self, prepared):
        config, _ = prepared
        pipeline.run_train(config)
        rows = pipeline.run_evaluate(config)
        by_model = {(r["task"], r["model"], r["metric"]) for r in rows}
        assert ("classification", "grud", "auroc") in by_model
        assert ("classification", "transformer", "ece") in by_model
        assert ("forecasting", "grud", "crps") in by_model
        assert ("forecasting", "persistence", "mae") in by_model
        assert ("classification", "always_negative", "auroc") in by_model
        baseline = {
            r["metric"]: r for r in rows if r["model"] == "always_negative"
        }
        assert baseline["auroc"]["point"] == 0.5
        assert baseline["auprc"]["point"] == pytest.approx(baseline["prevalence"]["point"])
        assert baseline["brier"]["point"] == pytest.approx(baseline["prevalence"]["point"])
        assert baseline["ece"]["point"] is None
        assert baseline["f1_at_threshold"]["point"] is None
        report = Path(config.runs_dir) / "report.csv"
        assert report.exists()
        assert (Path(config.runs_dir) / "report.json").exists()
        for run_dir in Path(config.runs_dir).iterdir():
            if run_dir.is_dir() and run_dir.name.startswith("classification"):
                sidecar = json.loads((run_dir / "calibration.json").read_text("utf-8"))
                assert set(sidecar) == {"temperature", "threshold", "beta"}

    def test_baselines_scored_once_for_all_seeds(self, prepared, monkeypatch):
        config, _ = prepared
        config = replace(config, train=replace(config.train, seeds=(0, 1, 2), epochs=1))
        pipeline.run_train(config)
        calls = []
        bootstrap = pipeline.met.grouped_bootstrap

        def counted(*args, **kwargs):
            calls.append(args[2:])
            return bootstrap(*args, **kwargs)

        monkeypatch.setattr(pipeline.met, "grouped_bootstrap", counted)
        _pin_cpus(monkeypatch, 1)  # a helper's calls would not reach `calls`
        rows = pipeline.run_evaluate(config)
        # 6 classification runs x 6 metrics + 6 forecasting runs x 3, plus
        # 4 always-negative and 3 persistence metrics once, not once per seed
        assert len(calls) == 61
        baselines = {
            seed: [{k: v for k, v in r.items() if k != "seed"} for r in rows
                   if r["model"] in ("always_negative", "persistence") and r["seed"] == seed]
            for seed in (0, 1, 2)
        }
        assert len(baselines[0]) == 9
        assert baselines[0] == baselines[1] == baselines[2]

    def test_no_calibration_flag_pins_temperature(self, prepared):
        config, _ = prepared
        pipeline.run_train(config)
        off = replace(config, calibration=replace(config.calibration, enabled=False))
        pipeline.run_evaluate(off)
        for run_dir in Path(config.runs_dir).iterdir():
            if run_dir.is_dir() and run_dir.name.startswith("classification"):
                sidecar = json.loads((run_dir / "calibration.json").read_text("utf-8"))
                assert sidecar["temperature"] == 1.0

    def test_scores_exactly_the_grid(self, prepared, capsys):
        config, _ = prepared
        config = replace(config, train=replace(config.train, seeds=(0, 1, 2), epochs=1))
        pipeline.run_train(config)
        # a directory outside the grid is never read, however broken
        stray = Path(config.runs_dir) / "classification_grud_seed9"
        stray.mkdir()
        (stray / "manifest.json").write_text("{", encoding="utf-8")
        only_seed0 = replace(config, train=replace(config.train, seeds=(0,)))
        capsys.readouterr()
        rows = pipeline.run_evaluate(only_seed0)
        assert {r["seed"] for r in rows} == {0}
        # the trained runs left out are named; the stray one holds no checkpoint
        warning = capsys.readouterr().err
        assert "8 trained run(s)" in warning and "forecasting_transformer_seed2" in warning
        assert "seed9" not in warning
        learned = {(r["task"], r["model"]) for r in rows
                   if r["model"] not in ("always_negative", "persistence")}
        assert learned == {(task, kind) for task in ("classification", "forecasting")
                           for kind in ("grud", "transformer")}
        (Path(config.runs_dir) / "forecasting_transformer_seed2" / "checkpoint.json").unlink()
        with pytest.raises(EvaluationError, match="forecasting_transformer_seed2"):
            pipeline.run_evaluate(config)

    def test_evaluate_without_runs_fails(self, prepared):
        config, _ = prepared
        Path(config.runs_dir).mkdir(parents=True, exist_ok=True)
        with pytest.raises(Exception):
            pipeline.run_evaluate(config)

    def test_end_to_end_reports_byte_identical(self, prepared, tmp_path):
        # every file of a run, not only the report: times and other
        # run-to-run values belong in none of them
        config, _ = prepared
        files = {}
        for sub in ("x", "y"):
            runs = replace(config, runs_dir=str(tmp_path / f"runs_{sub}"))
            pipeline.run_train(runs)
            pipeline.run_evaluate(runs)
            base = Path(runs.runs_dir)
            files[sub] = {path.relative_to(base).as_posix(): path.read_bytes()
                          for path in base.rglob("*") if path.is_file()}
        run = "classification_grud_seed0"
        assert {"report.csv", "report.json", f"{run}/manifest.json", f"{run}/train_log.csv",
                f"{run}/calibration.json", f"{run}/checkpoint.json"} <= set(files["x"])
        assert files["x"] == files["y"]


class TestReport:
    def test_seed_aggregation_hand_numbers(self):
        rows = [
            {"task": "classification", "model": "grud", "seed": s, "metric": "auroc",
             "point": p, "ci_low": p, "ci_high": p, "n_valid_draws": 10}
            for s, p in ((0, 0.90), (1, 0.92), (2, 0.91))
        ]
        agg = pipeline.aggregate_rows(rows)
        assert len(agg) == 1
        assert agg[0]["mean"] == pytest.approx(0.91)
        assert agg[0]["std"] == pytest.approx(0.01)  # sample std
        assert agg[0]["n_seeds"] == 3

    def test_identical_seeds_zero_std(self):
        rows = [
            {"task": "t", "model": "m", "seed": s, "metric": "mae",
             "point": 5.0, "ci_low": 4.0, "ci_high": 6.0, "n_valid_draws": 10}
            for s in (0, 1, 2)
        ]
        agg = pipeline.aggregate_rows(rows)
        assert agg[0]["std"] == 0.0

    def test_missing_seed_flagged(self):
        rows = [
            {"task": "t", "model": "m", "seed": s, "metric": "mae",
             "point": p, "ci_low": p, "ci_high": p, "n_valid_draws": 10}
            for s, p in ((0, 1.0), (2, 3.0))
        ]
        agg = pipeline.aggregate_rows(rows)
        assert agg[0]["n_seeds"] == 2

    def test_summary_files(self, prepared):
        config, _ = prepared
        pipeline.run_train(config)
        pipeline.run_evaluate(config)
        agg = pipeline.run_report(config.runs_dir)
        assert agg
        base = Path(config.runs_dir)
        assert (base / "summary.csv").exists()
        assert (base / "summary_classification.csv").exists()
        assert (base / "summary_forecasting.csv").exists()
        with open(base / "summary_classification.csv", newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        assert header[0] == "model"
        assert "auroc" in header and "prevalence" in header


class TestCli:
    def test_init_config_then_load(self, tmp_path):
        out = tmp_path / "bench.ini"
        assert cli.main(["init-config", "--out", str(out)]) == 0
        config = load_config(out)
        assert config.train.epochs == 6
        assert config.train.seeds == (0, 1, 2)
        assert config.evaluation.bootstrap_draws == 1000
        assert config.calibration.beta == 2.0
        # every key the file repeats from the dataclasses holds their default
        assert config == BenchConfig()

    def test_full_cycle_through_cli(self, tmp_path):
        ini = tmp_path / "bench.ini"
        ini.write_text(
            "\n".join(
                [
                    "[data]",
                    f"dataset_dir = {tmp_path / 'ds'}",
                    f"synth_dir = {tmp_path / 'synth'}",
                    "[split]",
                    "ratios = 0.5,0.25,0.25",
                    "[models]",
                    "grud_hidden = 8",
                    "d_model = 8",
                    "layers = 1",
                    "heads = 2",
                    "ffn_dim = 16",
                    "[train]",
                    "epochs = 1",
                    "seeds = 0",
                    f"runs_dir = {tmp_path / 'runs'}",
                    "[evaluation]",
                    "bootstrap_draws = 25",
                    "[synth]",
                    "n_records = 10",
                    "record_seconds = 500",
                    "episode_rate_per_hour = 22.0",
                    "seed = 3",
                ]
            ),
            encoding="utf-8",
        )
        assert cli.main(["synth", "--config", str(ini)]) == 0
        assert cli.main(["prepare", "--config", str(ini)]) == 0
        assert cli.main(["train", "--config", str(ini)]) == 0
        assert cli.main(["evaluate", "--config", str(ini)]) == 0
        assert cli.main(["report", "--config", str(ini)]) == 0
        assert (tmp_path / "runs" / "summary.csv").exists()

    @staticmethod
    def _grud_ini(config, suffix) -> Path:
        """A one-epoch, seed-0, GRU-D-only config on the prepared dataset."""
        ini = Path(config.runs_dir).parent / f"{suffix}.ini"
        ini.write_text(
            "\n".join(
                [
                    "[data]",
                    f"dataset_dir = {config.data.dataset_dir}",
                    "[models]",
                    "kinds = grud",
                    "grud_hidden = 8",
                    "[train]",
                    "epochs = 1",
                    "seeds = 0",
                    f"runs_dir = {config.runs_dir}_{suffix}",
                ]
            ),
            encoding="utf-8",
        )
        return ini

    def test_target_mode_flag(self, prepared):
        config, _ = prepared
        ini = self._grud_ini(config, "abs")
        assert cli.main(["train", "--config", str(ini), "--target-mode", "absolute"]) == 0
        manifest = json.loads(
            (Path(f"{config.runs_dir}_abs") / "forecasting_grud_absolute_seed0" / "manifest.json")
            .read_text(encoding="utf-8")
        )
        assert manifest["target_mode"] == "absolute"
        # evaluate names the same grid with the same flag; without it the
        # residual forecasting runs it expects are missing
        assert cli.main(["evaluate", "--config", str(ini), "--target-mode", "absolute"]) == 0
        assert cli.main(["evaluate", "--config", str(ini)]) == EvaluationError.exit_code

    def test_hidden_sweep_flag(self, prepared, capsys):
        config, _ = prepared
        ini = self._grud_ini(config, "sweep")
        assert cli.main(["train", "--config", str(ini), "--hidden-sweep", "4,6"]) == 0
        capsys.readouterr()

        def swept_models():
            report = pipeline.read_report(f"{config.runs_dir}_sweep")
            return {r["model"] for r in report if r["model"].startswith("grud_h")}

        # without the flag the sweep runs are outside the grid: not scored,
        # but named on stderr
        assert cli.main(["evaluate", "--config", str(ini)]) == 0
        warning = capsys.readouterr().err
        assert "classification_grud_h4_seed0" in warning
        assert "classification_grud_h6_seed0" in warning
        assert swept_models() == set()
        assert cli.main(["evaluate", "--config", str(ini), "--hidden-sweep", "4,6"]) == 0
        assert capsys.readouterr().err == ""
        assert swept_models() == {"grud_h4", "grud_h6"}


def _peak_manifest(tmp_path, peaks: str, row: str = "r1,r1.txt") -> str:
    (tmp_path / "r1.txt").write_text(peaks, encoding="utf-8")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"record_id,path\n{row}\n", encoding="utf-8")
    return f"[data]\npeaks_manifest = {manifest}\n"


SIDECAR = {"mu": 80.0, "sigma": 10.0, "theta": 100.0, "T": 60, "H": 10, "split": {"r1": "train"}}


def _bad_windows_file(tmp_path, text="id,start\n", sidecar=json.dumps(SIDECAR)) -> str:
    dataset = tmp_path / "ds"
    dataset.mkdir()
    (dataset / "dataset.json").write_text(sidecar, encoding="utf-8")
    (dataset / "windows.csv").write_text(text, encoding="utf-8")
    return f"[data]\ndataset_dir = {dataset}\n"


def _sidecar_without(key: str) -> str:
    return json.dumps({k: v for k, v in SIDECAR.items() if k != key})


def _windows_row(tmp_path, row: str, sidecar=SIDECAR) -> str:
    header = ",".join(["record_id", "start_index", "cls_label", "fc_target"]
                      + [f"ctx_{i}" for i in range(60)])
    return _bad_windows_file(tmp_path, f"{header}\n{row}\n", json.dumps(sidecar))


def _full_row(record_id="r1", start="0", value="70.0") -> str:
    return ",".join([record_id, start, "1", "80.0"] + [value] * 60)


def _truncated_checkpoint(tmp_path) -> str:
    """A prepared dataset and a GRU-D grid whose checkpoints were cut off
    mid-write."""
    for run_id in ("classification_grud_seed0", "forecasting_grud_seed0"):
        run = tmp_path / "runs" / run_id
        run.mkdir(parents=True)
        (run / "checkpoint.json").write_text('{"grud.proj.w": {"shape": [2, 8], "da',
                                             encoding="utf-8")
    return _windows_row(tmp_path, _full_row()) + (
        f"[models]\nkinds = grud\n[train]\nseeds = 0\nruns_dir = {tmp_path / 'runs'}\n")


def _checkpoint_directory(tmp_path) -> str:
    """A prepared dataset and a GRU-D grid whose checkpoint.json is a
    directory."""
    ini = _truncated_checkpoint(tmp_path)
    for path in (tmp_path / "runs").glob("*/checkpoint.json"):
        path.unlink()
        path.mkdir()
    return ini


def _edited_checkpoint(tmp_path, edit) -> str:
    """A prepared dataset and a GRU-D grid whose checkpoints parse but were
    changed by `edit(doc)` after a hidden-8 model's was written."""
    for run_id in ("classification_grud_seed0", "forecasting_grud_seed0"):
        run = tmp_path / "runs" / run_id
        run.mkdir(parents=True)
        config = GrudConfig(hidden_dim=8)
        save_checkpoint(run / "checkpoint.json", models.build_params("grud", config, 0).values(),
                        config={"model_kind": "grud", **asdict(config)})
        doc = json.loads((run / "checkpoint.json").read_text(encoding="utf-8"))
        edit(doc)
        (run / "checkpoint.json").write_text(json.dumps(doc), encoding="utf-8")
    return _windows_row(tmp_path, _full_row()) + (
        f"[models]\nkinds = grud\ngrud_hidden = 8\n"
        f"[train]\nseeds = 0\nruns_dir = {tmp_path / 'runs'}\n")


def _without_dtypes(doc):
    # a checkpoint as written before each parameter's dtype was stored
    for name, entry in doc.items():
        if name != "config":
            del entry["dtype"]


def _non_utf8(build, name: str):
    """The case `build` makes, with a byte that is not UTF-8 appended to its
    file `name`."""
    def case(tmp_path):
        ini = build(tmp_path)
        with open(next(tmp_path.rglob(name)), "ab") as fh:
            fh.write(b"\xff")
        return ini
    return case


def _a_file(tmp_path) -> Path:
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    return taken


def _micro_ini(tmp_path, synth=False, **data) -> str:
    """The micro config with `data` settings replaced, after a synth run if
    `synth`."""
    config = micro_config(tmp_path)
    if synth:
        pipeline.run_synth(config)
    return render_config(replace(config, data=replace(config.data, **data)))


def _nul_in_a_record_id(tmp_path) -> str:
    ini = _micro_ini(tmp_path, synth=True)
    manifest = tmp_path / "synth" / "manifest.csv"
    manifest.write_text(manifest.read_text(encoding="utf-8").replace("synth000,", "synth000\0,"),
                        encoding="utf-8")
    return ini


def _edited_window(tmp_path, stage: str, split: str, field: str, value: str) -> str:
    """The INI of a GRU-D micro grid, prepared and, for `evaluate`, trained,
    whose first `split` window has `field` set to `value` and is moved to the
    top of windows.csv, its line 2."""
    config = (_trained_micro_grid if stage == "evaluate" else _prepared_micro_grid)(
        tmp_path, "grud")
    dataset = Path(config.data.dataset_dir)
    assignment = json.loads((dataset / "dataset.json").read_text(encoding="utf-8"))["split"]
    with open(dataset / "windows.csv", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    row = next(row for row in rows if assignment[row[0]] == split)
    rows.remove(row)
    row[header.index(field)] = value
    with open(dataset / "windows.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, row, *rows])
    return render_config(config)


def _prepared_micro_grid(tmp_path, kind: str) -> BenchConfig:
    """The micro config of a one-epoch grid of `kind`, prepared from synth on."""
    config = micro_config(tmp_path)
    config = replace(config, models=replace(config.models, kinds=(kind,)),
                     train=replace(config.train, epochs=1))
    pipeline.run_synth(config)
    pipeline.run_prepare(config)
    return config


def _trained_micro_grid(tmp_path, kind: str) -> BenchConfig:
    """The micro config of a one-epoch grid of `kind`, trained from synth on."""
    config = _prepared_micro_grid(tmp_path, kind)
    pipeline.run_train(config)
    return config


def _prepared_grud_ini(tmp_path, old: str = "", new: str = "") -> str:
    """The INI of a prepared GRU-D micro grid with its line `old`, if given,
    replaced by `new`, a value the config dataclasses would reject."""
    ini = render_config(_prepared_micro_grid(tmp_path, "grud"))
    if old:
        assert ini.count(f"\n{old}\n") == 1
        ini = ini.replace(f"\n{old}\n", f"\n{new}\n")
    return ini


def _trained_under_other_models(tmp_path, kind: str, **settings) -> str:
    """The INI of a trained micro grid of `kind` with the [models] `settings`
    changed."""
    config = _trained_micro_grid(tmp_path, kind)
    return render_config(replace(config, models=replace(config.models, **settings)))


def _prepared_again(tmp_path) -> str:
    """A trained GRU-D micro grid whose dataset was then prepared again under
    another split seed, which puts train records of the runs in the test
    split."""
    config = _trained_micro_grid(tmp_path, "grud")
    config = replace(config, split=replace(config.split, seed=1))
    pipeline.run_prepare(config)
    return render_config(config)


def _run_manifest_cut_short(tmp_path) -> str:
    config = _trained_micro_grid(tmp_path, "grud")
    manifest = Path(config.runs_dir) / "classification_grud_seed0" / "manifest.json"
    manifest.write_text(manifest.read_text(encoding="utf-8")[:40], encoding="utf-8")
    return render_config(config)


def _compressed_peak_file(tmp_path) -> str:
    with gzip.open(tmp_path / "r1.txt.gz", "wt", encoding="utf-8") as fh:
        fh.write("1.0\n2.0\n")
    (tmp_path / "manifest.csv").write_text("record_id,path\nr1,r1.txt.gz\n", encoding="utf-8")
    return f"[data]\npeaks_manifest = {tmp_path / 'manifest.csv'}\n"


def _prepared_for_another_task(tmp_path, stage: str, **task) -> str:
    """The INI of a micro grid whose dataset.json gives the `task` values (T,
    H or theta) and whose windows.csv is as wide as its T, as an older
    version prepared a dataset under other settings. For `evaluate` the grid
    was trained on it first, as that version could: each run manifest holds
    its sha256."""
    config = micro_config(tmp_path, train=TrainConfig(epochs=1, seeds=(0,)))
    pipeline.run_synth(config)
    pipeline.run_prepare(config)
    if stage == "evaluate":
        pipeline.run_train(config)
    dataset = Path(config.data.dataset_dir)
    width = task.get("T", 60)
    with open(dataset / "windows.csv", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    with open(dataset / "windows.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header[:4] + [f"ctx_{i}" for i in range(width)])
        # each context's last `width` seconds, or its first ones repeated before it
        writer.writerows(row[:4] + (row[4:] * 2)[-width:] for row in rows)
    sidecar = json.loads((dataset / "dataset.json").read_text(encoding="utf-8"))
    (dataset / "dataset.json").write_text(json.dumps({**sidecar, **task}), encoding="utf-8")
    for manifest in Path(config.runs_dir).glob("*/manifest.json"):
        run = json.loads(manifest.read_text(encoding="utf-8"))
        run["dataset_sha256"] = hashlib.sha256((dataset / "dataset.json").read_bytes()).hexdigest()
        manifest.write_text(json.dumps(run), encoding="utf-8")
    return render_config(config)


# a dataset.json of another task: at T = 30, H = 5 or theta = 97 train and
# evaluate used it as it was, and at T = 90 the first Transformer run stopped
# training after the GRU-D runs were written
OTHER_TASKS = {"T_30": {"T": 30}, "T_90": {"T": 90}, "H_5": {"H": 5}, "theta_97": {"theta": 97.0}}


def _report(tmp_path, row: str,
            header="task,model,seed,metric,point,ci_low,ci_high,n_valid_draws") -> str:
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "report.csv").write_text(f"{header}\n{row}\n", encoding="utf-8")
    return f"[train]\nruns_dir = {runs}\n"


MALFORMED = {
    # case -> (command, INI text from tmp_path, text the error must name[,
    # exit code if not DataError's])
    "one_column_manifest_row": ("prepare", lambda t: _peak_manifest(t, "1\n2\n", row="r1"),
                                "manifest.csv:2"),
    "non_numeric_peak": ("prepare", lambda t: _peak_manifest(t, "1.0\nabc\n"), "r1.txt:2"),
    "non_increasing_peaks": ("prepare", lambda t: _peak_manifest(t, "1.0\n0.5\n"),
                             "manifest.csv:2"),
    "unknown_key": ("prepare", lambda t: "[train]\nbogus = 1\n", "bogus"),
    "unparsable_value": ("prepare", lambda t: "[train]\nepochs = six\n", "[train] epochs"),
    "zero_epochs": ("prepare", lambda t: "[train]\nepochs = 0\n", "[train]"),
    "windows_header": ("train", _bad_windows_file, "windows.csv"),
    "short_windows_row": ("train", lambda t: _windows_row(t, "r1,0,1,80.0,70.0,71.0"),
                          "windows.csv:2"),
    "windows_row_outside_split": ("train", lambda t: _windows_row(t, _full_row("r9")),
                                  "windows.csv:2"),
    "non_integer_start_index": ("train", lambda t: _windows_row(t, _full_row(start="x")),
                                "windows.csv:2"),
    "non_numeric_context": ("train", lambda t: _windows_row(t, _full_row(value="abc")),
                            "windows.csv:2"),
    "unknown_section": ("prepare", lambda t: "[trian]\nepochs = 1\n", "[trian]"),
    "misspelt_boolean": ("prepare", lambda t: "[calibration]\nenabled = ture\n",
                         "[calibration] enabled"),
    "heads_not_dividing_d_model": ("prepare", lambda t: "[models]\nheads = 3\n", "[models]"),
    "unknown_model_kind": ("prepare", lambda t: "[models]\nkinds = gru\n", "'gru'"),
    "zero_d_model": ("train", lambda t: "[models]\nd_model = 0\n", "[models]"),
    "zero_layers": ("train", lambda t: "[models]\nlayers = 0\n", "[models]"),
    "negative_layers": ("train", lambda t: "[models]\nlayers = -1\n", "[models]"),
    "non_integer_sweep": ("train --hidden-sweep x", lambda t: "[train]\n", "--hidden-sweep"),
    "zero_sweep_flag": ("train --hidden-sweep 32,0", lambda t: "[train]\n", "--hidden-sweep"),
    "zero_sweep_key": ("prepare", lambda t: "[train]\nhidden_sweep = 0\n", "hidden_sweep"),
    "duplicate_manifest_record": ("prepare", lambda t: _peak_manifest(
        t, "1.0\n2.0\n", row="r1,r1.txt\nr1,r1.txt"), "manifest.csv:3"),
    "two_split_ratios": ("prepare", lambda t: "[split]\nratios = 0.5,0.5\n", "[split]"),
    "zero_batch_size": ("train", lambda t: "[train]\nbatch_size = 0\n", "[train]"),
    "negative_batch_size": ("train", lambda t: "[train]\nbatch_size = -3\n", "[train]"),
    "zero_bootstrap_draws": ("evaluate", lambda t: "[evaluation]\nbootstrap_draws = 0\n",
                             "[evaluation]"),
    "zero_beta": ("evaluate", lambda t: "[calibration]\nbeta = 0\n", "[calibration]"),
    "negative_beta": ("evaluate", lambda t: "[calibration]\nbeta = -1\n", "[calibration]"),
    "zero_beta_flag": ("evaluate --beta 0", lambda t: "[calibration]\n", "--beta"),
    "non_numeric_beta_flag": ("evaluate --beta x", lambda t: "[calibration]\n", "--beta"),
    "unknown_target_mode_flag": ("train --target-mode sideways", lambda t: "[train]\n",
                                 "--target-mode"),
    "empty_seeds": ("train", lambda t: "[train]\nseeds =\n", "[train]"),
    "empty_seeds_with_sweep": ("train --hidden-sweep 8", lambda t: "[train]\nseeds =\n",
                               "[train]"),
    "negative_seed": ("train", lambda t: "[train]\nseeds = 0,-1\n", "[train]"),
    "empty_model_kinds": ("train", lambda t: "[models]\nkinds =\n", "[models]"),
    "negative_synth_seed": ("synth", lambda t: "[synth]\nseed = -1\n", "[synth]"),
    "negative_bootstrap_seed": ("evaluate", lambda t: "[evaluation]\nbootstrap_seed = -1\n",
                                "[evaluation]"),
    "infinite_peak": ("prepare", lambda t: _peak_manifest(t, "1.0\n2.0\ninf\n"), "r1.txt:3"),
    "duplicate_key": ("prepare", lambda t: "[train]\nepochs = 1\nepochs = 2\n", "'epochs'"),
    "no_section_header": ("prepare", lambda t: "epochs = 1\n", "no section headers"),
    "truncated_dataset_json": ("train", lambda t: _bad_windows_file(t, sidecar='{"mu": 80.0, "si'),
                               "dataset.json"),
    "dataset_json_without_mu": ("train", lambda t: _bad_windows_file(
        t, sidecar=_sidecar_without("mu")), "dataset.json: no 'mu'"),
    "dataset_json_without_split": ("train", lambda t: _bad_windows_file(
        t, sidecar=_sidecar_without("split")), "dataset.json: no 'split'"),
    "non_numeric_report_point": ("report", lambda t: _report(
        t, "classification,grud,0,auroc,high,,,"), "report.csv:2"),
    "report_without_a_result_column": ("report", lambda t: _report(
        t, "classification,grud,0,auroc,0.5,0.4,0.6",
        header="task,model,seed,metric,point,ci_low,ci_high"), "report.csv"),
    "truncated_checkpoint": ("evaluate", _truncated_checkpoint, "classification_grud_seed0",
                             EvaluationError.exit_code),
    "checkpoint_without_a_parameter": ("evaluate", lambda t: _edited_checkpoint(
        t, lambda doc: doc.pop("grud.proj.b")),
        "classification_grud_seed0, parameter grud.proj.b", EvaluationError.exit_code),
    "checkpoint_parameter_of_another_shape": ("evaluate", lambda t: _edited_checkpoint(
        t, lambda doc: doc["grud.gru.w_hh"].update(shape=[24, 8])),
        "classification_grud_seed0, parameter grud.gru.w_hh", EvaluationError.exit_code),
    "checkpoint_without_dtypes": ("evaluate", lambda t: _edited_checkpoint(t, _without_dtypes),
                                  "unreadable checkpoint.json", EvaluationError.exit_code),
    "dataset_json_with_negative_T": ("train", lambda t: _windows_row(
        t, _full_row(), sidecar={**SIDECAR, "T": -5}), "dataset.json: T"),
    "dataset_json_split_not_a_map": ("train", lambda t: _windows_row(
        t, _full_row(), sidecar={**SIDECAR, "split": ["r1"]}), "dataset.json: split"),
    "blank_windows_line": ("train", lambda t: _windows_row(t, f"{_full_row()}\n\n{_full_row()}"),
                           "windows.csv:3"),
    # split ids are at most two characters long, so a parse that cut ids to
    # that width would read r10 as r1
    "windows_row_of_a_longer_id": ("train", lambda t: _windows_row(t, _full_row("r10")),
                                   "windows.csv:2"),
    "digit_separator_in_context": ("train", lambda t: _windows_row(t, _full_row(value="1_0")),
                                   "windows.csv:2"),
    "fullwidth_digit_in_context": ("train", lambda t: _windows_row(t, _full_row(value="１.5")),
                                   "windows.csv:2"),
    "digit_separator_peak": ("prepare", lambda t: _peak_manifest(t, "1.0\n1_0\n"), "r1.txt:2"),
    "fullwidth_digit_peak": ("prepare", lambda t: _peak_manifest(t, "１.5\n2.0\n"), "r1.txt:1"),
    "two_numbers_on_a_peak_line": ("prepare", lambda t: _peak_manifest(t, "1.0\n2.0 3.0\n"),
                                   "r1.txt:2"),
    "two_numbers_on_every_peak_line": ("prepare", lambda t: _peak_manifest(t, "1.0 2.0\n"),
                                       "r1.txt:1"),
    "comment_line_in_peak_file": ("prepare", lambda t: _peak_manifest(t, "# peaks\n1.0\n2.0\n"),
                                  "r1.txt:1"),
    "non_utf8_peak_file": ("prepare", _non_utf8(lambda t: _peak_manifest(t, "1.0\n2.0\n"),
                                                "r1.txt"), "r1.txt: not UTF-8 text"),
    "non_utf8_manifest": ("prepare", _non_utf8(lambda t: _peak_manifest(t, "1.0\n2.0\n"),
                                               "manifest.csv"), "manifest.csv: not UTF-8 text"),
    "non_utf8_windows_csv": ("train", _non_utf8(lambda t: _windows_row(t, _full_row()),
                                                "windows.csv"), "windows.csv: not UTF-8 text"),
    "non_utf8_report": ("report", _non_utf8(lambda t: _report(
        t, "classification,grud,0,auroc,0.5,0.4,0.6,40"), "report.csv"),
        "report.csv: not UTF-8 text"),
    "manifest_is_a_directory": ("prepare", lambda t: f"[data]\npeaks_manifest = {t}\n",
                                "Is a directory"),
    "dataset_dir_is_a_file_on_prepare": ("prepare", lambda t: _micro_ini(
        t, synth=True, dataset_dir=str(_a_file(t))), "taken: File exists"),
    "dataset_dir_is_a_file_on_train": ("train", lambda t: _micro_ini(
        t, dataset_dir=str(_a_file(t))), "taken/dataset.json: Not a directory"),
    "checkpoint_is_a_directory": ("evaluate", _checkpoint_directory,
                                  "checkpoint.json: Is a directory"),
    "runs_dir_is_a_file_on_report": ("report", lambda t: f"[train]\nruns_dir = {_a_file(t)}\n",
                                     "taken/report.csv: Not a directory"),
    "synth_dir_is_a_file": ("synth", lambda t: _micro_ini(t, synth_dir=str(_a_file(t))),
                            "taken: File exists"),
    "combined_peaks_key": ("prepare", lambda t: "[data]\npeaks_combined = peaks.csv\n",
                           "unknown key 'peaks_combined'"),
    "misspelt_split_name": ("train", lambda t: _windows_row(
        t, _full_row(), sidecar={**SIDECAR, "split": {"r1": "tset"}}),
        "dataset.json: record 'r1' has split 'tset'"),
    # found by tests/test_fuzz_cli.py, or by probing by hand the settings it
    # mutates
    "nul_in_a_peak_file_name": ("prepare", lambda t: _peak_manifest(
        t, "1.0\n2.0\n", row="r1,r\0.txt"), "a file name cannot hold a NUL byte"),
    "nul_in_dataset_dir": ("prepare", lambda t: _micro_ini(t, synth=True, dataset_dir=f"{t}/d\0"),
                           "d\\x00': a file name cannot hold a NUL byte"),
    # numpy drops a string's trailing NULs, so synth000 and synth000\0 would
    # name one record in the window table and two in the split
    "nul_in_a_record_id": ("prepare", _nul_in_a_record_id,
                           "manifest.csv:2: 'synth000\\x00': a record id cannot hold a NUL"),
    "infinite_context_value": ("train", lambda t: _windows_row(t, _full_row(value="inf")),
                               "windows.csv:2: ctx_0 'inf' is not finite"),
    "nan_forecast_target": ("train", lambda t: _windows_row(
        t, _full_row().replace(",80.0,", ",nan,", 1)), "windows.csv:2: fc_target 'nan' is not"),
    "infinite_mu": ("train", lambda t: _windows_row(
        t, _full_row(), sidecar={**SIDECAR, "mu": float("inf")}), "dataset.json: not a prepared"),
    "infinite_T": ("train", lambda t: _windows_row(
        t, _full_row(), sidecar={**SIDECAR, "T": float("inf")}), "dataset.json: not a prepared"),
    "infinite_synth_setting": ("synth", lambda t: "[synth]\nepisode_rate_per_hour = inf\n",
                               "[synth] episode_rate_per_hour = 'inf': not a finite number"),
    "nan_learning_rate": ("train", lambda t: "[train]\nlr = nan\n",
                          "[train] lr = 'nan': not a finite number"),
    "checkpoint_of_a_fractional_hidden_size": ("evaluate", lambda t: _edited_checkpoint(
        t, lambda doc: doc["config"].update(hidden_dim=8.5)),
        "run classification_grud_seed0: unreadable checkpoint.json", EvaluationError.exit_code),
    "infinite_checkpoint_parameter": ("evaluate", lambda t: _edited_checkpoint(
        t, lambda doc: doc["grud.proj.b"]["data"].__setitem__(0, float("inf"))),
        "parameter 'grud.proj.b' holds a value that is not finite", EvaluationError.exit_code),
    "grud_trained_under_another_hidden_size": ("evaluate", lambda t: _trained_under_other_models(
        t, "grud", grud_hidden=12), "(ValueError: trained with hidden_dim = 8, the config gives 12)",
        EvaluationError.exit_code),
    "transformer_trained_under_other_heads": ("evaluate", lambda t: _trained_under_other_models(
        t, "transformer", heads=4), "(ValueError: trained with heads = 2, the config gives 4)",
        EvaluationError.exit_code),
    "episode_rate_beyond_one_a_second": ("synth", lambda t: (
        f"[data]\nsynth_dir = {t / 'synth'}\n[synth]\nn_records = 3\nrecord_seconds = 200\n"
        "episode_rate_per_hour = 1e12\n"), "[synth] episode_rate_per_hour = 1e+12"),
    "compressed_peak_file": ("prepare", _compressed_peak_file,
                             "r1.txt.gz: a compressed peak file is not read"),
    "dataset_prepared_again_after_training": (
        "evaluate", _prepared_again, "run classification_grud_seed0 was trained on another",
        EvaluationError.exit_code),
    "run_manifest_cut_short": ("evaluate", _run_manifest_cut_short,
                               "classification_grud_seed0/manifest.json is not a run manifest",
                               EvaluationError.exit_code),
    # a repeated grid value trained the same run into one directory again,
    # and the report counted each repeat as a seed
    "repeated_seed": ("train", lambda t: _prepared_grud_ini(t, "seeds = 0", "seeds = 0,0"),
                      "[train]: seeds repeats a value: (0, 0)"),
    "repeated_model_kind": ("train", lambda t: _prepared_grud_ini(
        t, "kinds = grud", "kinds = grud,grud"), "[models]: kinds repeats a model"),
    "repeated_sweep_size": ("train", lambda t: _prepared_grud_ini(
        t, "hidden_sweep =", "hidden_sweep = 8,8"), "[train] hidden_sweep repeats a size"),
    "repeated_sweep_size_flag": ("train --hidden-sweep 8,8", _prepared_grud_ini,
                                 "--hidden-sweep '8,8': [train] hidden_sweep repeats a size"),
    **{f"dataset_json_of_another_task_{name}_on_{stage}": (
        stage, lambda t, stage=stage, task=task: _prepared_for_another_task(t, stage, **task),
        "dataset.json: T = ") for name, task in OTHER_TASKS.items()
       for stage in ("train", "evaluate")},
    # a stage checked only the splits it loads, and only for values that are
    # not finite: train used a test window of an infinity, and evaluate
    # named no line
    "infinite_context_in_a_test_window_on_train": ("train", lambda t: _edited_window(
        t, "train", "test", "ctx_7", "inf"), "windows.csv:2: ctx_7 'inf' is not finite"),
    "nan_target_in_a_test_window_on_evaluate": ("evaluate", lambda t: _edited_window(
        t, "evaluate", "test", "fc_target", "nan"), "windows.csv:2: fc_target 'nan' is not finite"),
    # BCE trained on the label 2, and nothing read a start index
    "label_of_two": ("train", lambda t: _edited_window(t, "train", "train", "cls_label", "2"),
                     "windows.csv:2: cls_label '2' is not 0 or 1"),
    "negative_start_index": ("train", lambda t: _edited_window(
        t, "train", "train", "start_index", "-1"), "windows.csv:2: start_index '-1' is negative"),
    # a misspelt id kept the record it was meant to leave out
    "exclude_id_not_in_the_manifest": ("prepare", lambda t: _micro_ini(
        t, synth=True, exclude=("synth0001",)),
        "manifest.csv: exclude names records the manifest does not list: 'synth0001'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_a_data_error(case, tmp_path, capsys):
    command, ini_text, where, *exit_code = MALFORMED[case]
    ini = tmp_path / "bench.ini"
    ini.write_text(ini_text(tmp_path), encoding="utf-8")
    assert cli.main([*command.split(), "--config", str(ini)]) == (exit_code or [2])[0]
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert where in err[0]


def test_a_dataset_of_a_longer_context_trains_no_run(tmp_path, capsys):
    ini = tmp_path / "bench.ini"
    ini.write_text(_prepared_for_another_task(tmp_path, "train", T=90), encoding="utf-8")
    assert cli.main(["train", "--config", str(ini)]) == 2
    meta = tmp_path / "dataset" / "dataset.json"
    assert capsys.readouterr().err.startswith(f"error: {meta}: T = 90, H = 10, theta = ")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("case", ["missing", "directory", "non_utf8"])
def test_an_unreadable_config_file_is_a_data_error(case, tmp_path, capsys):
    ini = tmp_path / "bench.ini"
    if case == "directory":
        ini.mkdir()
    elif case == "non_utf8":
        ini.write_bytes(b"[train]\nepochs = 1\xff\n")
    assert cli.main(["prepare", "--config", str(ini)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {ini}: ")


class TestGrid:
    def test_default_grid_is_twelve_runs(self):
        grid = pipeline._grid(BenchConfig())
        assert len(grid) == 12  # 2 models x 2 tasks x 3 seeds

    def test_capacity_sweep_adds_three_runs(self):
        config = replace(BenchConfig(), hidden_sweep=(32, 64, 128))
        grid = pipeline._grid(config)
        assert len(grid) == 15
        sweep = [g for g in grid if g.hidden is not None]
        assert [g.hidden for g in sweep] == [32, 64, 128]
        assert all(g.task == "classification" and g.model_kind == "grud" for g in sweep)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs Linux's /proc")
def test_the_test_process_runs_no_thread_but_its_python_ones():
    # a pool test forks this process, and a BLAS thread would make that the
    # fork of a multi-threaded process (a DeprecationWarning from Python 3.12);
    # OpenBLAS ends its threads at a fork, and a product this large starts them
    np.ones((512, 512)) @ np.ones((512, 512))
    num_threads = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[17])
    assert num_threads == threading.active_count()


@pytest.mark.parametrize("preset", [None, "2"])
def test_the_cli_runs_blas_on_one_thread_unless_the_environment_says_otherwise(preset):
    # the variables must be set before numpy loads BLAS, so the package
    # itself must not load numpy
    script = ("import os, sys, hrbench\n"
              "assert 'numpy' not in sys.modules\n"
              "import hrbench.cli\n"
              "print(*(os.environ[v] for v in "
              "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.split() == [preset or "1", "1", "1"]
