"""Orchestration of prepare / synth / train / evaluate / report.

Each stage reads and writes plain files (CSV + JSON) so stages can be rerun
independently; identical configs and inputs produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import struct
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import calibration as cal
from . import metrics as met
from . import models, synth, training
from .autodiff import load_checkpoint, save_checkpoint
from .config import BenchConfig
from .errors import DataError, EvaluationError, HelperDied
from .files import reading, remove, write_csv, write_json
from .ingest import (
    SplitData,
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

TASKS = ("classification", "forecasting")
# a report row's result columns, all None for a metric the model has no value for
UNDEFINED = dict.fromkeys(("point", "ci_low", "ci_high", "n_valid_draws"))
REPORT_COLUMNS = ["task", "model", "seed", "metric", *UNDEFINED]


@dataclass(frozen=True)
class PrepareSummary:
    theta: float
    n_windows: int
    n_positive_windows: int
    n_positive_records: int
    dataset_dir: str


def run_synth(config: BenchConfig) -> Path:
    records, bookkeeping = synth.generate_corpus(config.synth)
    target = Path(config.data.synth_dir)
    manifest = synth.write_corpus(target, records, bookkeeping)
    print(f"wrote {len(records)} synthetic records to {target}")
    return manifest


def _load_peak_records(config: BenchConfig):
    data = config.data
    manifest = data.peaks_manifest or Path(data.synth_dir) / "manifest.csv"
    if not data.peaks_manifest and not manifest.exists():
        raise DataError("no records: set data.peaks_manifest, or run `bench synth` first")
    records = read_manifest(manifest, data.exclude)
    if not records:
        raise DataError("no records: the peak source is empty after exclusions")
    return records


def run_prepare(config: BenchConfig) -> PrepareSummary:
    """derive -> threshold guard -> windows -> record split -> standardize."""
    # the peak times outsize the HR series; nothing after derive_hr reads them
    corpus = [derive_hr(r) for r in _load_peak_records(config)]
    guard = select_threshold(corpus)

    tables = [build_windows(series, theta=guard.theta) for series in corpus]
    positivity = {series.record_id: bool(t.cls_labels.any())
                  for series, t in zip(corpus, tables)}
    windows = Windows.concat(tables)
    split = split_records(positivity, config.split.ratios, config.split.seed)
    stats = standardize(windows, split)
    save_prepared(config.data.dataset_dir, windows, stats, split, guard.theta)

    summary = PrepareSummary(
        theta=guard.theta,
        n_windows=len(windows),
        n_positive_windows=guard.n_positive_windows,
        n_positive_records=guard.n_positive_records,
        dataset_dir=config.data.dataset_dir,
    )
    print(
        f"theta={summary.theta:g} windows={summary.n_windows} "
        f"positives={summary.n_positive_windows} "
        f"positive_records={summary.n_positive_records}"
    )
    return summary


@dataclass(frozen=True)
class RunSpec:
    """One run of the grid; `run_train` writes it into the run's manifest."""

    task: str
    model_kind: str
    seed: int
    hidden: int | None
    target_mode: str

    @property
    def model_label(self) -> str:
        """The report's model name: the model kind plus its variant tags."""
        parts = [self.model_kind]
        if self.hidden is not None:
            parts.append(f"h{self.hidden}")
        if self.task == "forecasting" and self.target_mode != "residual":
            parts.append(self.target_mode)
        return "_".join(parts)

    @property
    def run_id(self) -> str:
        return f"{self.task}_{self.model_label}_seed{self.seed}"


def _grid(config: BenchConfig) -> list[RunSpec]:
    """The (model x task x seed) grid, plus capacity-sweep classification runs.

    Sweep entries are one run per hidden size at the first seed: the sweep
    compares capacities, not seed variance.
    """
    mode = config.train.target_mode
    runs = [
        RunSpec(task, model_kind, seed, None, mode)
        for model_kind in config.models.kinds
        for task in TASKS
        for seed in config.train.seeds
    ]
    if "grud" in config.models.kinds:
        runs += [
            RunSpec("classification", "grud", config.train.seeds[0], hidden, mode)
            for hidden in config.hidden_sweep
        ]
    return runs


def _cores() -> int:
    """The number of processes a stage runs its runs on: on Linux, where
    helpers fork, every CPU this process may use; elsewhere one."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def _train_run(config: BenchConfig, dataset, spec: RunSpec) -> str:
    """Train one run and write its manifest, its train_log.csv and, last, its
    checkpoint.json; returns the line `run_train` prints for it."""
    run_id = spec.run_id
    enc_config = config.encoder_config(spec.model_kind, spec.hidden)
    trained = training.train_model(
        spec.task, spec.model_kind, dataset, config.train, spec.seed,
        encoder_config=enc_config,
    )
    run_dir = Path(config.runs_dir) / run_id
    manifest = {
        "run_id": run_id,
        **asdict(spec),
        "train": asdict(config.train),
        "dataset_dir": str(config.data.dataset_dir),
        "dataset_sha256": dataset.sha256,
    }
    write_json(run_dir / "manifest.json", manifest)
    write_csv(run_dir / "train_log.csv", [["run_id", "epoch", "split", "loss"]] + [
        [run_id, row["epoch"], split, repr(row[f"{split}_loss"])]
        for row in trained.history for split in ("train", "val")])
    save_checkpoint(
        run_dir / "checkpoint.json",
        trained.params.values(),
        config={"model_kind": spec.model_kind, **asdict(enc_config)},
    )
    final = trained.history[-1]
    return f"{run_id}: train_loss={final['train_loss']:.4f} val_loss={final['val_loss']:.4f}"


# a claim on a run: its index, as one fixed-size record in the claims pipe
_CLAIM = struct.Struct("=i")


def _claims(indices) -> int | None:
    """The reading end of a pipe that holds one record per index and whose
    writing end is closed, so that a read of the empty pipe ends at once: a
    process killed while it claims leaves nothing the others wait on. None
    where the records do not fit the pipe's buffer, since writing them would
    wait for a reader."""
    import fcntl  # a Unix module, as the pool is Linux-only

    records = b"".join(map(_CLAIM.pack, indices))
    reader, writer = os.pipe()
    try:
        if len(records) > fcntl.fcntl(writer, fcntl.F_GETPIPE_SZ):
            os.close(reader)
            return None
        os.write(writer, records)
    finally:
        os.close(writer)
    return reader


def _claimed(claims: int, caller: int | None = None):
    """The indices this process takes: each time the next record no process
    has read from the claims pipe, until none is left. A helper of the
    process `caller` takes none once that process has ended (killed, say),
    so no run trains on after the stage it belongs to."""
    while (caller is None or os.getppid() == caller) and (
            record := os.read(claims, _CLAIM.size)):
        yield _CLAIM.unpack(record)[0]


def _stop_claims(claims: int) -> None:
    """Leave no run for any process to take."""
    while os.read(claims, 1 << 16):
        pass


def _outcomes(run, indices, claims: int):
    """(index, run(index)) for each index `indices` yields. A run that raises
    gives (index, error) instead, once no process can take another run."""
    for index in indices:
        try:
            outcome = run(index)
        except BaseException as error:  # the calling process raises it
            _stop_claims(claims)
            yield index, error
            return
        yield index, outcome


def _serve(run, claims: int, conn, caller: int) -> None:
    """A helper process of `_pooled`, forked by the process `caller`: it
    takes runs as that process does and sends each outcome on the pipe
    `conn`."""
    for message in _outcomes(run, _claimed(claims, caller), claims):
        conn.send(message)


def _pooled(run, run_ids: list[str], stage: str, undone: str):
    """Yield run(index) for each index of `run_ids`, in order.

    The runs are independent, so they run on every CPU this process may use
    (`_cores`): the calling process and one helper process per other CPU
    (at most one process per run) each take the next run no process has
    taken until none is left; the calling process takes the first. A helper
    is forked, so it holds whatever `run` reads (the loaded splits, say)
    without loading it again, and it sends back what each of its runs
    returned, or the error it raised. Elsewhere than Linux, or on one CPU,
    every run runs here.

    After a run raises, no process takes another; once every helper has
    ended, the error of the first such run in order is raised as it was.
    A helper that ends without reporting its run (killed, say) stops the
    claims too: a HelperDied names `stage`, the helper's exit code and the
    runs left `undone`.
    """
    n_processes = min(len(run_ids), _cores())
    claims = _claims(range(1, len(run_ids))) if n_processes > 1 else None
    if claims is None:
        yield from map(run, range(len(run_ids)))
        return
    # imported only where helpers start
    import multiprocessing
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    helpers = {}  # the receiving end of each running helper's pipe -> the helper
    outcomes: dict = {}  # index -> what its run returned, or the error it raised
    exit_codes = []  # of the helpers that ended without reporting their runs
    done = 0  # the runs yielded

    def collect(timeout) -> None:
        """Record whatever the helpers send within `timeout` seconds."""
        for receiver in wait(list(helpers), timeout):
            try:
                index, outcome = receiver.recv()
                outcomes[index] = outcome
            except EOFError:  # the helper has ended
                helper = helpers.pop(receiver)
                helper.join()
                receiver.close()
                if helper.exitcode:
                    exit_codes.append(helper.exitcode)
                    _stop_claims(claims)

    try:
        for _ in range(n_processes - 1):
            receiver, sender = context.Pipe(duplex=False)
            helpers[receiver] = context.Process(target=_serve,
                                                args=(run, claims, sender, os.getpid()),
                                                daemon=True)
            helpers[receiver].start()
            sender.close()
        # run 0 is the calling process's
        mine = _outcomes(run, itertools.chain([0], _claimed(claims)), claims)
        while True:
            message = next(mine, None)
            if message is None and not helpers:
                break
            if message is not None:
                outcomes.update([message])
            collect(None if message is None else 0)
            while done in outcomes and not isinstance(outcomes[done], BaseException):
                yield outcomes[done]
                done += 1
    finally:
        _stop_claims(claims)
        while helpers:
            collect(None)
        os.close(claims)
    errors = [index for index, outcome in outcomes.items() if isinstance(outcome, BaseException)]
    if errors:
        raise outcomes[min(errors)]
    left = [run_id for index, run_id in enumerate(run_ids) if index not in outcomes]
    if left:
        raise HelperDied(f"a helper process of {stage} exited with code "
                         f"{', '.join(map(str, exit_codes))}; runs left {undone}: "
                         f"{', '.join(left)}")


def run_train(config: BenchConfig) -> list[str]:
    """Train the grid; the test split is not loaded. Returns the run ids in
    grid order, and prints each run's line in grid order.

    The runs train on every CPU (`_pooled`); a run's files are the same bits
    whichever process trains it. Every grid run's old checkpoint.json goes
    before any run starts, and a run writes its new one last, after its
    manifest, so a run that did not finish has none, which `run_evaluate`
    reports. Each manifest holds the sha256 of the dataset.json it was
    trained on.
    """
    dataset = load_prepared(config.data.dataset_dir, ("train", "val"))
    grid = _grid(config)
    run_ids = [spec.run_id for spec in grid]
    for run_id in run_ids:
        remove(Path(config.runs_dir) / run_id / "checkpoint.json")
    for line in _pooled(lambda index: _train_run(config, dataset, grid[index]),
                        run_ids, "train", "untrained"):
        print(line)
    return run_ids


def metric_table(task: str, threshold: float | None = None) -> dict:
    """The report's metrics for `task`, in column order: name -> metric of a
    PredictionSet, or None where the model has no value for it.

    Classification predictions are the columns `probs` and `labels`;
    forecasting predictions are `mu`, `sigma` and `target` in bpm. ECE (over
    10 bins) and F1 (at the F-beta `threshold`) score a calibration
    step's output, so a model without one (no threshold), such as
    always-negative, gets them undefined.
    """
    if task == "forecasting":
        return {
            "mae": lambda p: met.weighted_mean(np.abs(p["mu"] - p["target"]), p.weights),
            "rmse": lambda p: np.sqrt(met.weighted_mean((p["mu"] - p["target"]) ** 2, p.weights)),
            "crps": lambda p: met.weighted_mean(
                met.crps_gaussian(p["mu"], p["sigma"], p["target"]), p.weights),
        }

    def calibrated(metric):
        return None if threshold is None else metric

    return {
        "auroc": lambda p: met.auroc(p["probs"], p["labels"], p.weights),
        "auprc": lambda p: met.auprc(p["probs"], p["labels"], p.weights),
        "brier": lambda p: met.brier(p["probs"], p["labels"], p.weights),
        "ece": calibrated(lambda p: met.ece(p["probs"], p["labels"], p.weights)),
        "f1_at_threshold": calibrated(
            lambda p: met.f1_at_threshold(p["probs"], p["labels"], threshold, p.weights)),
        "prevalence": lambda p: met.weighted_mean(p["labels"], p.weights),
    }


def _scored_rows(task, model, seed, split: SplitData, columns: dict, table: dict,
                 config: BenchConfig) -> list[dict]:
    """One report row per metric in `table`, bootstrapped over the test records."""
    pred = met.PredictionSet(record_ids=split.record_ids, arrays=columns)
    draws, seed_b = config.evaluation.bootstrap_draws, config.evaluation.bootstrap_seed
    rows = []
    for name, metric in table.items():
        result = UNDEFINED if metric is None else asdict(
            met.grouped_bootstrap(pred, metric, draws, seed_b))
        rows.append({"task": task, "model": model, "seed": seed, "metric": name, **result})
    return rows


def _calibrate(run_dir: Path, val: SplitData, logits_val, config: BenchConfig):
    """Temperature and F-beta threshold from the validation logits, written to
    the run's calibration.json."""
    temperature = (cal.fit_temperature(logits_val, val.cls_labels)
                   if config.calibration.enabled else 1.0)
    probs_val = cal.apply_temperature(logits_val, temperature)
    tau = cal.select_threshold_fbeta(probs_val, val.cls_labels, config.calibration.beta)
    sidecar = {"temperature": temperature, "threshold": tau, "beta": config.calibration.beta}
    write_json(run_dir / "calibration.json", sidecar)
    return temperature, tau


def _check_checkpoint(run_id: str, base: Path, params: dict, kind: str, enc_config) -> None:
    """Raise an EvaluationError naming the run and the first parameter whose
    name, shape or dtype differs from the model `kind` and `enc_config` build."""
    model = models.build_params(kind, enc_config, 0)

    def held(p):
        return "no such parameter" if p is None else f"{p.data.dtype} {p.shape}"

    for name in sorted(model.keys() | params.keys()):
        got, want = params.get(name), model.get(name)
        if held(got) != held(want):
            raise EvaluationError(f"run {run_id}, parameter {name}: checkpoint.json under {base} "
                                  f"has {held(got)}, the model {held(want)}; "
                                  "train the run again")


def _score_run(config: BenchConfig, dataset, spec: RunSpec) -> list[dict]:
    """Check one run's checkpoint and manifest against the config and the
    dataset, score it on the test split and return its report rows; a
    classification run also gets its calibration.json."""
    base = Path(config.runs_dir)
    run_dir = base / spec.run_id
    enc_config = config.encoder_config(spec.model_kind, spec.hidden)
    # the blob `run_train` writes, as JSON reads it back: a tuple as a list
    wanted = json.loads(json.dumps({"model_kind": spec.model_kind, **asdict(enc_config)}))
    try:
        params, blob = load_checkpoint(run_dir / "checkpoint.json")
        for key in {**wanted, **blob}:
            if blob.get(key) != wanted.get(key):
                raise ValueError(f"trained with {key} = {blob.get(key)!r}, "
                                 f"the config gives {wanted.get(key)!r}")
    except (ValueError, KeyError, TypeError) as exc:
        # for example a file cut short or edited by hand, or a run
        # trained under other [models] settings
        raise EvaluationError(f"run {spec.run_id}: unreadable checkpoint.json under {base} "
                              f"({type(exc).__name__}: {exc}); train the run again") from None
    _check_checkpoint(spec.run_id, base, params, spec.model_kind, enc_config)
    manifest = run_dir / "manifest.json"
    try:
        with reading(manifest) as fh:
            trained = json.load(fh)
    except ValueError as exc:
        raise EvaluationError(f"run {spec.run_id}: {manifest} is not a run manifest "
                              f"({exc}); train the run again") from None
    if not isinstance(trained, dict) or trained.get("dataset_sha256") != dataset.sha256:
        raise EvaluationError(f"run {spec.run_id} was trained on another prepared dataset "
                              f"than {Path(config.data.dataset_dir) / 'dataset.json'} (its "
                              "manifest's dataset_sha256 is missing or differs); "
                              "train the run again")

    def predict(split: SplitData):
        return models.model_predictions(spec.model_kind, enc_config, params,
                                        split.contexts_norm, split.last_context_norm)

    test = dataset.split("test")
    out = predict(test)
    if spec.task == "classification":
        val = dataset.split("val")
        temperature, tau = _calibrate(run_dir, val, predict(val)["cls_logit"], config)
        columns = {"probs": cal.apply_temperature(out["cls_logit"], temperature),
                   "labels": test.cls_labels.astype(np.float64)}
        table = metric_table(spec.task, tau)
    else:
        mu = out["mu_tilde"] if spec.target_mode == "residual" else out["delta_mu"]
        columns = {"mu": dataset.stats.denormalize(mu),
                   "sigma": dataset.stats.scale_to_bpm(out["sigma_n"]),
                   "target": test.fc_targets_bpm}
        table = metric_table(spec.task)
    return _scored_rows(spec.task, spec.model_label, spec.seed, test, columns, table, config)


def run_evaluate(config: BenchConfig) -> list[dict]:
    """Score the runs of the config's grid plus the non-learned baselines;
    write reports. A grid run trained on another dataset.json than the one
    under the config's dataset_dir is an EvaluationError. Run directories
    outside the grid are not read; those that hold a checkpoint (other seeds,
    a capacity sweep the config leaves out) are named in a warning on
    stderr. The runs are scored on every CPU (`_pooled`), and their rows
    gather in run-id order."""
    base = Path(config.runs_dir)
    specs = sorted(_grid(config), key=lambda spec: spec.run_id)
    for spec in specs:
        if not (base / spec.run_id / "checkpoint.json").exists():
            raise EvaluationError(f"grid run {spec.run_id} has no checkpoint under {base}")
    in_grid = {spec.run_id for spec in specs}
    outside = sorted(path.parent.name for path in base.glob("*/checkpoint.json")
                     if path.parent.name not in in_grid)
    if outside:
        print(f"warning: not scoring {len(outside)} trained run(s) under {base} outside "
              f"the config's grid: {', '.join(outside)}", file=sys.stderr)
    dataset = load_prepared(config.data.dataset_dir)
    rows = [row for run_rows in _pooled(
        lambda index: _score_run(config, dataset, specs[index]),
        [spec.run_id for spec in specs], "evaluate", "unscored") for row in run_rows]

    # the non-learned baselines depend on no training seed: scored once,
    # reported under each seed
    test, train = dataset.split("test"), dataset.split("train")
    resid_std = float(np.std(train.fc_targets_bpm - train.contexts_bpm[:, -1]))
    mu_bpm, sigma_bpm = models.persistence_forecast(test.contexts_bpm, resid_std)
    baselines = _scored_rows(
        "classification", "always_negative", None, test,
        {"probs": models.always_negative_probs(len(test)),
         "labels": test.cls_labels.astype(np.float64)},
        metric_table("classification"), config,
    ) + _scored_rows(
        "forecasting", "persistence", None, test,
        {"mu": mu_bpm, "sigma": sigma_bpm, "target": test.fc_targets_bpm},
        metric_table("forecasting"), config,
    )
    for seed in config.train.seeds:
        rows.extend({**row, "seed": seed} for row in baselines)

    write_csv(base / "report.csv",
              [REPORT_COLUMNS, *([row[key] for key in REPORT_COLUMNS] for row in rows)])
    write_json(base / "report.json", rows)
    return rows


def _number(text: str):
    # the int or float that `run_evaluate` wrote (a float's repr always has
    # a point, an exponent or a letter), or None for an empty field
    if not text:
        return None
    return int(text) if text.lstrip("-").isdigit() else float(text)


def read_report(runs_dir) -> list[dict]:
    path = Path(runs_dir) / "report.csv"
    with reading(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != REPORT_COLUMNS:
            raise DataError(f"{path}: not a report file (header {reader.fieldnames})")
        try:
            return [{**r, **{key: _number(r[key]) for key in ("seed", *UNDEFINED)}}
                    for r in reader]
        except ValueError as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None


def aggregate_rows(rows: list[dict]) -> list[dict]:
    """mean +/- sample std of point estimates across seeds per (task, model, metric)."""
    grouped: dict[tuple, list[float]] = {}
    for r in rows:
        if r["point"] is None:
            continue
        grouped.setdefault((r["task"], r["model"], r["metric"]), []).append(r["point"])
    out = []
    for (task, model, metric), points in sorted(grouped.items()):
        arr = np.array(points)
        std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        out.append({"task": task, "model": model, "metric": metric,
                    "mean": float(arr.mean()), "std": std, "n_seeds": len(arr)})
    return out


def run_report(runs_dir) -> list[dict]:
    """Aggregate per-seed reports into the final summary tables."""
    rows = read_report(runs_dir)
    aggregated = aggregate_rows(rows)
    base = Path(runs_dir)
    # std across seeds is the sample (n-1) standard deviation
    write_csv(base / "summary.csv", [["task", "model", "metric", "mean", "std", "n_seeds"]] + [
        [r["task"], r["model"], r["metric"], repr(r["mean"]), repr(r["std"]), r["n_seeds"]]
        for r in aggregated])
    for task in TASKS:
        metric_names = metric_table(task)
        found = {(r["model"], r["metric"]): r for r in aggregated if r["task"] == task}
        header = ["model"]
        for m in metric_names:
            header += [m, f"{m}_std"]
        rows = [header]
        for model in sorted({model for model, _ in found}):
            row = [model]
            for m in metric_names:
                r = found.get((model, m))
                row += [repr(r["mean"]), repr(r["std"])] if r else ["", ""]
            rows.append(row)
        write_csv(base / f"summary_{task}.csv", rows)
    print(f"wrote {base / 'summary.csv'}")
    return aggregated
