"""Mutated input files end in an exit code, never in a traceback.

The micro pipeline runs once; every fault found here is a named case in
`test_pipeline.MALFORMED`. Each example copies its files, mutates one file
that a stage reads, and runs that stage through `cli.main` in the test's
process. The stage must exit 0 or with a BenchError's code, let no other
exception escape, and on a nonzero exit print exactly one `error:` line.
"""

import contextlib
import io
import os
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_pipeline import micro_config

from hrbench import cli, errors
from hrbench.config import render_config
from hrbench.ingest import HR_MAX, HR_MIN, SPLIT_NAMES, load_prepared

STAGES = ("synth", "prepare", "train", "evaluate", "report")
# (stage, a file it reads, relative to the pipeline's directory)
TARGETS = [
    ("synth", "bench.ini"),
    ("prepare", "bench.ini"),
    ("train", "bench.ini"),
    ("evaluate", "bench.ini"),
    ("prepare", "synth/manifest.csv"),
    ("prepare", "synth/synth004.txt"),
    ("train", "dataset/windows.csv"),
    ("train", "dataset/dataset.json"),
    ("evaluate", "dataset/windows.csv"),
    ("evaluate", "dataset/dataset.json"),
    ("evaluate", "runs/classification_grud_seed0/checkpoint.json"),
    ("evaluate", "runs/forecasting_transformer_seed0/checkpoint.json"),
    ("evaluate", "runs/forecasting_transformer_seed0/manifest.json"),
    ("report", "runs/report.csv"),
]
EXIT_CODES = {0} | {cls.exit_code for cls in vars(errors).values()
                    if isinstance(cls, type) and issubclass(cls, errors.BenchError)}
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
BYTES = [b"\xff", b"\0", b"\r"]
NUMBERS = [b"nan", b"inf", b"1e400", b"-0", b""]
# finite, and past float32's range: drawn too in the files of numbers, not in
# bench.ini, where such a value is an accepted setting
LARGE = [b"1e39", b"1e300"]
NUMBER_FILES = (".txt", "windows.csv", "dataset.json", "checkpoint.json")
MUTATIONS = ("truncate", "flip", "insert", "drop_line", "repeat_line", "swap_fields", "number")


def _write_ini(base: Path) -> Path:
    ini = base / "bench.ini"
    ini.write_text(render_config(micro_config(base)), encoding="utf-8")
    return ini


def _run(stage: str, ini: Path) -> tuple[int, list[str]]:
    """`stage` run from the INI's directory, where a mutated INI's default
    paths point."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ini.parent)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([stage, "--config", str(ini)])
    finally:
        os.chdir(cwd)
    return code, stderr.getvalue().splitlines()


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz") / "pipeline"
    base.mkdir()
    ini = _write_ini(base)
    for stage in STAGES:
        assert _run(stage, ini) == (0, [])
    return base


@st.composite
def mutations(draw, text: bytes, numbers=NUMBERS) -> bytes:
    """`text` with one mutation: cut at a byte, a byte flipped to or inserted
    as 0xff, NUL or CR, a line dropped or repeated, two fields of a line
    swapped, or a number replaced by one of `numbers`."""
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "truncate":
        return text[:draw(st.integers(0, max(len(text) - 1, 0)))]
    if kind in ("flip", "insert"):
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(BYTES)) + text[at + (kind == "flip"):]
    if kind == "number":
        spans = [m.span() for m in NUMBER.finditer(text)]
        start, end = spans[draw(st.integers(0, len(spans) - 1))]
        return text[:start] + draw(st.sampled_from(numbers)) + text[end:]
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "swap_fields":
        fields = lines[i].rstrip(b"\r\n").split(b",")
        j, k = draw(st.lists(st.integers(0, len(fields) - 1), min_size=2, max_size=2))
        fields[j], fields[k] = fields[k], fields[j]
        lines[i] = b",".join(fields) + lines[i][len(lines[i].rstrip(b"\r\n")):]
    else:
        lines[i:i + 1] = [] if kind == "drop_line" else [lines[i]] * 2
    return b"".join(lines)


def _check_mutated_input(pipeline_dir: Path, data) -> None:
    stage, name = data.draw(st.sampled_from(TARGETS))
    # one path for every example: the INI text, and so what is drawn from it,
    # holds the path
    work = pipeline_dir.with_name("work")
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("synth", "dataset", "runs"):
        shutil.copytree(pipeline_dir / sub, work / sub)
    ini = _write_ini(work)
    target = work / name
    numbers = NUMBERS + LARGE if name.endswith(NUMBER_FILES) else NUMBERS
    target.write_bytes(data.draw(mutations(target.read_bytes(), numbers), label=name))
    code, err = _run(stage, ini)
    assert code in EXIT_CODES
    if code:
        assert [line for line in err if line.startswith("error: ")] == err[-1:], err
    if name.endswith("windows.csv"):
        _check_only_windows_load(work / "dataset")


def _check_only_windows_load(dataset_dir: Path) -> None:
    """Whatever `load_prepared` returns holds only windows, in every split:
    their values in the range `derive_hr` writes."""
    try:
        dataset = load_prepared(dataset_dir)
    except errors.DataError:
        return
    for name in SPLIT_NAMES:
        split = dataset.split(name)
        for bpm in (split.contexts_bpm, split.fc_targets_bpm):
            assert ((HR_MIN <= bpm) & (bpm <= HR_MAX)).all()
        assert set(split.cls_labels.tolist()) <= {0, 1} and (split.start_indices >= 0).all()


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_mutated_input_ends_in_an_exit_code(pipeline_dir, data):
    _check_mutated_input(pipeline_dir, data)


@pytest.mark.slow
@given(data=st.data())
@settings(max_examples=1000, deadline=None)
def test_many_mutated_inputs_end_in_an_exit_code(pipeline_dir, data):
    _check_mutated_input(pipeline_dir, data)
