"""The INI file, `init-config` and the CLI flags all set the same settings."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrbench import cli
from hrbench.config import (
    BenchConfig,
    CalibrationConfig,
    DataConfig,
    EvaluationConfig,
    ModelsConfig,
    SplitConfig,
    load_config,
    render_config,
)
from hrbench.synth import SyntheticSpec
from hrbench.training import TrainConfig

# text an INI value keeps as written: `%`, `#`, `;` and inner spaces, but no
# leading or trailing space (configparser strips it) and, in a list item, no
# comma (the item separator)
paths = st.text("abcXYZ019_-./%#; ", max_size=12).map(str.strip)
names = st.text("abcXYZ019_-", min_size=1, max_size=6)
floats = st.floats(min_value=1e-9, max_value=1e6, allow_nan=False, allow_infinity=False)
counts = st.integers(1, 200)
seeds = st.integers(0, 2**31)


def tuples(elements, min_size=0, unique=False):
    return st.lists(elements, min_size=min_size, max_size=4, unique=unique).map(tuple)


@st.composite
def models_configs(draw):
    heads = draw(st.integers(1, 4))
    return ModelsConfig(
        kinds=draw(tuples(st.sampled_from(["grud", "transformer"]), min_size=1, unique=True)),
        grud_hidden=draw(counts), d_model=heads * draw(st.integers(1, 8)),
        layers=draw(st.integers(1, 3)), heads=heads, ffn_dim=draw(counts),
    )


configs = st.builds(
    BenchConfig,
    data=st.builds(DataConfig, peaks_manifest=paths,
                   exclude=tuples(names), dataset_dir=paths, synth_dir=paths),
    split=st.builds(SplitConfig, ratios=st.sampled_from([(0.5, 0.25, 0.25), (1.0, 0.0, 0.0),
                                                         (0.6, 0.3, 0.1)]),
                    seed=seeds),
    models=models_configs(),
    train=st.builds(TrainConfig, lr=floats, batch_size=counts, epochs=counts,
                    seeds=tuples(seeds, min_size=1, unique=True), weight_decay=floats,
                    target_mode=st.sampled_from(["residual", "absolute"])),
    hidden_sweep=tuples(counts, unique=True),
    calibration=st.builds(CalibrationConfig, enabled=st.booleans(), beta=floats),
    evaluation=st.builds(EvaluationConfig, bootstrap_draws=counts, bootstrap_seed=seeds),
    synth=st.builds(SyntheticSpec, n_records=counts, record_seconds=counts, base_hr=floats,
                    episode_rate_per_hour=floats, episode_amplitude=floats, seed=seeds),
    runs_dir=paths,
)


@given(configs)
@example(BenchConfig(data=DataConfig(dataset_dir="out/run #1", synth_dir="data ;x")))
@settings(max_examples=60, deadline=None)
def test_rendered_config_loads_back(tmp_path_factory, config):
    ini = tmp_path_factory.mktemp("config") / "bench.ini"
    ini.write_text(render_config(config), encoding="utf-8")
    assert load_config(ini) == config


def test_rendered_values():
    config = BenchConfig(
        data=DataConfig(exclude=("r1", "r2"), dataset_dir="out/ds"),
        train=TrainConfig(seeds=(3,)),
        calibration=CalibrationConfig(enabled=False),
    )
    lines = set(render_config(config).splitlines())
    assert {"exclude = r1,r2", "dataset_dir = out/ds", "seeds = 3", "hidden_sweep =",
            "enabled = false", "ratios = 0.7,0.15,0.15"} <= lines


# settings that became constants of the code: an INI that still sets one
# names it as an unknown key
REMOVED = [("synth", key) for key in ("ar_coeff", "reversion", "noise_scale",
                                      "episode_duration_s", "episode_ramp_s",
                                      "osc_amplitude", "osc_period_s")]
REMOVED += [("models", "layer_norm"), ("train", "prevalence_eps"), ("evaluation", "ece_bins")]


@pytest.mark.parametrize("section,key", REMOVED)
def test_a_removed_setting_is_an_unknown_key(section, key, tmp_path, capsys):
    ini = tmp_path / "bench.ini"
    ini.write_text(f"[{section}]\n{key} = 1\n", encoding="utf-8")
    assert cli.main(["prepare", "--config", str(ini)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {ini}: unknown key {key!r} in section [{section}]"]


# the task's window, horizon and theta candidates are constants of `ingest`
@pytest.mark.parametrize("key", ["context_seconds", "horizon_seconds", "theta_candidates"])
def test_the_removed_windows_section_is_an_unknown_section(key, tmp_path, capsys):
    ini = tmp_path / "bench.ini"
    ini.write_text(f"[windows]\n{key} = 60\n", encoding="utf-8")
    assert cli.main(["prepare", "--config", str(ini)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {ini}: unknown section [windows]"]


# flag destination -> (command line, INI text that sets the same setting)
FLAG_CASES = {
    "out": ("synth --out data/x", "[data]\nsynth_dir = data/x\n"),
    "runs": ("report --runs out/r", "[train]\nruns_dir = out/r\n"),
    "hidden_sweep": ("train --hidden-sweep 4,6", "[train]\nhidden_sweep = 4,6\n"),
    "target_mode": ("evaluate --target-mode absolute", "[train]\ntarget_mode = absolute\n"),
    "beta": ("evaluate --beta 0.5", "[calibration]\nbeta = 0.5\n"),
    "no_calibration": ("evaluate --no-calibration", "[calibration]\nenabled = false\n"),
}


def test_every_flag_has_a_case():
    assert set(FLAG_CASES) == set(cli.FLAGS)


@pytest.mark.parametrize("dest", sorted(FLAG_CASES))
def test_flag_equals_its_ini_key(dest, tmp_path):
    command, ini_text = FLAG_CASES[dest]
    ini = tmp_path / "bench.ini"
    ini.write_text(ini_text, encoding="utf-8")
    from_flag = cli._load(cli._build_parser().parse_args(command.split()))
    assert from_flag == load_config(ini) != BenchConfig()
