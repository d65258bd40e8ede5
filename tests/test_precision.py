"""The models compute in `models.DTYPE` (float32) and nothing promotes them.

A float32 array combined with a float64 array or an `np.float64` scalar
becomes float64 silently, so these tests look at the dtype of every node,
every gradient passed back and the AdamW state of a training step. The same
step on float64 parameters stays float64, and its gradients are what the
float32 ones must match.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hrbench import autodiff as ad
from hrbench import models, training
from hrbench.autodiff import Parameter, load_checkpoint, save_checkpoint
from hrbench.errors import ContractViolation
from reference import float64
from test_training import GRUD_SMALL, TF_SMALL, small_dataset

ENCODERS = {"grud": GRUD_SMALL, "transformer": TF_SMALL}
CASES = [(kind, task) for kind in ENCODERS for task in ("classification", "forecasting")]


@pytest.fixture(scope="module")
def train_split():
    return small_dataset().split("train")


def _model(kind):
    """A freshly built model with live heads: zero head weights would give
    the encoder no gradient."""
    params = models.build_params(kind, ENCODERS[kind], 0)
    rng = np.random.default_rng(1)
    for name, p in params.items():
        if name.startswith("head."):
            p.data[...] = rng.normal(scale=0.5, size=p.shape)
    return params


def _step(monkeypatch, kind, task, params, split):
    """One training step as `train_model` takes it; returns the loss, the
    dtypes of the recorded nodes, of every gradient passed back and of the
    AdamW state, and the parameters' gradients before the update."""
    passed_back = []
    accum = ad._accum

    def recording(t, g):
        passed_back.append(np.asarray(g).dtype)
        accum(t, g)

    monkeypatch.setattr(ad, "_accum", recording)
    alpha = training.class_weight(split.cls_labels)
    ad.zero_grads(params.values())
    loss = training._batch_loss(task, kind, ENCODERS[kind], params, split, np.arange(32),
                                alpha, "residual")
    nodes = {node.data.dtype for node in ad.Tape(loss).nodes}
    ad.backward(loss)
    grads = {name: p.grad.copy() for name, p in params.items()}
    state = training.AdamWState()
    training.adamw_step(list(params.values()), state, 1e-3, 0.01)
    moments = {a.dtype for a in (*state.m.values(), *state.v.values())}
    return loss, nodes, set(passed_back), moments, grads


@pytest.mark.parametrize("kind,task", CASES)
def test_a_float32_step_stays_float32(monkeypatch, train_split, kind, task):
    params = _model(kind)
    loss, nodes, passed_back, moments, grads = _step(monkeypatch, kind, task, params, train_split)
    f32 = {np.dtype(np.float32)}
    assert models.DTYPE == np.float32
    assert loss.data.dtype == np.float32
    assert nodes == passed_back == moments == f32
    assert {g.dtype for g in grads.values()} == f32
    assert {p.data.dtype for p in params.values()} == f32


@pytest.mark.parametrize("kind,task", CASES)
def test_a_float64_step_stays_float64(monkeypatch, train_split, kind, task):
    params = float64(_model(kind))
    loss, nodes, passed_back, moments, grads = _step(monkeypatch, kind, task, params, train_split)
    f64 = {np.dtype(np.float64)}
    assert loss.data.dtype == np.float64
    assert nodes == passed_back == moments == f64
    assert {g.dtype for g in grads.values()} == f64
    assert {p.data.dtype for p in params.values()} == f64


@pytest.mark.parametrize("kind,task", CASES)
def test_float32_gradients_match_float64(monkeypatch, train_split, kind, task):
    # the same parameter values in both precisions: at most 16 float32
    # epsilons (2e-6) of a parameter's largest gradient apart (measured), so
    # 1e-4 of it leaves room and still fails on a wrong term
    params = _model(kind)
    loss32, *_, grads32 = _step(monkeypatch, kind, task, params, train_split)
    loss64, *_, grads64 = _step(monkeypatch, kind, task, float64(_model(kind)), train_split)
    assert loss32.item() == pytest.approx(loss64.item(), rel=1e-5)
    live = [name for name, g in grads64.items() if np.abs(g).max() > 0]
    assert len(live) > len(grads64) // 2  # the encoder's gradients among them
    for name, g64 in grads64.items():
        scale = float(np.abs(g64).max())
        assert np.abs(grads32[name] - g64).max() <= 1e-4 * scale, name


def test_training_and_prediction_keep_their_precisions():
    dataset = small_dataset()
    run = training.train_model("forecasting", "grud", dataset,
                               training.TrainConfig(epochs=1), 0, encoder_config=GRUD_SMALL)
    assert {p.data.dtype for p in run.params.values()} == {np.dtype(np.float32)}
    test = dataset.split("test")
    out = models.model_predictions("grud", GRUD_SMALL, run.params, test.contexts_norm,
                                   test.last_context_norm)
    assert {v.dtype for v in out.values()} == {np.dtype(np.float64)}


def _values(dtype):
    finite = st.floats(width=np.finfo(dtype).bits, allow_nan=False, allow_infinity=False)
    return hnp.arrays(dtype, hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
                      elements=finite)


@given(st.sampled_from([np.float32, np.float64]).flatmap(_values))
@settings(max_examples=100, deadline=None)
def test_checkpoint_round_trip_is_bit_exact(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.json"
    save_checkpoint(path, [Parameter("w", values)], config={"model_kind": "grud"})
    params, config = load_checkpoint(path)
    loaded = params["w"].data
    assert config == {"model_kind": "grud"}
    assert loaded.dtype == values.dtype and loaded.shape == values.shape
    # bit patterns, so -0.0 and subnormals count too
    assert loaded.tobytes() == values.tobytes()


# any JSON document, and more often an object of entries that have a
# checkpoint's keys, so that draws reach the parse of each entry's values
_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
           | st.sampled_from(["float32", "float64", "int64"]))
_JSON = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=4), max_leaves=16)
_ENTRIES = st.fixed_dictionaries({
    "shape": st.lists(st.integers(-1, 3), max_size=2),
    "dtype": st.sampled_from(["float32", "float64", "int64"]),
    # past float32's range, its largest value's nine-digit text, and past float64's
    "data": st.lists(st.floats() | st.integers() | st.sampled_from(
        [1e39, -1e300, 3.40282347e+38, 10**400]), max_size=4),
})
_DOCUMENTS = _JSON | st.dictionaries(st.sampled_from(["config", "w", "b"]), _ENTRIES | _JSON,
                                     min_size=1, max_size=3)


@given(_DOCUMENTS)
@settings(max_examples=300, deadline=None)
def test_any_json_document_loads_or_is_a_value_error(tmp_path_factory, doc):
    """Every other error, or a numpy warning, is a fault of load_checkpoint;
    what loads is float32 or float64 and finite. What save_checkpoint writes
    loads back bit for bit (the round-trip tests above)."""
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            params, config = load_checkpoint(path)
        except ValueError:
            return
    assert config is None or isinstance(config, dict)
    for p in params.values():
        assert p.data.dtype in (np.float32, np.float64) and np.isfinite(p.data).all()


# float32 bit patterns: every 997th positive subnormal and the largest; and
# every 40,961st finite pattern of either sign, about 100,000 values
FLOAT32_PATTERNS = {
    "subnormal": np.append(np.arange(1, 1 << 23, 997), (1 << 23) - 1),
    "strided": np.arange(0, 0x7F800000, 40961),
}


@pytest.mark.parametrize("patterns", FLOAT32_PATTERNS.values(), ids=FLOAT32_PATTERNS.keys())
def test_float32_bit_patterns_round_trip_bit_exact(tmp_path, patterns):
    values = patterns.astype(np.uint32).view(np.float32)
    values = np.concatenate([values, -values])
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, [Parameter("w", values)])
    assert load_checkpoint(path)[0]["w"].data.tobytes() == values.tobytes()


def test_float32_values_are_written_with_nine_digits(tmp_path):
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, [Parameter("w", np.array([0.1, -0.0, 1.0, 3e38], np.float32))])
    text = path.read_text(encoding="utf-8")
    assert '"data": [0.100000001, -0.0, 1, 3.00000001e+38]' in text


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_non_finite_parameter_is_a_contract_violation(tmp_path, dtype, bad):
    path = tmp_path / "checkpoint.json"
    params = [Parameter("fine", np.ones(2, dtype)), Parameter("w", np.array([0.5, bad], dtype))]
    with pytest.raises(ContractViolation, match="'w'"):
        save_checkpoint(path, params)
    assert not path.exists()

