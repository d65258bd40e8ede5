"""Strict causality: HR at or after a window's context end never reaches it."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hrbench import models, training
from hrbench.ingest import (
    CONTEXT_LEN,
    HORIZON,
    HR_MAX,
    HR_MIN,
    HrSeries,
    StandardizationStats,
    _split_data,
    build_windows,
)

T, H = CONTEXT_LEN, HORIZON
STATS = StandardizationStats(mu=90.0, sigma=15.0)
ENCODERS = {
    "grud": models.GrudConfig(hidden_dim=4),
    "transformer": models.TransformerConfig(d_model=8, layers=1, heads=2, ffn_dim=16, max_len=T),
}


def _params(kind):
    params = training._build_model(kind, ENCODERS[kind], 0)
    rng = np.random.default_rng(1)
    for name, p in params.items():
        if name.startswith("head."):  # zero heads would hide the encoder
            p.data[...] = rng.normal(size=p.shape)
    return params


PARAMS = {kind: _params(kind) for kind in ENCODERS}


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_perturbing_the_future_leaves_a_window_bit_identical(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n_windows = data.draw(st.integers(1, 3))
    hr = rng.uniform(HR_MIN, HR_MAX, T * n_windows + H + data.draw(st.integers(0, T - 1)))
    i = data.draw(st.integers(0, n_windows - 1))
    cut = data.draw(st.integers(i * T + T, len(hr) - 1))
    future = hr.copy()
    future[cut:] = rng.uniform(HR_MIN, HR_MAX, len(hr) - cut)

    windows = [build_windows(HrSeries("r", x)) for x in (hr, future)]
    np.testing.assert_array_equal(windows[0].contexts_bpm[i], windows[1].contexts_bpm[i])
    a, b = (_split_data(ws, STATS) for ws in windows)
    np.testing.assert_array_equal(a.contexts_norm[i], b.contexts_norm[i])
    for kind, config in ENCODERS.items():
        # the whole series in one batch: later windows change, window i must not
        out_a, out_b = (models.model_predictions(kind, config, PARAMS[kind], s.contexts_norm,
                                                 s.last_context_norm) for s in (a, b))
        for name in out_a:
            np.testing.assert_array_equal(out_a[name][i], out_b[name][i])
