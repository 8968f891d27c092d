"""Property tests over random shapes: conv against its loop oracle,
exact roll equivariance of float32 pad+conv, and the padding tables
against the walk-the-sphere oracle.

Examples are derandomized, so every run draws the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from karina import engine as E
from karina import layers as L
from karina.padding import PaddingMode, index_map, roll_lon
from test_engine import conv_oracle
from test_padding import oracle_pad

FIXED = settings(derandomize=True, deadline=None, database=None, max_examples=40)

odd_kernels = st.sampled_from([1, 3, 5, 7])


@FIXED
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       odd_kernels, st.integers(0, 4), st.integers(0, 4), st.booleans(), st.data())
def test_conv_matches_loop_oracle(bsz, groups, cin_g, cout_g, k, dh, dw, rank3, data):
    cin, cout = groups * cin_g, groups * cout_g
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = rng.standard_normal((1 if rank3 else bsz, cin, k + dh, k + dw))
    w = rng.standard_normal((cout, cin_g, k, k))
    b = rng.standard_normal(cout)
    got = E.conv2d_valid(E.Tensor(x[0] if rank3 else x), E.Tensor(w), E.Tensor(b),
                         groups=groups).data
    want = conv_oracle(x, w, b, groups)
    assert got.shape == (want[0] if rank3 else want).shape
    assert np.allclose(got, want[0] if rank3 else want, rtol=1e-12, atol=1e-12)


@FIXED
@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 2), odd_kernels,
       st.integers(1, 6), st.integers(1, 6),
       st.sampled_from([PaddingMode.GEOCYCLIC, PaddingMode.CIRCULAR_ZERO_POLE]), st.data())
def test_float32_conv_commutes_with_every_roll(groups, cin_g, cout_g, k, h, half_w, mode, data):
    h = max(h, (k - 1) // 2)
    w = 2 * half_w
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    conv = L.Conv2d(groups * cin_g, groups * cout_g, k, groups=groups,
                    padding_mode=mode, rng=rng, dtype=np.float32)
    conv.bias.data[:] = rng.standard_normal(groups * cout_g).astype(np.float32)
    x = rng.standard_normal((2, groups * cin_g, h, w)).astype(np.float32)
    base = conv(E.Tensor(x)).data
    for s in range(w):
        rolled = conv(E.Tensor(roll_lon(x, s))).data
        assert np.array_equal(rolled, roll_lon(base, s)), f"shift {s}"


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(st.integers(1, 9), st.integers(1, 8), st.data(), st.sampled_from(list(PaddingMode)))
def test_index_map_matches_oracle(h, half_w, data, mode):
    w = 2 * half_w
    p = data.draw(st.integers(1, h), label="p")
    field = np.arange(1.0, h * w + 1.0).reshape(h, w)   # no zeros, so fill is visible
    table = index_map(p, (h, w), mode)
    got = np.where(table >= 0, field.reshape(-1)[np.maximum(table, 0)], 0.0)
    assert np.array_equal(got, oracle_pad(field, p, mode))
