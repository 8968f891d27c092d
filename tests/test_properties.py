"""Property tests over random shapes: conv against its loop oracle,
conv gradients bit for bit against their contracts (dx is conv's own
forward on the padded upstream gradient with the flipped, in/out-swapped
kernel; the w and b gradients add per-sample GEMMs left to right),
depthwise dx bit for bit against its tap-loop arithmetic on every
OpenBLAS kernel and on edge shapes, the conv goldens and depthwise dx at
numpy's X86_V2 SIMD level, exact roll equivariance of float32 pad+conv,
and the padding tables against the walk-the-sphere oracle.  Damaged `.grid` and `.krna`
files either load or raise the reader's own error.

Examples are derandomized, so every run draws the same cases.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from blas_helpers import run_at_x86_v2, run_per_core
from karina import engine as E
from karina import layers as L
from karina.data import DataError, GridFile, read_grid, write_grid
from karina.model import ModelConfig, ModelError, build, load_checkpoint, save_checkpoint
from karina.padding import PaddingMode, index_map
from test_engine import conv_oracle
from test_golden import CONV_GOLDEN, conv_bits
from test_padding import oracle_pad


def roll_lon(a, s):
    """Shift a field s cells eastward along the last axis, wrapping.

    Kept as a named helper: derandomized hypothesis derives a test's
    examples from its source, so editing a test body changes its draws.
    """
    return np.roll(a, s, axis=-1)


FIXED = settings(derandomize=True, deadline=None, database=None, max_examples=40)

odd_kernels = st.sampled_from([1, 3, 5, 7])


@FIXED
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       odd_kernels, st.integers(0, 4), st.integers(0, 4), st.data())
def test_conv_matches_loop_oracle(bsz, groups, cin_g, cout_g, k, dh, dw, data):
    cin, cout = groups * cin_g, groups * cout_g
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = rng.standard_normal((bsz, cin, k + dh, k + dw))
    w = rng.standard_normal((cout, cin_g, k, k))
    b = rng.standard_normal(cout)
    got = E.conv2d_valid(E.Tensor(x), E.Tensor(w), E.Tensor(b), groups=groups).data
    want = conv_oracle(x, w, b, groups)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def left_to_right(per_sample):
    acc = per_sample[0].copy()
    for part in per_sample[1:]:
        acc += part
    return acc


def wb_grads_left_to_right(x, w, g, groups):
    """w and b gradients of conv2d_valid: one GEMM per (sample, group)
    against the forward's patch matrix, summed over samples in order."""
    bsz, cin, hp, wp = x.shape
    cout, cin_g, k, _ = w.shape
    ho, wo = hp - k + 1, wp - k + 1
    cols = sliding_window_view(x, (k, k), axis=(2, 3)).transpose(0, 1, 4, 5, 2, 3)
    gcols = cols.reshape(bsz, groups, cin_g * k * k, ho * wo)
    gg = g.reshape(bsz, groups, cout // groups, ho * wo)
    db = left_to_right(g.reshape(bsz, cout, ho * wo).sum(axis=2))
    dw = left_to_right(np.matmul(gg, gcols.transpose(0, 1, 3, 2)).reshape((bsz,) + w.shape))
    return dw, db


def x_grad_by_forward(w, g, groups):
    """dx of conv2d_valid, sample by sample: its own forward on g
    zero-padded by K-1, against each group's kernel flipped in both
    spatial axes with its in and out channels swapped.  The bias is -0.0,
    the one value whose addition leaves every float, -0.0 included, as
    it is."""
    cout, cin_g, k, _ = w.shape
    wf = (w.reshape(groups, cout // groups, cin_g, k, k)[..., ::-1, ::-1]
          .transpose(0, 2, 1, 3, 4).reshape(groups * cin_g, cout // groups, k, k))
    no_bias = E.Tensor(np.full(groups * cin_g, -0.0, dtype=w.dtype))
    edge = ((0, 0), (0, 0), (k - 1, k - 1), (k - 1, k - 1))
    with E.no_grad():
        dx = [E.conv2d_valid(E.Tensor(np.pad(g[n:n + 1], edge)), E.Tensor(wf), no_bias,
                             groups=groups).data[0]
              for n in range(g.shape[0])]
    return np.stack(dx)


# grouping -> (groups, cout) for c input channels
GROUPINGS = {"dense": lambda c: (1, c + 1), "depthwise": lambda c: (c, c),
             "multiplier_2": lambda c: (c, 2 * c)}


@FIXED
@given(st.integers(1, 3), st.integers(1, 4), odd_kernels, st.integers(0, 4), st.integers(0, 4),
       st.sampled_from([np.float32, np.float64]), st.sampled_from(sorted(GROUPINGS)),
       st.integers(0, 2**32 - 1))
@example(2, 3, 1, 2, 3, np.float32, "depthwise", 0)      # 1x1 depthwise
@example(1, 2, 1, 0, 1, np.float64, "depthwise", 1)      # 1x1 depthwise, batch of one
@example(2, 3, 7, 1, 2, np.float32, "multiplier_2", 2)   # cout = 2 cin
@example(2, 2, 1, 1, 1, np.float32, "multiplier_2", 3)   # multiplier 2 at 1x1
@example(2, 3, 3, 2, 1, np.float32, "dense", 4)          # dense 3x3
@example(1, 2, 5, 1, 0, np.float64, "dense", 5)          # dense 5x5, batch of one
def test_conv_x_grad_is_forward_on_padded_g_bits(bsz, c, k, dh, dw, dtype, grouping, seed):
    groups, cout = GROUPINGS[grouping](c)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((bsz, c, k + dh, k + dw)).astype(dtype)
    # negative and -0.0 weights and zeros in g make signed-zero products
    w = rng.standard_normal((cout, c // groups, k, k)).astype(dtype)
    w[rng.random(w.shape) < 0.2] = -0.0
    g = rng.standard_normal((bsz, cout, dh + 1, dw + 1)).astype(dtype)
    g[rng.random(g.shape) < 0.5] = 0.0
    g[rng.random(g.shape) < 0.1] = -0.0
    xt, wt, bt = (E.Parameter(a) for a in (x, w, rng.standard_normal(cout).astype(dtype)))
    y = E.conv2d_valid(xt, wt, bt, groups=groups)
    E.backward(E.sum_all(E.mul(y, E.Tensor(g))))
    wants = (x_grad_by_forward(w, g, groups),) + wb_grads_left_to_right(x, w, g, groups)
    for got, want in zip((xt.grad, wt.grad, bt.grad), wants):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def depthwise_case(bsz, c, k, dh, dw, dtype, seed):
    """A depthwise kernel with -0.0 taps and an upstream gradient with
    +0.0 and -0.0 entries, so products of every sign of zero occur."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((c, 1, k, k)).astype(dtype)
    w[rng.random(w.shape) < 0.2] = -0.0
    g = rng.standard_normal((bsz, c, dh + 1, dw + 1)).astype(dtype)
    g[rng.random(g.shape) < 0.5] = 0.0
    g[rng.random(g.shape) < 0.1] = -0.0
    return w, g


def depthwise_x_grad(w, g):
    """x.grad of depthwise conv2d_valid against upstream gradient g."""
    c, _, k, _ = w.shape
    bsz, _, ho, wo = g.shape
    x = E.Parameter(np.ones((bsz, c, ho + k - 1, wo + k - 1), dtype=w.dtype))
    y = E.conv2d_valid(x, E.Tensor(w), E.Tensor(np.zeros(c, dtype=w.dtype)), groups=c)
    E.backward(E.sum_all(E.mul(y, E.Tensor(g))))
    return x.grad


def depthwise_x_grad_loop(w, g):
    """The same dx by its stated arithmetic: each element starts at +0.0
    and adds w_flip[t] * g_pad[its window shifted by t] for the taps t of
    the flipped kernel in ascending order, with each product and each add
    rounded once in the dtype; g_pad is g zero-padded by K-1."""
    c, _, k, _ = w.shape
    bsz, _, ho, wo = g.shape
    hp, wp = ho + k - 1, wo + k - 1
    w_flip = w[:, 0, ::-1, ::-1].reshape(c, k * k)
    g_pad = np.pad(g, ((0, 0), (0, 0), (k - 1, k - 1), (k - 1, k - 1)))
    dx = np.zeros((bsz, c, hp, wp), dtype=g.dtype)
    for t in range(k * k):
        a, b = divmod(t, k)
        dx = dx + w_flip[:, t, None, None] * g_pad[:, :, a:a + hp, b:b + wp]
    return dx


@FIXED
@given(st.integers(1, 3), st.integers(1, 4), odd_kernels, st.integers(0, 4), st.integers(0, 4),
       st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
def test_depthwise_x_grad_is_the_tap_loop_bits(bsz, c, k, dh, dw, dtype, seed):
    w, g = depthwise_case(bsz, c, k, dh, dw, dtype, seed)
    got, want = depthwise_x_grad(w, g), depthwise_x_grad_loop(w, g)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# (bsz, c, k, dh, dw, dtype, seed); the first is a BENCH block's 7x7
# depthwise conv on the 16x32 grid
DEPTHWISE_CORE_CASES = [(4, 8, 7, 15, 31, np.float32, 0), (2, 3, 5, 4, 6, np.float64, 1),
                        (3, 5, 3, 2, 9, np.float32, 2), (2, 4, 1, 3, 3, np.float32, 3)]

DEPTHWISE_PER_CORE = """
import hashlib
from test_properties import (DEPTHWISE_CORE_CASES, depthwise_case, depthwise_x_grad,
                             depthwise_x_grad_loop)
for case in DEPTHWISE_CORE_CASES:
    w, g = depthwise_case(*case)
    got = depthwise_x_grad(w, g).tobytes()
    print(got == depthwise_x_grad_loop(w, g).tobytes(), hashlib.sha256(got).hexdigest())
"""


def test_depthwise_x_grad_bits_hold_on_every_blas_kernel():
    runs = run_per_core(DEPTHWISE_PER_CORE)
    if not runs:
        pytest.skip("no OpenBLAS kernel of numpy's bundled library could be selected")
    lines = {core: out.splitlines() for core, out in runs.items()}
    assert all(line.startswith("True ") for out in lines.values() for line in out), lines
    assert len({tuple(out) for out in lines.values()}) == 1, lines


def conv_and_depthwise_digests():
    """The four conv goldens' digests (output, dx, dW, db) and, per
    depthwise oracle case, whether dx equals the tap loop plus its sha256."""
    lines = [" ".join((case, *conv_bits(*CONV_GOLDEN[case][0]))) for case in sorted(CONV_GOLDEN)]
    for case in DEPTHWISE_CORE_CASES:
        w, g = depthwise_case(*case)
        got = depthwise_x_grad(w, g).tobytes()
        lines.append(f"{got == depthwise_x_grad_loop(w, g).tobytes()} {hashlib.sha256(got).hexdigest()}")
    return lines


def test_conv_and_depthwise_x_grad_bits_hold_at_numpy_x86_v2():
    """The same bytes with numpy's ufuncs on their X86_V2 loops as at the
    default level: conv arithmetic outside BLAS is elementwise multiplies
    and adds, each rounded once whatever the vector width.  The
    checkpoint golden has its own X86_V2 test in test_golden."""
    out = run_at_x86_v2("from test_properties import conv_and_depthwise_digests\n"
                        "print(*conv_and_depthwise_digests(), sep='\\n')\n")
    if out is None:
        pytest.skip("numpy still dispatches above X86_V2 with those targets disabled")
    assert out.splitlines() == conv_and_depthwise_digests()


# (bsz, c, k, ho, wo): a single output row, a single output column, one
# sample, one channel, each K, the two BENCH depthwise convs (batch 4,
# 16x32, stage dims 8 and 16) and the paper's stage 1 at 36x72.  Depthwise
# dx runs over one flat (C, B*Hp*Wp) run per channel, so these are the
# shapes where a run's gap rows and columns are thinnest or absent.
DEPTHWISE_EDGE_CASES = [(1, 1, 1, 1, 1), (1, 1, 3, 1, 1), (1, 1, 7, 1, 1), (3, 2, 1, 4, 5),
                        (3, 4, 7, 1, 9), (3, 4, 7, 9, 1), (4, 3, 3, 1, 1), (1, 5, 3, 6, 7),
                        (3, 1, 7, 5, 6), (4, 8, 7, 16, 32), (4, 16, 7, 16, 32),
                        (1, 96, 7, 36, 72)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bsz, c, k, ho, wo", DEPTHWISE_EDGE_CASES)
def test_depthwise_x_grad_is_the_tap_loop_bits_on_edge_shapes(bsz, c, k, ho, wo, dtype):
    w, g = depthwise_case(bsz, c, k, ho - 1, wo - 1, dtype, seed=bsz * 1000 + c * 10 + k)
    got, want = depthwise_x_grad(w, g), depthwise_x_grad_loop(w, g)
    assert got.dtype == want.dtype and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c, k, ho, wo", [(8, 7, 16, 32), (4, 7, 1, 9), (4, 7, 9, 1),
                                          (3, 3, 1, 1), (2, 1, 4, 5)])
def test_depthwise_x_grad_runs_do_not_leak_across_samples_or_channels(c, k, ho, wo, dtype):
    w, g = depthwise_case(4, c, k, ho - 1, wo - 1, dtype, seed=c * 10 + k)
    batch = depthwise_x_grad(w, g)
    for n in range(4):
        assert batch[n].tobytes() == depthwise_x_grad(w, g[n:n + 1])[0].tobytes(), n
    for ch in range(c):
        alone = depthwise_x_grad(w[ch:ch + 1], g[:, ch:ch + 1])
        assert batch[:, ch].tobytes() == alone[:, 0].tobytes(), ch


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


# ---------------------------------------------------------------------------
# damaged files: every truncation and sampled single-bit flips

@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    """name -> (pristine bytes, scratch path, reader, the reader's error)."""
    folder = tmp_path_factory.mktemp("damaged")
    rng = np.random.default_rng(5)
    gf = GridFile(channels=("T", "Z2"), dates=[5, 6, 9],
                  values=rng.standard_normal((3, 2, 4, 8)).astype(np.float32))
    write_grid(gf, folder / "small.grid")
    cfg = ModelConfig(in_channels=2, out_channels=2, stage_dims=(4,), depths=(1,))
    save_checkpoint(build(cfg, seed=3), folder / "small.krna")
    return {
        "grid": ((folder / "small.grid").read_bytes(), folder / "bad.grid",
                 read_grid, DataError),
        "krna": ((folder / "small.krna").read_bytes(), folder / "bad.krna",
                 load_checkpoint, ModelError),
    }


@pytest.mark.parametrize("kind", ["grid", "krna"])
def test_every_truncation_is_rejected(small_files, kind):
    blob, path, read, error = small_files[kind]
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        # once the 4-byte magic is whole, the message names both sizes
        match = rf"truncated file: expected \d+ bytes, got {n}\b" if n >= 4 else None
        with pytest.raises(error, match=match):
            read(path)


@pytest.mark.parametrize("kind", ["grid", "krna"])
@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(data=st.data())
def test_single_bit_flip_loads_or_names_error(small_files, kind, data):
    blob, path, read, error = small_files[kind]
    bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
    flipped = bytearray(blob)
    flipped[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(flipped))
    try:
        read(path)
    except error:
        pass
