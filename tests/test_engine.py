"""Engine ops against brute-force forward oracles and central differences."""

import ast
import inspect
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from blas_helpers import run_per_core
from karina import engine as E
from karina import model as M
from karina import training as T
from karina.padding import PaddingMode, index_map


def numeric_grad(fn, arr, h=1e-6):
    """Central differences of a scalar-valued fn with respect to arr, in place."""
    out = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = out.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        fp = fn()
        flat[i] = keep - h
        fm = fn()
        flat[i] = keep
        gflat[i] = (fp - fm) / (2.0 * h)
    return out


def analytic_grads(loss_fn, tensors):
    E.zero_grads(tensors)
    E.backward(loss_fn())
    return [t.grad for t in tensors]


def assert_grad_matches(loss_fn, tensors, h=1e-5, tol=1e-4):
    # tol matches the verification bar: central differences carry
    # cancellation noise ~1e-8 absolute, so coordinates with tiny
    # gradients cannot do much better than ~1e-5 relative
    grads = analytic_grads(loss_fn, tensors)
    for t, g in zip(tensors, grads):
        num = numeric_grad(lambda: loss_fn().item(), t.data, h=h)
        denom = np.maximum(np.maximum(np.abs(g), np.abs(num)), 1e-8)
        rel = np.abs(g - num) / denom
        assert rel.max() < tol, f"grad mismatch, worst rel err {rel.max()}"


class TestTensorBasics:
    def test_int_input_becomes_float64(self):
        t = E.Tensor([1, 2, 3])
        assert t.data.dtype == np.float64

    def test_item_scalar(self):
        assert E.Tensor(np.array(2.5)).item() == 2.5

    def test_item_rejects_nonscalar(self):
        with pytest.raises(E.ShapeError):
            E.Tensor(np.zeros(3)).item()

    def test_parameter_requires_grad(self):
        assert E.Parameter(np.zeros((2, 2))).requires_grad

    def test_mixed_dtypes_rejected(self):
        a = E.Tensor(np.zeros(3, dtype=np.float32))
        b = E.Tensor(np.zeros(3, dtype=np.float64))
        with pytest.raises(E.ShapeError):
            E.add(a, b)


class TestElementwise:
    def setup_method(self):
        self.rng = np.random.default_rng(101)

    def test_add_mul_sub_values(self):
        a = self.rng.standard_normal((3, 4))
        b = self.rng.standard_normal((3, 4))
        assert np.array_equal(E.add(E.Tensor(a), E.Tensor(b)).data, a + b)
        assert np.array_equal(E.mul(E.Tensor(a), E.Tensor(b)).data, a * b)
        assert np.array_equal(E.sub(E.Tensor(a), E.Tensor(b)).data, a - b)

    def test_add_shape_mismatch_raises(self):
        with pytest.raises(E.ShapeError):
            E.add(E.Tensor(np.zeros((2, 3))), E.Tensor(np.zeros((3, 2))))

    def test_scale(self):
        a = self.rng.standard_normal(7)
        assert np.array_equal(E.scale(E.Tensor(a), -1.5).data, a * -1.5)

    def test_elementwise_grads(self):
        a = E.Parameter(self.rng.standard_normal((3, 4)))
        b = E.Parameter(self.rng.standard_normal((3, 4)))
        assert_grad_matches(lambda: E.sum_all(E.mul(E.add(a, b), E.sub(a, b))), [a, b])


class TestActivations:
    def setup_method(self):
        self.rng = np.random.default_rng(77)

    def test_gelu_matches_erf_form(self):
        x = self.rng.standard_normal(64) * 3
        got = E.gelu(E.Tensor(x)).data
        want = np.array([v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
        assert np.allclose(got, want, rtol=0, atol=1e-15)

    def test_relu_values(self):
        x = np.array([-2.0, -0.0, 0.0, 3.5])
        assert np.array_equal(E.relu(E.Tensor(x)).data, [0.0, 0.0, 0.0, 3.5])

    def test_sigmoid_matches_definition(self):
        x = self.rng.standard_normal(64) * 4
        got = E.sigmoid(E.Tensor(x)).data
        want = np.array([1.0 / (1.0 + math.exp(-v)) for v in x])
        assert np.allclose(got, want, rtol=1e-15, atol=0)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        x = np.array([-500.0, 500.0])
        s = E.sigmoid(E.Tensor(x)).data
        assert np.all(np.isfinite(s))
        assert s[0] == 0.0 or s[0] < 1e-200
        assert s[1] == 1.0

    def test_activation_grads(self):
        for op in (E.gelu, E.relu, E.sigmoid):
            x = E.Parameter(self.rng.standard_normal((4, 5)) + 0.3)
            assert_grad_matches(lambda op=op, x=x: E.sum_all(op(x)), [x])


class TestFloat32Gelu:
    """The float32 GELU's stated accuracy, and bytes that depend neither
    on recording nor on how an array splits into blocks."""

    def setup_method(self):
        self.x = np.linspace(-8.0, 8.0, 400_001).astype(np.float32)
        x = self.x.astype(np.float64)
        self.cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
        self.pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    def test_cdf_within_3e_7_of_erf(self):
        x = self.x
        p = np.empty_like(x)
        E._cdf32(x, p, np.empty_like(x), np.empty_like(x), np.empty_like(x))
        assert np.abs(p - self.cdf).max() <= 3e-7

    def test_slope_within_5e_7(self):
        x = E.Parameter(self.x.copy())
        E.backward(E.sum_all(E.gelu(x)))  # upstream 1, so x.grad is the slope
        x64 = self.x.astype(np.float64)
        assert np.abs(x.grad - (self.cdf + x64 * self.pdf)).max() <= 5e-7

    def test_output_bytes_same_recorded_and_under_no_grad(self):
        x = E.Parameter(np.random.default_rng(5).standard_normal((2, 8, 8, 16))
                        .astype(np.float32) * 3)
        recorded = E.gelu(x)
        assert recorded.requires_grad
        with E.no_grad():
            assert E.gelu(x).data.tobytes() == recorded.data.tobytes()

    def test_bytes_same_for_an_array_as_for_its_pieces(self):
        n = 2 * E._GELU_BLOCK + 12_345
        x = (np.random.default_rng(6).standard_normal(n) * 4).astype(np.float32)
        out, slope = E._gelu32(x, True)
        cuts = [0, 1, 1000, E._GELU_BLOCK + 7, n - 3, n]
        for lo, hi in zip(cuts, cuts[1:]):
            piece_out, piece_slope = E._gelu32(x[lo:hi].copy(), True)
            assert piece_out.tobytes() == out[lo:hi].tobytes()
            assert piece_slope.tobytes() == slope[lo:hi].tobytes()
        with E.no_grad():
            assert E.gelu(E.Tensor(x)).data.tobytes() == out.tobytes()

    def test_empty_input(self):
        x = E.Parameter(np.zeros((0, 4), dtype=np.float32))
        E.backward(E.sum_all(E.gelu(x)))
        assert x.grad.shape == (0, 4)
        with E.no_grad():
            assert E.gelu(E.Tensor(x.data)).data.shape == (0, 4)


class TestReductions:
    def setup_method(self):
        self.rng = np.random.default_rng(13)

    def test_sum_and_mean(self):
        x = self.rng.standard_normal((3, 5))
        assert E.sum_all(E.Tensor(x)).item() == pytest.approx(x.sum(), rel=1e-15)
        assert E.mean_all(E.Tensor(x)).item() == pytest.approx(x.mean(), rel=1e-15)

    def test_global_avg_pool_matches_fsum_oracle(self):
        x = self.rng.standard_normal((2, 3, 4, 6))
        got = E.global_avg_pool(E.Tensor(x)).data
        for b in range(2):
            for c in range(3):
                want = math.fsum(x[b, c].reshape(-1).tolist()) / 24.0
                assert got[b, c] == want

    def test_float32_global_avg_pool_is_exactly_roll_invariant(self):
        # 1.0 survives only where it is added after the two large values
        # cancel, so a column order that moves the cancellation shows
        x = np.zeros((1, 1, 3, 42), dtype=np.float32)
        x[0, 0, :, 0] = 2.0 ** 60, -2.0 ** 60, 1.0
        want = E.global_avg_pool(E.Tensor(x)).data.tobytes()
        for shift in range(42):
            got = E.global_avg_pool(E.Tensor(np.roll(x, shift, axis=-1))).data
            assert got.tobytes() == want, f"shift {shift}"

    def test_global_avg_pool_rank3(self):
        x = self.rng.standard_normal((3, 4, 6))
        got = E.global_avg_pool(E.Tensor(x)).data
        assert got.shape == (3,)
        assert np.allclose(got, x.mean(axis=(1, 2)), rtol=1e-14, atol=0)

    def test_reduction_grads(self):
        x = E.Parameter(self.rng.standard_normal((2, 3, 4, 5)))
        assert_grad_matches(lambda: E.mean_all(E.gelu(E.global_avg_pool(x))), [x])


class TestLayerNorm:
    def setup_method(self):
        self.rng = np.random.default_rng(31)

    def brute_force(self, x, gamma, beta, eps):
        out = np.empty_like(x)
        b_, c, h, w = x.shape
        for b in range(b_):
            for i in range(h):
                for j in range(w):
                    col = x[b, :, i, j]
                    mu = col.mean()
                    var = ((col - mu) ** 2).mean()
                    out[b, :, i, j] = (col - mu) / math.sqrt(var + eps) * gamma + beta
        return out

    def test_forward_matches_brute_force(self):
        x = self.rng.standard_normal((2, 5, 3, 4))
        gamma = self.rng.standard_normal(5)
        beta = self.rng.standard_normal(5)
        got = E.layer_norm_channels(E.Tensor(x), E.Tensor(gamma), E.Tensor(beta)).data
        want = self.brute_force(x, gamma, beta, 1e-6)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_bad_affine_shape_raises(self):
        x = E.Tensor(np.zeros((2, 5, 3, 4)))
        with pytest.raises(E.ShapeError):
            E.layer_norm_channels(x, E.Tensor(np.ones(4)), E.Tensor(np.zeros(5)))

    def test_grads(self):
        x = E.Parameter(self.rng.standard_normal((2, 4, 3, 3)))
        gm = E.Parameter(self.rng.standard_normal(4))
        bt = E.Parameter(self.rng.standard_normal(4))
        assert_grad_matches(
            lambda: E.mean_all(E.gelu(E.layer_norm_channels(x, gm, bt))), [x, gm, bt]
        )


class TestLinear:
    def setup_method(self):
        self.rng = np.random.default_rng(47)

    def test_forward_matches_loop(self):
        x = self.rng.standard_normal((6, 5))
        w = self.rng.standard_normal((3, 5))
        b = self.rng.standard_normal(3)
        got = E.linear(E.Tensor(x), E.Tensor(w), E.Tensor(b)).data
        want = np.empty((6, 3))
        for n in range(6):
            for o in range(3):
                want[n, o] = math.fsum((x[n] * w[o]).tolist()) + b[o]
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_feature_mismatch_raises(self):
        with pytest.raises(E.ShapeError):
            E.linear(E.Tensor(np.zeros((2, 4))), E.Tensor(np.zeros((3, 5))),
                     E.Tensor(np.zeros(3)))

    def test_grads(self):
        x = E.Parameter(self.rng.standard_normal((4, 5)))
        w = E.Parameter(self.rng.standard_normal((3, 5)))
        b = E.Parameter(self.rng.standard_normal(3))
        assert_grad_matches(lambda: E.sum_all(E.sigmoid(E.linear(x, w, b))), [x, w, b])


def conv_oracle(x, w, b, groups):
    """Direct quadruple-loop valid cross-correlation."""
    bsz, cin, hp, wp = x.shape
    cout, cin_g, k, _ = w.shape
    ho, wo = hp - k + 1, wp - k + 1
    out = np.zeros((bsz, cout, ho, wo))
    cpg_out = cout // groups
    for n in range(bsz):
        for co in range(cout):
            gi = co // cpg_out
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin_g):
                        patch = x[n, gi * cin_g + ci, i:i + k, j:j + k]
                        acc += float((patch * w[co, ci]).sum())
                    out[n, co, i, j] = acc + b[co]
    return out


class TestConv:
    def setup_method(self):
        self.rng = np.random.default_rng(59)

    @pytest.mark.parametrize("cin,cout,groups,k", [(3, 4, 1, 3), (4, 4, 4, 3), (4, 6, 2, 3), (3, 5, 1, 1)])
    def test_forward_matches_oracle(self, cin, cout, groups, k):
        x = self.rng.standard_normal((2, cin, 6, 7))
        w = self.rng.standard_normal((cout, cin // groups, k, k))
        b = self.rng.standard_normal(cout)
        got = E.conv2d_valid(E.Tensor(x), E.Tensor(w), E.Tensor(b), groups=groups).data
        want = conv_oracle(x, w, b, groups)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_rank3_input(self):
        # one layout: a (C, H, W) input is not a batch of one
        x = self.rng.standard_normal((3, 5, 6))
        w = self.rng.standard_normal((2, 3, 3, 3))
        with pytest.raises(E.ShapeError, match=r"\(B, Cin, Hp, Wp\)"):
            E.conv2d_valid(E.Tensor(x), E.Tensor(w), E.Tensor(np.zeros(2)))

    def test_kernel_exceeds_extent_raises(self):
        with pytest.raises(E.ShapeError):
            E.conv2d_valid(E.Tensor(np.zeros((1, 2, 2, 8))), E.Tensor(np.zeros((2, 2, 3, 3))),
                           E.Tensor(np.zeros(2)))

    def test_group_divisibility_raises(self):
        with pytest.raises(E.ShapeError):
            E.conv2d_valid(E.Tensor(np.zeros((1, 3, 8, 8))), E.Tensor(np.zeros((4, 1, 3, 3))),
                           E.Tensor(np.zeros(4)), groups=2)

    @pytest.mark.parametrize("groups", [1, 4])
    def test_grads(self, groups):
        cin = 4
        cout = 4
        x = E.Parameter(self.rng.standard_normal((2, cin, 5, 6)))
        w = E.Parameter(self.rng.standard_normal((cout, cin // groups, 3, 3)) * 0.4)
        b = E.Parameter(self.rng.standard_normal(cout) * 0.1)
        assert_grad_matches(
            lambda: E.mean_all(E.gelu(E.conv2d_valid(x, w, b, groups=groups))),
            [x, w, b],
        )


# (bsz, cin, cout, groups, k, hp, wp): dense 3x3, groups 2, depthwise 7x7
# and 1x1 on small grids, then a depthwise 7x7 on the forecast grid, where
# one sample's patch matrix (25 MB in float32) exceeds _PATCH_BYTES
BLOCK_CASES = [(3, 8, 12, 1, 3, 12, 20), (2, 8, 6, 2, 3, 10, 14), (2, 16, 16, 16, 7, 22, 38),
               (4, 16, 32, 1, 1, 16, 32), (1, 16, 16, 16, 7, 70, 134)]
BLOCK_IDS = ["dense3", "groups2", "depthwise7", "pointwise", "depthwise7_forecast"]
# every (sample, group) in a block of its own; the whole batch in one
BUDGETS = (1, 1 << 62)


def conv_case_bytes(case, dtype):
    """Forward, dx, dW and db bytes of one conv2d_valid and its backward."""
    bsz, cin, cout, groups, k, hp, wp = case
    rng = np.random.default_rng(17)
    x = E.Parameter(rng.standard_normal((bsz, cin, hp, wp)).astype(dtype))
    w = E.Parameter(rng.standard_normal((cout, cin // groups, k, k)).astype(dtype))
    b = E.Parameter(rng.standard_normal(cout).astype(dtype))
    y = E.conv2d_valid(x, w, b, groups=groups)
    g = rng.standard_normal(y.shape).astype(dtype)
    E.backward(E.sum_all(E.mul(y, E.Tensor(g))))
    return tuple(a.tobytes() for a in (y.data, x.grad, w.grad, b.grad))


def patch_blocks(case):
    """How many blocks _patches builds for the case's input, in float32."""
    bsz, cin, _, groups, k, hp, wp = case
    return sum(1 for _ in E._patches(np.zeros((bsz, cin, hp, wp), np.float32), k, groups))


BLOCKS_PER_CORE = """
from test_engine import BLOCK_CASES, BUDGETS, conv_case_bytes
from karina import engine as E
import numpy as np
default = E._PATCH_BYTES
for case in BLOCK_CASES[:4]:
    for dtype in (np.float32, np.float64):
        E._PATCH_BYTES = default
        want = conv_case_bytes(case, dtype)
        same = []
        for budget in BUDGETS:
            E._PATCH_BYTES = budget
            same.append(conv_case_bytes(case, dtype) == want)
        print(all(same))
"""


class TestConvBlocks:
    """The patch matrix is built one block at a time; the block size
    bounds memory and moves no bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", BLOCK_CASES, ids=BLOCK_IDS)
    def test_block_size_moves_no_bit(self, monkeypatch, case, dtype):
        want = conv_case_bytes(case, dtype)
        for budget in BUDGETS:
            monkeypatch.setattr(E, "_PATCH_BYTES", budget)
            assert conv_case_bytes(case, dtype) == want

    def test_budgets_split_as_stated(self, monkeypatch):
        # 1x1 patches are a view of the input: one block whatever the budget
        assert [patch_blocks(c) for c in BLOCK_CASES] == [1, 1, 2, 1, 16]
        monkeypatch.setattr(E, "_PATCH_BYTES", BUDGETS[0])
        assert [patch_blocks(c) for c in BLOCK_CASES] == [3, 4, 32, 1, 16]
        monkeypatch.setattr(E, "_PATCH_BYTES", BUDGETS[1])
        assert [patch_blocks(c) for c in BLOCK_CASES] == [1, 1, 1, 1, 1]

    def test_block_size_moves_no_bit_on_every_blas_kernel(self):
        runs = run_per_core(BLOCKS_PER_CORE)
        if not runs:
            pytest.skip("no OpenBLAS kernel of numpy's bundled library could be selected")
        for core, out in runs.items():
            assert out.split() == ["True"] * 8, core

    def test_recorded_forward_holds_only_its_output(self):
        rng = np.random.default_rng(3)
        x = E.Parameter(rng.standard_normal((2, 16, 22, 38)).astype(np.float32))
        w = E.Parameter(rng.standard_normal((16, 1, 7, 7)).astype(np.float32))
        b = E.Parameter(rng.standard_normal(16).astype(np.float32))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = E.conv2d_valid(x, w, b, groups=16)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert y.requires_grad
        # the graph keeps x, which the caller holds anyway; beyond the
        # output only the tensor and its closure (a few hundred bytes)
        assert held <= y.data.nbytes + 4096, held

    def test_inference_forward_peaks_within_the_budget(self):
        rng = np.random.default_rng(4)
        x = E.Tensor(rng.standard_normal((1, 16, 70, 134)).astype(np.float32))
        w = E.Tensor(rng.standard_normal((16, 1, 7, 7)).astype(np.float32))
        b = E.Tensor(rng.standard_normal(16).astype(np.float32))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with E.no_grad():
                y = E.conv2d_valid(x, w, b, groups=16)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < y.data.nbytes + 2 * E._PATCH_BYTES, peak

    def test_depthwise_x_grad_peaks_within_three_padded_inputs(self):
        """Depthwise dx at the paper's stage 1 (1x96x36x72) holds the
        spread g, the sums and the products, each the padded input's size,
        and returns the sums in the products' buffer: under 3.25 times the
        padded input, where ROADMAP's 2 GB paper-scale target allows 4."""
        rng = np.random.default_rng(5)
        x = E.Parameter(rng.standard_normal((1, 96, 42, 78)).astype(np.float32))
        w = E.Tensor(rng.standard_normal((96, 1, 7, 7)).astype(np.float32))
        b = E.Tensor(np.zeros(96, dtype=np.float32))
        y = E.conv2d_valid(x, w, b, groups=96)
        g = rng.standard_normal(y.shape).astype(np.float32)
        g.flags.writeable = False
        _, grad, accumulate = y._rules[0]  # x's rule; w and b take no gradient
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            accumulate(x, grad(g))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert x.grad.shape == x.data.shape
        assert peak < 3.25 * x.data.nbytes, peak / x.data.nbytes


class TestPad2d:
    def setup_method(self):
        self.rng = np.random.default_rng(71)

    def test_gather_and_zero_fill(self):
        x = self.rng.standard_normal((2, 2, 3, 4))
        table = np.array([[5, 0, -1], [11, 11, 2]], dtype=np.int64)
        got = E.pad2d(E.Tensor(x), table).data
        flat = x.reshape(2, 2, 12)
        want = np.zeros((2, 2, 2, 3))
        for r, idx in enumerate(table.reshape(-1)):
            if idx >= 0:
                want[:, :, r // 3, r % 3] = flat[:, :, idx]
        assert np.array_equal(got, want)

    def test_out_of_range_index_raises(self):
        with pytest.raises(E.ShapeError):
            E.pad2d(E.Tensor(np.zeros((1, 1, 2, 2))), np.array([[4]], dtype=np.int64))

    def test_scatter_grad_with_duplicates(self):
        # duplicated sources must receive summed gradient
        x = E.Parameter(self.rng.standard_normal((2, 3, 4)))
        table = np.array([[0, 0, 0], [7, -1, 3], [11, 11, 5]], dtype=np.int64)
        c = E.Tensor(self.rng.standard_normal((2, 3, 3)))
        assert_grad_matches(lambda: E.sum_all(E.mul(E.pad2d(x, table), c)), [x])

    @pytest.mark.parametrize("lead", [(1, 1), (2, 3), (4, 16)])
    @pytest.mark.parametrize("mode", list(PaddingMode))
    def test_output_and_grad_are_c_ordered(self, mode, lead):
        # a[:, idx] would hand back a pixel-major gather
        table = index_map(3, (8, 16), mode)
        assert (table < 0).any() == (mode is not PaddingMode.GEOCYCLIC)
        x = E.Parameter(self.rng.standard_normal(lead + (8, 16)).astype(np.float32))
        y = E.pad2d(x, table)
        assert y.data.flags.c_contiguous
        E.backward(E.sum_all(y))
        assert x.grad.flags.c_contiguous


class TestChannelAndSampleScale:
    def setup_method(self):
        self.rng = np.random.default_rng(83)

    def test_channel_scale_vector(self):
        x = self.rng.standard_normal((2, 3, 4, 5))
        s = self.rng.standard_normal(3)
        got = E.channel_scale(E.Tensor(x), E.Tensor(s)).data
        assert np.array_equal(got, x * s[None, :, None, None])

    def test_channel_scale_per_sample_gates(self):
        x = self.rng.standard_normal((2, 3, 4, 5))
        s = self.rng.standard_normal((2, 3))
        got = E.channel_scale(E.Tensor(x), E.Tensor(s)).data
        assert np.array_equal(got, x * s[:, :, None, None])

    def test_channel_scale_grads(self):
        x = E.Parameter(self.rng.standard_normal((2, 3, 4, 5)))
        s = E.Parameter(self.rng.standard_normal(3))
        assert_grad_matches(lambda: E.mean_all(E.gelu(E.channel_scale(x, s))), [x, s])

    def test_per_sample_gate_grads(self):
        x = E.Parameter(self.rng.standard_normal((2, 3, 4, 5)))
        s = E.Parameter(self.rng.standard_normal((2, 3)))
        assert_grad_matches(lambda: E.mean_all(E.gelu(E.channel_scale(x, s))), [x, s])

    def test_sample_scale_forward_and_grad(self):
        x = E.Parameter(self.rng.standard_normal((3, 2, 4, 4)))
        f = np.array([0.0, 1.0, 2.0])
        got = E.sample_scale(x, f).data
        assert np.array_equal(got, x.data * f[:, None, None, None])
        assert_grad_matches(lambda: E.sum_all(E.gelu(E.sample_scale(x, f))), [x])


class TestBackwardSemantics:
    def setup_method(self):
        self.rng = np.random.default_rng(97)

    def test_backward_twice_raises(self):
        x = E.Parameter(self.rng.standard_normal(4))
        loss = E.sum_all(E.mul(x, x))
        E.backward(loss)
        with pytest.raises(E.BackwardError):
            E.backward(loss)

    def test_nonscalar_loss_raises(self):
        x = E.Parameter(self.rng.standard_normal(4))
        with pytest.raises(E.BackwardError):
            E.backward(E.mul(x, x))

    def test_unreachable_parameter_keeps_none_grad(self):
        x = E.Parameter(self.rng.standard_normal(4))
        y = E.Parameter(self.rng.standard_normal(4))
        E.zero_grads([x, y])
        E.backward(E.sum_all(E.mul(x, x)))
        assert y.grad is None
        assert x.grad is not None

    def test_no_grad_records_nothing(self):
        x = E.Parameter(self.rng.standard_normal(4))
        with E.no_grad():
            loss = E.sum_all(E.mul(x, x))
        assert not loss.requires_grad
        with pytest.raises(E.BackwardError):
            E.backward(loss)

    def test_new_loss_on_a_consumed_intermediate_raises(self):
        x = E.Parameter(self.rng.standard_normal(4))
        h = E.mul(x, x)
        E.backward(E.sum_all(h))
        with pytest.raises(E.BackwardError):
            E.backward(E.sum_all(h))

    def test_leaf_loss_raises(self):
        # a leaf has no graph to walk, even one that requires grad
        with pytest.raises(E.BackwardError):
            E.backward(E.Parameter(np.array(2.0)))

    def test_intermediates_die_while_the_loss_lives(self):
        x = E.Parameter(self.rng.standard_normal((2, 3, 6, 8)))
        s = E.scale(x, 2.0)
        h = E.gelu(s)
        ref = weakref.ref(h.data)
        loss = E.mean_all(E.mul(h, h))
        del h
        E.backward(loss)
        # a tensor holds its output array, so a dead array means a dead tensor
        assert ref() is None
        assert s.grad is None
        assert loss.grad is not None and x.grad is not None

    @pytest.mark.parametrize("op,same", [(E.add, False), (E.add, True), (E.sub, True)],
                             ids=["add-a-b", "add-a-a", "sub-a-a"])
    def test_first_grads_share_no_memory(self, op, same):
        # the upstream g reaching op is mul's fresh product, which y's
        # grad adopts; add and sub hand that g on, and neither parent may
        # keep it or share a .grad with the other
        a = E.Parameter(self.rng.standard_normal((3, 4)))
        b = a if same else E.Parameter(self.rng.standard_normal((3, 4)))
        w = E.Parameter(self.rng.standard_normal((3, 4)))
        y = op(a, b)
        y_data = y.data.copy()
        E.backward(E.sum_all(E.mul(y, w)))
        if same:
            want = w.data + w.data if op is E.add else w.data + -w.data
            assert np.array_equal(a.grad, want)
            grads = [a.grad, w.grad]
        else:
            assert np.array_equal(a.grad, w.data) and np.array_equal(b.grad, w.data)
            grads = [a.grad, b.grad, w.grad]
        assert np.array_equal(w.grad, y_data)
        for g, h in itertools.combinations(grads, 2):
            assert not np.shares_memory(g, h)
        assert not any(np.shares_memory(g, t) for g in grads for t in (a.data, b.data, w.data))

    def test_bench_step_backward_frees_its_graph(self):
        # the BENCH step: batch 4 on the 16x32 grid, four channels, stage
        # dims 8,16.  What stays held after the backward is the parameter
        # grads and the loss, and at no point does the walk hold the graph
        # plus a gradient for each of its nodes (2.1x the graph when it did)
        model = M.build(M.ModelConfig(in_channels=4, out_channels=4, stage_dims=(8, 16),
                                      depths=(1, 1)), seed=0)
        x = self.rng.standard_normal((4, 4, 16, 32)).astype(np.float32)
        y = E.Tensor(self.rng.standard_normal((4, 4, 16, 32)).astype(np.float32))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = T.l2_loss(model.forward(x), y)
            graph = tracemalloc.get_traced_memory()[0] - before
            E.backward(loss)
            held, peak = (v - before for v in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert held < 0.1 * graph, (held, graph)
        assert peak < 1.75 * graph, (peak, graph)

    def test_grad_accumulates_across_graphs(self):
        x = E.Parameter(self.rng.standard_normal(4))
        E.zero_grads([x])
        E.backward(E.sum_all(E.mul(x, x)))
        g1 = x.grad.copy()
        E.backward(E.sum_all(E.mul(x, x)))
        assert np.allclose(x.grad, 2 * g1, rtol=0, atol=0)

    def test_gradient_linearity_exact(self):
        # backward of l1 + l2 from two disjoint single-sample forwards
        # equals the two separate backwards summed, bit for bit: each
        # branch lands exactly one addend per parameter and float
        # addition commutes
        w = E.Parameter(self.rng.standard_normal((3, 3, 3, 3)) * 0.3)
        b = E.Tensor(np.zeros(3))
        xa = self.rng.standard_normal((1, 3, 6, 6))
        xb = self.rng.standard_normal((1, 3, 6, 6))

        def branch(arr):
            return E.mean_all(E.gelu(E.conv2d_valid(E.Tensor(arr), w, b)))

        E.zero_grads([w])
        E.backward(E.add(branch(xa), branch(xb)))
        combined = w.grad.copy()

        E.zero_grads([w])
        E.backward(branch(xa))
        ga = w.grad.copy()
        E.zero_grads([w])
        E.backward(branch(xb))
        gb = w.grad.copy()
        assert np.array_equal(combined, ga + gb)

    def test_gradient_linearity_batched_close(self):
        # multi-sample branches reorder the per-sample addition chain, so
        # equality is to rounding rather than bitwise
        w = E.Parameter(self.rng.standard_normal((3, 3, 3, 3)) * 0.3)
        b = E.Tensor(np.zeros(3))
        xa = self.rng.standard_normal((4, 3, 6, 6))
        xb = self.rng.standard_normal((4, 3, 6, 6))

        def branch(arr):
            return E.mean_all(E.gelu(E.conv2d_valid(E.Tensor(arr), w, b)))

        E.zero_grads([w])
        E.backward(E.add(branch(xa), branch(xb)))
        combined = w.grad.copy()
        E.zero_grads([w])
        E.backward(branch(xa))
        ga = w.grad.copy()
        E.zero_grads([w])
        E.backward(branch(xb))
        gb = w.grad.copy()
        assert np.allclose(combined, ga + gb, rtol=1e-13, atol=1e-15)

    def test_micro_batch_accumulation_bit_identical(self):
        w = E.Parameter(self.rng.standard_normal((4, 3, 3, 3)) * 0.3)
        b = E.Parameter(self.rng.standard_normal(4) * 0.1)
        gm = E.Parameter(np.ones(4))
        bt = E.Parameter(np.zeros(4))
        params = [w, b, gm, bt]
        x = self.rng.standard_normal((6, 3, 6, 8))

        def loss_of(arr):
            t = E.conv2d_valid(E.Tensor(arr), w, b)
            t = E.layer_norm_channels(t, gm, bt)
            gates = E.sigmoid(E.global_avg_pool(t))
            return E.sum_all(E.gelu(E.channel_scale(t, gates)))

        E.zero_grads(params)
        E.backward(loss_of(x))
        full = [p.grad.copy() for p in params]
        for split in ([3, 3], [1] * 6, [2, 1, 3]):
            E.zero_grads(params)
            offset = 0
            for n in split:
                E.backward(loss_of(x[offset:offset + n]))
                offset += n
            for i, (ref, p) in enumerate(zip(full, params)):
                assert np.array_equal(ref, p.grad), f"split {split} diverged on params[{i}]"


def recording_cases():
    """(op, fn, parent arrays) per recording op; channel_scale and
    conv2d_valid get a second case for their other backward path."""
    r = np.random.default_rng(41)
    x, y, c3 = r.standard_normal((2, 3, 4, 5)), r.standard_normal((2, 3, 4, 5)), r.standard_normal(3)
    table = np.pad(np.arange(20).reshape(4, 5), 1, constant_values=-1)
    cases = [
        ("add", E.add, [x, y]),
        ("sub", E.sub, [x, y]),
        ("mul", E.mul, [x, y]),
        ("scale", lambda a: E.scale(a, 0.5), [x]),
        ("relu", E.relu, [x]),
        ("gelu", E.gelu, [x]),
        ("sigmoid", E.sigmoid, [x]),
        ("sum_all", E.sum_all, [x]),
        ("mean_all", E.mean_all, [x]),
        ("global_avg_pool", E.global_avg_pool, [x]),
        ("layer_norm_channels", E.layer_norm_channels, [x, c3, r.standard_normal(3)]),
        ("linear", E.linear, [r.standard_normal((2, 5)), r.standard_normal((4, 5)),
                              r.standard_normal(4)]),
        ("channel_scale", E.channel_scale, [x, c3]),
        ("channel_scale", E.channel_scale, [x, r.standard_normal((2, 3))]),
        ("sample_scale", lambda a: E.sample_scale(a, [0.5, 2.0]), [x]),
        ("pad2d", lambda a: E.pad2d(a, table), [x]),
        ("conv2d_valid", E.conv2d_valid, [x, r.standard_normal((2, 3, 3, 3)),
                                          r.standard_normal(2)]),
        ("conv2d_valid", lambda a, w, b: E.conv2d_valid(a, w, b, groups=3),
         [x, r.standard_normal((3, 1, 3, 3)), r.standard_normal(3)]),
    ]
    return [pytest.param(*case, id=f"{case[0]}-{k}") for k, case in enumerate(cases)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op,fn,arrays", recording_cases())
class TestRecording:
    """Every op records through one rule: a parent requires grad when it
    is a Parameter or a recorded output, and only such parents get one."""

    def test_only_parameters_get_grads(self, op, fn, arrays, dtype):
        for mask in itertools.product((False, True), repeat=len(arrays)):
            if not any(mask):
                continue
            parents = [E.Parameter(a.astype(dtype)) if m else E.Tensor(a.astype(dtype))
                       for i, (a, m) in enumerate(zip(arrays, mask))]
            out = fn(*parents)
            assert out.requires_grad and out._op == op
            E.backward(out if out.data.size == 1 else E.sum_all(out))
            for p, a, m in zip(parents, arrays, mask):
                if not m:
                    assert p.grad is None, (mask, p)
                    continue
                assert p.grad.dtype == dtype and p.grad.shape == a.shape, (mask, p)
                assert p.grad.flags.c_contiguous, (mask, p, p.grad.strides)

    def test_plain_parents_record_nothing(self, op, fn, arrays, dtype):
        out = fn(*[E.Tensor(a.astype(dtype)) for a in arrays])
        assert out._op == op and not out.requires_grad
        assert out._rules is None


def test_recording_cases_cover_every_op():
    # every engine function that records through _make has a case above
    tree = ast.parse(inspect.getsource(E))
    recorders = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)
                 and any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_make"
                         for n in ast.walk(f))}
    assert len(recorders) == 16
    assert {case.values[0] for case in recording_cases()} == recorders


class TestNonFinite:
    def test_overflow_names_the_op(self):
        with pytest.raises(E.NonFiniteError, match="scale"):
            with np.errstate(over="ignore"):
                E.scale(E.Tensor(np.array([1e308])), 1e308)

    def test_nan_propagation_caught_at_mul(self):
        a = E.Tensor(np.array([np.inf]))
        b = E.Tensor(np.array([0.0]))
        with pytest.raises(E.NonFiniteError, match="mul"):
            with np.errstate(invalid="ignore"):
                E.mul(a, b)


class TestGradCheck:
    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def test_small_net_passes(self):
        w = E.Parameter(self.rng.standard_normal((3, 2, 3, 3)) * 0.4)
        b = E.Parameter(self.rng.standard_normal(3) * 0.1)
        x = E.Tensor(self.rng.standard_normal((2, 2, 5, 6)))

        def fn():
            return E.mean_all(E.gelu(E.conv2d_valid(x, w, b)))

        assert E.grad_check(fn, [w, b], h=1e-5) < 1e-6

    def test_detects_wrong_gradient(self):
        # one factor detached from the graph: analytic backward sees
        # d(p*c)/dp = c, numeric differences see d(p^2)/dp = 2p
        p = E.Parameter(np.array([1.5]))

        def fn():
            frozen = E.Tensor(p.data.copy())
            return E.sum_all(E.mul(p, frozen))

        assert E.grad_check(fn, [p], h=1e-5) > 1e-2

    def test_rejects_float32(self):
        p = E.Parameter(np.zeros(2, dtype=np.float32))
        with pytest.raises(E.EngineError, match="float64"):
            E.grad_check(lambda: E.sum_all(p), [p])

    def test_rejects_bad_step(self):
        p = E.Parameter(np.zeros(2))
        with pytest.raises(E.EngineError, match="outside"):
            E.grad_check(lambda: E.sum_all(p), [p], h=1e-2)

    @staticmethod
    def drop_path_check(rate):
        # one float64 stage of two blocks; a recorded forward draws drop
        # factors at rate > 0, the unrecorded differences draw none
        cfg = M.ModelConfig(in_channels=2, out_channels=2, stage_dims=(4,), depths=(2,),
                            reduction_ratio=2, layer_scale_init=0.3, drop_path_rate=rate)
        m = M.build(cfg, seed=5, dtype=np.float64)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 2, 4, 8))
        return E.grad_check(lambda: E.mean_all(m.forward(x)), m.parameters(), h=1e-5,
                            rng=rng, sample=2)

    def test_refuses_fn_that_depends_on_recording(self):
        with pytest.raises(E.EngineError, match="must not depend on recording"):
            self.drop_path_check(0.5)

    def test_model_without_drop_path_passes(self):
        assert self.drop_path_check(0.0) < 1e-4

    def test_sampling_probes_subset(self):
        p = E.Parameter(self.rng.standard_normal(50))
        err = E.grad_check(
            lambda: E.sum_all(E.gelu(p)), [p], h=1e-5, rng=self.rng, sample=5
        )
        assert err < 1e-7
