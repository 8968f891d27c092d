"""Layer forward passes against numpy oracles; exact roll equivariance."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from karina import engine as E
from karina import layers as L
from karina import model as M
from karina.padding import PaddingMode


def oracle_pad_geocyclic(field, p):
    h, w = field.shape
    out = np.zeros((h + 2 * p, w + 2 * p), dtype=field.dtype)
    for i in range(h + 2 * p):
        for j in range(w + 2 * p):
            r, c = i - p, (j - p) % w
            if r < 0:
                r, c = -r - 1, (c + w // 2) % w
            elif r >= h:
                r, c = 2 * h - r - 1, (c + w // 2) % w
            out[i, j] = field[r, c]
    return out


def oracle_same_conv(x, weight, bias, groups):
    """Geocyclic pad + direct loop correlation, one output cell at a time."""
    bsz, cin, h, w = x.shape
    cout, cin_g, k, _ = weight.shape
    p = (k - 1) // 2
    out = np.zeros((bsz, cout, h, w))
    cpg_out = cout // groups
    for n in range(bsz):
        padded = np.stack([oracle_pad_geocyclic(x[n, c], p) for c in range(cin)]) \
            if p else x[n]
        for co in range(cout):
            gi = co // cpg_out
            for i in range(h):
                for j in range(w):
                    acc = bias[co]
                    for ci in range(cin_g):
                        patch = padded[gi * cin_g + ci, i:i + k, j:j + k]
                        acc += float((patch * weight[co, ci]).sum())
                    out[n, co, i, j] = acc
    return out


def oracle_se(x, w1, b1, w2, b2):
    bsz, c = x.shape[:2]
    out = np.empty_like(x)
    for n in range(bsz):
        pooled = np.array([math.fsum(x[n, ch].reshape(-1).tolist()) for ch in range(c)])
        pooled /= x.shape[2] * x.shape[3]
        hidden = np.maximum(w1 @ pooled + b1, 0.0)
        gates = 1.0 / (1.0 + np.exp(-(w2 @ hidden + b2)))
        out[n] = x[n] * gates[:, None, None]
    return out


class TestTruncNormal:
    def test_bounded_and_scaled(self):
        rng = np.random.default_rng(5)
        z = L.trunc_normal(rng, (20000,), std=0.02)
        assert np.abs(z).max() <= 0.04
        assert 0.015 < z.std() < 0.02

    def test_deterministic_given_seed(self):
        a = L.trunc_normal(np.random.default_rng(9), (64, 64))
        b = L.trunc_normal(np.random.default_rng(9), (64, 64))
        assert np.array_equal(a, b)


class TestConv2d:
    def setup_method(self):
        self.rng = np.random.default_rng(307)

    @pytest.mark.parametrize("groups", [1, 3])
    def test_same_size_output_matches_oracle(self, groups):
        conv = L.Conv2d(3, 6, 3, groups=groups, rng=self.rng, dtype=np.float64)
        conv.bias.data[:] = self.rng.standard_normal(6) * 0.1
        x = self.rng.standard_normal((2, 3, 4, 8))
        got = conv(E.Tensor(x)).data
        want = oracle_same_conv(x, conv.weight.data, conv.bias.data, groups)
        assert got.shape == (2, 6, 4, 8)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_pointwise_skips_padding(self):
        conv = L.Conv2d(3, 5, 1, rng=self.rng, dtype=np.float64)
        x = self.rng.standard_normal((2, 3, 4, 8))
        got = conv(E.Tensor(x)).data
        want = np.einsum("oi,bihw->bohw", conv.weight.data[:, :, 0, 0], x)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_even_kernel_rejected(self):
        with pytest.raises(L.LayerError):
            L.Conv2d(3, 3, 4)

    def test_group_mismatch_rejected(self):
        with pytest.raises(L.LayerError):
            L.Conv2d(3, 4, 3, groups=2)

    def test_bias_starts_at_zero_weight_is_truncated(self):
        conv = L.Conv2d(8, 8, 7, rng=self.rng)
        assert np.all(conv.bias.data == 0)
        assert np.abs(conv.weight.data).max() <= 0.04


class TestSEBlock:
    def setup_method(self):
        self.rng = np.random.default_rng(311)

    def test_forward_matches_oracle(self):
        se = L.SEBlock(8, reduction=4, rng=self.rng, dtype=np.float64)
        se.fc1_bias.data[:] = self.rng.standard_normal(2) * 0.3
        se.fc2_bias.data[:] = self.rng.standard_normal(8) * 0.3
        x = self.rng.standard_normal((2, 8, 5, 6))
        got = se(E.Tensor(x)).data
        want = oracle_se(x, se.fc1_weight.data, se.fc1_bias.data,
                         se.fc2_weight.data, se.fc2_bias.data)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_reduction_must_divide(self):
        with pytest.raises(L.LayerError):
            L.SEBlock(6, reduction=4)

    def test_gates_bounded(self):
        se = L.SEBlock(4, reduction=2, rng=self.rng, dtype=np.float64)
        x = self.rng.standard_normal((3, 4, 6, 6)) * 50
        y = se(E.Tensor(x)).data
        # sigmoid gates can only shrink magnitudes
        assert np.all(np.abs(y) <= np.abs(x) + 1e-12)

    def test_grads(self):
        se = L.SEBlock(4, reduction=2, rng=self.rng, dtype=np.float64)
        x = E.Tensor(self.rng.standard_normal((2, 4, 4, 5)))
        params = se.parameters()

        def fn():
            return E.mean_all(E.gelu(se(x)))

        assert E.grad_check(fn, params, h=1e-5) < 1e-4


def drop_model(rate, depth=2):
    """One float64 stage of `depth` blocks over 2 channels on a 4x8 grid."""
    cfg = M.ModelConfig(in_channels=2, out_channels=2, stage_dims=(4,),
                        depths=(depth,), reduction_ratio=2, drop_path_rate=rate)
    return M.build(cfg, seed=5, dtype=np.float64)


def spy_drop_path(monkeypatch):
    """Record (x, residual, factors, output) arrays of every drop_path call."""
    calls = []
    real = L.drop_path

    def spy(x, residual, factors=None):
        out = real(x, residual, factors)
        calls.append((x.data, residual.data, factors, out.data))
        return out

    monkeypatch.setattr(L, "drop_path", spy)
    return calls


class TestDropPath:
    """Stochastic depth as the model runs it: KarinaModel.forward draws
    each block's (B,) factors and drop_path scales the residual by them."""

    def setup_method(self):
        self.rng = np.random.default_rng(313)

    def test_eval_is_plain_residual_add(self, monkeypatch):
        calls = spy_drop_path(monkeypatch)
        with E.no_grad():
            drop_model(0.5)(self.rng.standard_normal((3, 2, 4, 8)))
        assert len(calls) == 2
        for x, r, factors, out in calls:
            assert factors is None
            assert np.array_equal(out, x + r)

    def test_rate_zero_never_drops(self, monkeypatch):
        calls = spy_drop_path(monkeypatch)
        m = drop_model(0.0)
        before = m._droppath_rng.bit_generator.state
        m(self.rng.standard_normal((3, 2, 4, 8)))
        assert m._droppath_rng.bit_generator.state == before
        assert len(calls) == 2
        for x, r, factors, out in calls:
            assert factors is None
            assert np.array_equal(out, x + r)

    def test_training_drops_whole_samples_with_compensation(self, monkeypatch):
        rate = 0.4
        calls = spy_drop_path(monkeypatch)
        drop_model(rate)(self.rng.standard_normal((400, 2, 4, 8)))
        assert len(calls) == 2
        for x, r, factors, out in calls:
            kept = factors != 0
            # surviving samples are scaled by exactly 1/(1-rate)
            assert np.all(factors[kept] == 1.0 / (1.0 - rate))
            # whole-sample decision: a dropped sample passes its input through
            assert np.array_equal(out[~kept], x[~kept])
            assert np.array_equal(out[kept], x[kept] + r[kept] * factors[kept, None, None, None])
            assert 0.45 < kept.mean() < 0.75
        # each block gets its own row of the draw
        assert not np.array_equal(calls[0][2], calls[1][2])

    def test_expectation_preserved(self, monkeypatch):
        calls = spy_drop_path(monkeypatch)
        m = drop_model(0.3, depth=4)
        x = np.zeros((50, 2, 4, 8))
        for _ in range(50):
            m(x)
        factors = np.concatenate([f for _, _, f, _ in calls])
        assert factors.size == 50 * 4 * 50
        assert abs(factors.mean() - 1.0) < 0.02


def numpy_block_forward(block, x):
    """Full residual block recomputed with plain numpy, float64."""
    w = block.dwconv.weight.data
    k = block.dwconv.kernel
    p = (k - 1) // 2
    bsz, c, h, wd = x.shape
    t = np.empty_like(x)
    for n in range(bsz):
        for ch in range(c):
            padded = oracle_pad_geocyclic(x[n, ch], p)
            for i in range(h):
                for j in range(wd):
                    t[n, ch, i, j] = float(
                        (padded[i:i + k, j:j + k] * w[ch, 0]).sum()
                    ) + block.dwconv.bias.data[ch]
    if block.se is not None:
        t = oracle_se(t, block.se.fc1_weight.data, block.se.fc1_bias.data,
                      block.se.fc2_weight.data, block.se.fc2_bias.data)
    mu = t.mean(axis=1, keepdims=True)
    var = ((t - mu) ** 2).mean(axis=1, keepdims=True)
    t = (t - mu) / np.sqrt(var + 1e-6)
    t = t * block.norm.gamma.data[None, :, None, None] \
        + block.norm.beta.data[None, :, None, None]
    t = np.einsum("oi,bihw->bohw", block.pwconv1.weight.data[:, :, 0, 0], t) \
        + block.pwconv1.bias.data[None, :, None, None]
    t = t * 0.5 * (1.0 + np.vectorize(math.erf)(t / math.sqrt(2.0)))
    t = np.einsum("oi,bihw->bohw", block.pwconv2.weight.data[:, :, 0, 0], t) \
        + block.pwconv2.bias.data[None, :, None, None]
    t = t * block.gamma.data[None, :, None, None]
    return x + t


class TestConvNextBlock:
    def setup_method(self):
        self.rng = np.random.default_rng(331)

    def test_forward_matches_numpy_recomputation(self):
        block = L.ConvNextBlock(4, kernel=3, reduction=2, layer_scale_init=0.5,
                                rng=self.rng, dtype=np.float64)
        block.norm.beta.data[:] = self.rng.standard_normal(4) * 0.2
        x = self.rng.standard_normal((2, 4, 4, 6))
        got = block(E.Tensor(x)).data
        want = numpy_block_forward(block, x)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_tiny_layer_scale_keeps_block_near_identity(self):
        block = L.ConvNextBlock(4, kernel=3, reduction=2, rng=self.rng,
                                dtype=np.float64)
        x = self.rng.standard_normal((1, 4, 5, 8))
        y = block(E.Tensor(x)).data
        assert np.abs(y - x).max() < 1e-3

    def test_parameter_paths(self):
        block = L.ConvNextBlock(4, kernel=3, reduction=2, rng=self.rng)
        names = [n for n, _ in block.named_parameters("blocks.0.")]
        assert "blocks.0.dwconv.weight" in names
        assert "blocks.0.se.fc1_weight" in names
        assert "blocks.0.norm.gamma" in names
        assert "blocks.0.pwconv1.weight" in names
        assert "blocks.0.gamma" in names
        assert len(names) == len(set(names))

    def test_se_disabled_drops_parameters(self):
        on = L.ConvNextBlock(4, kernel=3, reduction=2, rng=self.rng)
        off = L.ConvNextBlock(4, kernel=3, se_enabled=False, rng=self.rng)
        names_on = {n for n, _ in on.named_parameters()}
        names_off = {n for n, _ in off.named_parameters()}
        assert names_off < names_on
        assert all(not n.startswith("se.") for n in names_off)

    def test_grads_through_whole_block(self):
        block = L.ConvNextBlock(4, kernel=3, reduction=2, layer_scale_init=0.3,
                                rng=self.rng, dtype=np.float64)
        # probe at generic parameter scale: the default tiny init leaves
        # some paths with gradients near the difference-noise floor
        for p in block.parameters():
            p.data[:] = self.rng.standard_normal(p.data.shape) * 0.4
        x = E.Tensor(self.rng.standard_normal((2, 4, 4, 6)))

        def fn():
            return E.mean_all(E.gelu(block(E.Tensor(x.data))))

        assert E.grad_check(fn, block.parameters(), h=1e-5) < 1e-4


    def test_rerun_with_the_same_factors_is_bit_identical(self):
        # recomputing a block in the backward relies on this: the output
        # depends only on the input, the parameters and the factors
        block = L.ConvNextBlock(4, kernel=3, reduction=2, layer_scale_init=0.5,
                                rng=self.rng)
        x = self.rng.standard_normal((3, 4, 4, 6)).astype(np.float32)
        factors = np.array([0.0, 1.0 / 0.9, 1.0 / 0.9], dtype=np.float32)
        first = block(E.Tensor(x), factors).data.copy()
        again = block(E.Tensor(x.copy()), factors.copy()).data
        assert first.tobytes() == again.tobytes()
        assert np.array_equal(first[0], x[0])


class TestDepthScale:
    def test_normalize_then_widen(self):
        rng = np.random.default_rng(337)
        ds = L.DepthScale(3, 6, rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, 3, 4, 6))
        got = ds(E.Tensor(x)).data
        mu = x.mean(axis=1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
        normed = (x - mu) / np.sqrt(var + 1e-6)
        want = oracle_same_conv(normed, ds.conv.weight.data, ds.conv.bias.data, 1)
        assert got.shape == (2, 6, 4, 6)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10)


class TestExactRollEquivariance:
    """The property the boundary treatment exists for: a pure longitude
    roll of the input must come out as exactly the same roll of the
    output, bit for bit, through every layer and their composition."""

    def setup_method(self):
        self.rng = np.random.default_rng(401)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kernel,groups", [(3, 1), (3, 4), (7, 4), (1, 1)])
    def test_conv_commutes_with_every_roll(self, dtype, kernel, groups):
        conv = L.Conv2d(4, 4, kernel, groups=groups, rng=self.rng, dtype=dtype)
        conv.bias.data[:] = (self.rng.standard_normal(4) * 0.1).astype(dtype)
        x = self.rng.standard_normal((2, 4, 5, 8)).astype(dtype)
        base = conv(E.Tensor(x)).data
        for s in range(8):
            rolled = conv(E.Tensor(np.roll(x, s, axis=-1))).data
            assert np.array_equal(rolled, np.roll(base, s, axis=-1)), f"shift {s}"

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_se_commutes_with_every_roll(self, dtype):
        se = L.SEBlock(4, reduction=2, rng=self.rng, dtype=dtype)
        x = self.rng.standard_normal((2, 4, 5, 8)).astype(dtype)
        base = se(E.Tensor(x)).data
        for s in range(8):
            rolled = se(E.Tensor(np.roll(x, s, axis=-1))).data
            assert np.array_equal(rolled, np.roll(base, s, axis=-1)), f"shift {s}"

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_block_commutes_with_every_roll(self, dtype):
        block = L.ConvNextBlock(4, kernel=3, reduction=2, layer_scale_init=0.4,
                                rng=self.rng, dtype=dtype)
        x = self.rng.standard_normal((1, 4, 6, 8)).astype(dtype)
        base = block(E.Tensor(x)).data
        for s in range(8):
            rolled = block(E.Tensor(np.roll(x, s, axis=-1))).data
            assert np.array_equal(rolled, np.roll(base, s, axis=-1)), f"shift {s}"

    def test_zero_padding_breaks_it(self):
        conv = L.Conv2d(2, 2, 3, padding_mode=PaddingMode.ZERO,
                        rng=self.rng, dtype=np.float64)
        x = self.rng.standard_normal((1, 2, 5, 8))
        base = conv(E.Tensor(x)).data
        broken = sum(
            int(not np.array_equal(conv(E.Tensor(np.roll(x, s, axis=-1))).data,
                                   np.roll(base, s, axis=-1)))
            for s in range(1, 8)
        )
        assert broken > 0


SRC = Path(L.__file__).parent
GENERATOR_METHODS = frozenset(n for n in dir(np.random.Generator) if not n.startswith("_"))


def forward_draws(source):
    """Line numbers where a function of a layers module, other than the
    initialisers __init__ and trunc_normal, takes an rng or calls a
    numpy Generator method."""
    hits = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef) or fn.name in ("__init__", "trunc_normal"):
            continue
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        if any(a.arg == "rng" for a in args):
            hits.append(fn.lineno)
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in GENERATOR_METHODS):
                hits.append(node.lineno)
    return sorted(set(hits))


def droppath_rng_reads(source):
    """Line numbers that name _droppath_rng outside KarinaModel.__init__
    and KarinaModel.forward."""
    tree = ast.parse(source)
    allowed = set()
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "KarinaModel":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name in ("__init__", "forward"):
                    allowed |= {id(node) for node in ast.walk(fn)}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if id(node) not in allowed
        and (isinstance(node, ast.Attribute) and node.attr == "_droppath_rng"
             or isinstance(node, ast.Constant) and node.value == "_droppath_rng")
    )


def test_draw_guards_see_rngs_generator_calls_and_stray_reads():
    layers_src = ("class A:\n"
                  "    def __init__(self, rng):\n        rng.random(3)\n"
                  "    def __call__(self, x, rng=None):\n        return x\n"
                  "    def __call__(self, x):\n        return self.g.standard_normal(2)\n"
                  "def drop(x, *, rng):\n    return x\n"
                  "def trunc_normal(rng, shape):\n    return rng.standard_normal(shape)\n"
                  "def add(x, r):\n    return engine.add(x, self.norm.beta)\n")
    assert forward_draws(layers_src) == [4, 7, 8]
    model_src = ("class KarinaModel:\n"
                 "    def __init__(self):\n        self._droppath_rng = 1\n"
                 "    def forward(self, x):\n        return self._droppath_rng\n"
                 "    def other(self):\n        return self._droppath_rng\n"
                 "def peek(m):\n    return getattr(m, '_droppath_rng')\n"
                 "m._droppath_rng.random(2)\n")
    assert droppath_rng_reads(model_src) == [7, 9, 10]


def test_blocks_draw_no_random_numbers():
    # a block's output depends only on its input, parameters and drop
    # factors; KarinaModel.forward alone draws from _droppath_rng
    assert forward_draws((SRC / "layers.py").read_text(encoding="utf-8")) == []
    assert droppath_rng_reads((SRC / "model.py").read_text(encoding="utf-8")) == []
