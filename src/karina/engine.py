"""Reverse-mode differentiation over dense numpy arrays.

Every op records through one primitive, _make.  It passes its output
and, for each parent in order, a function of the upstream gradient g
that gives that parent's gradient, plus the rule that adds it into the
parent's .grad: _accumulate, or _accumulate_samples where the
micro-batch contract below needs it.  A tensor requires grad when it is
a Parameter or a recorded output.  An op records only outside no_grad
and when some parent requires grad; its output keeps those rules.
backward() walks the recorded graph once in reverse topological order,
freeing it as it goes, and applies each node's rules: the gradient
function of each parent that requires grad, in parent order, and of no
other.  64-bit arrays are the verification dtype (finite
differences behave), 32-bit the training dtype; ops never mix the two
silently.

Two properties the ops are written to preserve, because tests rely on
them:

* Parameter gradients accumulate sample-by-sample in batch order, so
  splitting a batch into micro-batches and summing gradients reproduces
  the large-batch gradient bit for bit.
* Spatial reductions use either exactly-rounded summation (fsum, 64-bit
  mode) or a float64 sum over each row sorted first (32-bit mode), so
  global pooling commutes exactly with longitude rolls in both dtypes.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf, expit

from karina.files import require_finite

SUPPORTED_DTYPES = (np.float32, np.float64)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class EngineError(Exception):
    """Base class for engine failures."""


class ShapeError(EngineError):
    """Operands have incompatible shapes or dtypes."""


class NonFiniteError(EngineError):
    """An op produced NaN or Inf; message names the op."""


class BackwardError(EngineError):
    """backward() misuse: non-scalar loss, no recorded graph, or a consumed one."""


_recording = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _recording
    prev = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = prev


def recording():
    """True unless inside no_grad: an op now records its graph."""
    return _recording


def _same_dtype(a, b, op):
    if a.data.dtype != b.data.dtype:
        raise ShapeError(
            f"{op}: mixed dtypes {a.data.dtype} and {b.data.dtype}; cast explicitly"
        )


def _same_shape(a, b, op):
    _same_dtype(a, b, op)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


class Tensor:
    """A dense array plus optional gradient bookkeeping."""

    __slots__ = ("data", "grad", "_rules", "_op")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype.type not in SUPPORTED_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self._rules = None
        self._op = "leaf"

    @property
    def requires_grad(self):
        """True for a recorded output; a Parameter always requires grad."""
        return self._rules is not None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        tag = self._op if self._rules is not None else "leaf"
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, op={tag})"


class Parameter(Tensor):
    """Trainable leaf tensor; its name is its path in the module tree."""

    __slots__ = ()
    requires_grad = True


def _accumulate(t, g):
    """Add g into t.grad.  A first g that is writeable, C-ordered and of
    t's dtype becomes t.grad without a copy: _make hands grad functions
    their upstream read-only, so such a g is one a grad function made.
    Any other first g (the upstream, a view or broadcast of it, another
    dtype or layout) is copied."""
    if t.grad is not None:
        t.grad += g.astype(t.data.dtype, copy=False)
    elif g.flags.writeable and g.flags.c_contiguous and g.dtype == t.data.dtype:
        t.grad = g
    else:
        t.grad = g.astype(t.data.dtype, copy=True)


def _accumulate_samples(t, per_sample):
    """Add per-sample gradient slices into t.grad one sample at a time.

    Strictly left-to-right over the batch axis, continuing from whatever
    t.grad already holds.  This makes micro-batch accumulation replay
    the exact addition sequence of the large-batch gradient, so the two
    agree bit for bit.
    """
    n = per_sample.shape[0]
    if n == 0:
        return
    start = 0
    if t.grad is None:
        t.grad = per_sample[0].astype(t.data.dtype, copy=True)
        start = 1
    for k in range(start, n):
        t.grad += per_sample[k]


def _records(*parents):
    """True when an op on parents records: outside no_grad, with some
    parent requiring grad."""
    return _recording and any(p.requires_grad for p in parents)


def _make(out_data, op, *rules):
    """The one way an op records: its output, checked finite, as a Tensor.

    rules holds (parent, grad, accumulate) for each parent in order:
    grad(g) is the parent's gradient from the upstream g, and
    accumulate(parent, grad(g)) adds it in.  grad gets a read-only view
    of g and returns it, a view of it, or an array it made itself and
    holds nowhere else, which _accumulate may keep as the parent's .grad.
    """
    require_finite(out_data, NonFiniteError, f"output of {op}")
    out = Tensor(out_data)
    out._op = op
    if _records(*(p for p, _, _ in rules)):
        out._rules = rules
    return out


_CONSUMED = object()  # the rules of a node backward() has walked


def backward(loss):
    """Run reverse-mode accumulation from a scalar loss, consuming its graph.

    Seeds d(loss)/d(loss) = 1 and applies each node's rules once, in
    reverse topological order, to a read-only view of its .grad.  Grads
    add into .grad; leaves that cannot reach the loss keep grad=None.
    The walk consumes the graph: rules and intermediate .grads are
    dropped as it goes, and only leaf and loss grads survive.  A walk
    into a consumed node raises, as does a loss with no recorded graph,
    a leaf included.
    """
    if loss.data.size != 1:
        raise BackwardError(f"backward() needs a scalar loss, got shape {loss.data.shape}")
    if loss._rules is None:
        raise BackwardError("backward() on a tensor with no recorded graph")

    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._rules is _CONSUMED:
            raise BackwardError("backward() already consumed this graph; "
                                "run a fresh forward pass first")
        seen.add(id(node))
        stack.append((node, True))
        for p, _, _ in node._rules:
            if p._rules is not None and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        rules, node._rules = node._rules, _CONSUMED
        g = np.asarray(node.grad).view()
        g.flags.writeable = False
        for p, grad, accumulate in rules:
            if p.requires_grad:
                accumulate(p, grad(g))
        if node is not loss:
            node.grad = None


def zero_grads(params):
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b):
    """a + b, same shape only."""
    _same_shape(a, b, "add")
    return _make(a.data + b.data, "add",
                 (a, lambda g: g, _accumulate), (b, lambda g: g, _accumulate))


def sub(a, b):
    """a - b, same shape only."""
    _same_shape(a, b, "sub")
    return _make(a.data - b.data, "sub",
                 (a, lambda g: g, _accumulate), (b, lambda g: -g, _accumulate))


def mul(a, b):
    """Elementwise a * b, same shape only."""
    _same_shape(a, b, "mul")
    a_data, b_data = a.data, b.data
    return _make(a_data * b_data, "mul",
                 (a, lambda g: g * b_data, _accumulate), (b, lambda g: g * a_data, _accumulate))


def scale(a, c):
    """a * c for a python scalar c."""
    c = a.data.dtype.type(float(c))
    return _make(a.data * c, "scale", (a, lambda g: g * c, _accumulate))


def relu(a):
    x = a.data
    return _make(np.maximum(x, 0), "relu", (a, lambda g: g * (x > 0), _accumulate))


# Float32 GELU (gelu): Eigen's generic_fast_erf_float, an odd degree-13
# numerator over an even degree-8 denominator in z*z, and Cephes expf's
# polynomial and two-part ln 2, coefficients from the highest power down.
# The numerator's are halved, which is exact, so p*z/q + 0.5 rounds to
# the bits of (1 + erf~)/2 with one pass fewer.  Python float constants
# meet float32 arrays as float32 (numpy 2's weak scalars).
_ERF_NUM = np.array([-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                     -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                     -1.60960333262415e-02], dtype=np.float32) / np.float32(2)
_ERF_DEN = np.array([-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                     -7.37332916720468e-03, -1.42647390514189e-02], dtype=np.float32)
_EXP_POLY = np.array([1.9875691500e-4, 1.3981999507e-3, 8.3334519073e-3, 4.1665795894e-2,
                      1.6666665459e-1, 5.0000001201e-1], dtype=np.float32)
_LN2_HI, _LN2_LO, _LOG2E = 0.693359375, -2.12194440e-4, 1.0 / math.log(2.0)
# Elements per float32 GELU block, so that a block's operands (x, the
# output, the slope and four temporaries, 896 KiB) stay in one core's L2.
# In a sweep of 2^13 to 2^18 (BENCH_gelu.json), 2^15 and 2^16 ran GELU
# alike and fastest; the smaller keeps the temporaries at half the size.
_GELU_BLOCK = 1 << 15


def _horner(out, coef, t):
    """out = the polynomial with coefficients coef (highest power first) at t."""
    np.multiply(t, coef[0], out=out)
    out += coef[1]
    for a in coef[2:]:
        out *= t
        out += a


def _cdf32(x, p, z, zz, q):
    """p = Phi~(x), the float32 normal CDF, with z, zz and q as scratch;
    all five of one shape."""
    np.multiply(x, _INV_SQRT2, out=z)
    np.clip(z, -4.0, 4.0, out=z)
    np.multiply(z, z, out=zz)
    _horner(p, _ERF_NUM, zz)
    p *= z
    _horner(q, _ERF_DEN, zz)
    p /= q
    p += 0.5


def _pdf32(x, q, r, t, n):
    """q = phi~(x), the float32 normal density, with r, t and the int32 n
    as scratch; all five of one shape."""
    # t = -x*x/2 with |x| clipped to 14.5, past which expf(t) rounds to 0
    np.clip(x, -14.5, 14.5, out=t)
    t *= t
    t *= -0.5
    np.multiply(t, _LOG2E, out=r)
    np.rint(r, out=r)
    np.copyto(n, r, casting="unsafe")
    np.multiply(r, _LN2_HI, out=q)
    t -= q
    np.multiply(r, _LN2_LO, out=q)
    t -= q
    np.multiply(t, t, out=r)
    _horner(q, _EXP_POLY, t)
    q *= r
    q += t
    q += 1.0
    np.ldexp(q, n, out=q)
    q *= _INV_SQRT2PI


def _gelu32(x, record):
    """Float32 gelu's output, and when record is true its slope
    Phi~ + x*phi~ (else None), in one pass over blocks of _GELU_BLOCK
    elements.  Phi~ goes straight into the block of the slope, or of the
    output under no_grad, and three float32 temporaries and one int32
    are reused from block to block."""
    xf, n = x.reshape(-1), x.size
    out = np.empty(n, dtype=np.float32)
    slope = np.empty(n, dtype=np.float32) if record else None
    m = _GELU_BLOCK
    tmp = [np.empty(min(n, m), dtype=np.float32) for _ in range(3)]
    tmp.append(np.empty(min(n, m), dtype=np.int32))
    for i in range(0, n, m):
        xs = xf[i:i + m]
        q, z, zz, e = (a[:xs.size] for a in tmp)
        if slope is None:
            _cdf32(xs, out[i:i + m], z, zz, q)
            out[i:i + m] *= xs
        else:
            cdf = slope[i:i + m]
            _cdf32(xs, cdf, z, zz, q)
            np.multiply(xs, cdf, out=out[i:i + m])
            _pdf32(xs, q, z, zz, e)
            q *= xs
            cdf += q
    return out.reshape(x.shape), None if slope is None else slope.reshape(x.shape)


def gelu(a):
    """x * Phi(x), Phi the standard normal CDF.

    float64, the verification dtype, keeps the exact-erf form: scipy's
    erf, and np.exp for the density phi in the slope Phi + x*phi.

    float32 takes Phi~(x) = (1 + erf~(x/sqrt 2)) / 2, erf~ Eigen's
    rational erf on z clamped to [-4, 4] (_cdf32), and the slope
    Phi~ + x*phi~, phi~ a Cephes-style expf of -x*x/2 over sqrt(2 pi):
    Cody-Waite reduction by n = rint(t * log2 e), a degree-5 polynomial
    and an exact ldexp by n (_pdf32).  Every step is an in-place +, -, *,
    /, clip, rint or ldexp, each correctly rounded or exact, so the bits
    do not move with numpy's SIMD level.  One pass runs over blocks of
    _GELU_BLOCK elements; an element's arithmetic does not depend on its
    block.  On a dense sweep of [-8, 8] against math.erf, |Phi~ - Phi|
    <= 3e-7 and the slope is within 5e-7 of Phi + x*phi.  The slope is
    not the exact derivative of x*Phi~: |x*(Phi~' - phi)| <= 7e-6.

    Either dtype saves only the slope, and only when the op records, so
    under no_grad no exp runs.  The backward is g * slope.
    """
    x = a.data
    record = _records(a)
    if x.dtype == np.float32:
        out, slope = _gelu32(x, record)
    else:
        cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
        out = x * cdf
        slope = cdf + x * (np.exp(-0.5 * x * x) * _INV_SQRT2PI) if record else None
    return _make(out, "gelu", (a, lambda g: g * slope, _accumulate))


def sigmoid(a):
    out_data = expit(a.data)
    return _make(out_data, "sigmoid",
                 (a, lambda g: g * out_data * (1.0 - out_data), _accumulate))


# ---------------------------------------------------------------------------
# reductions


def sum_all(a):
    """Scalar sum of all elements (fixed numpy reduction tree)."""
    shape = a.data.shape
    return _make(np.asarray(a.data.sum(dtype=a.data.dtype)), "sum_all",
                 (a, lambda g: np.broadcast_to(g, shape), _accumulate))


def mean_all(a):
    if a.data.size == 0:
        raise ShapeError("mean_all: empty tensor")
    shape, n = a.data.shape, a.data.dtype.type(a.data.size)
    return _make(np.asarray(a.data.sum(dtype=a.data.dtype) / n), "mean_all",
                 (a, lambda g: np.broadcast_to(g / n, shape), _accumulate))


def global_avg_pool(a):
    """Mean over the two trailing spatial axes: (..., C, H, W) -> (..., C).

    The spatial sum must not depend on column order, otherwise pooled
    channel gates would break exact longitude-roll equivariance.  In
    float64 we use fsum (exactly rounded, order-free); in float32 we
    sort each row, which no permutation of its columns can change, sum
    it in float64 and round once.
    """
    if a.data.ndim < 3:
        raise ShapeError(f"global_avg_pool: need (..., C, H, W), got {a.data.shape}")
    h, w = a.data.shape[-2:]
    if h == 0 or w == 0:
        raise ShapeError("global_avg_pool: empty spatial extent")
    shape = a.data.shape
    flat = a.data.reshape(-1, h * w)
    if a.data.dtype == np.float64:
        sums = np.array([math.fsum(row) for row in flat.tolist()], dtype=np.float64)
    else:
        sums = np.sort(flat, axis=1).sum(axis=1, dtype=np.float64)
    out_data = (sums / (h * w)).astype(a.data.dtype).reshape(shape[:-2])
    inv = a.data.dtype.type(1.0 / (h * w))
    return _make(out_data, "global_avg_pool",
                 (a, lambda g: np.broadcast_to(g.reshape(shape[:-2] + (1, 1)) * inv, shape),
                  _accumulate))


# ---------------------------------------------------------------------------
# normalization and affine maps


def layer_norm_channels(x, gamma, beta):
    """Normalize a (B, C, H, W) x over channels per spatial location.

    gamma, beta are (C,).  Uses the biased variance plus eps = 1e-6.
    """
    _same_dtype(x, gamma, "layer_norm_channels")
    _same_dtype(x, beta, "layer_norm_channels")
    xd = x.data
    c = xd.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(
            f"layer_norm_channels: gamma/beta must be ({c},), got "
            f"{gamma.data.shape} and {beta.data.shape}"
        )
    mu = xd.mean(axis=1, keepdims=True)
    var = ((xd - mu) ** 2).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + xd.dtype.type(1e-6))
    xhat = (xd - mu) * inv_std
    gamma4 = gamma.data.reshape(c, 1, 1)

    def x_grad(g):
        dxhat = g * gamma4
        m1 = dxhat.mean(axis=1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
        return inv_std * (dxhat - m1 - xhat * m2)

    return _make(xhat * gamma4 + beta.data.reshape(c, 1, 1), "layer_norm_channels",
                 (x, x_grad, _accumulate),
                 (gamma, lambda g: (g * xhat).sum(axis=(2, 3)), _accumulate_samples),
                 (beta, lambda g: g.sum(axis=(2, 3)), _accumulate_samples))


def _rows(a):
    return a.reshape(-1, a.shape[-1])


def linear(x, w, b):
    """x @ w.T + b for x (..., In), w (Out, In), b (Out,)."""
    _same_dtype(x, w, "linear")
    _same_dtype(x, b, "linear")
    if x.data.shape[-1] != w.data.shape[1]:
        raise ShapeError(
            f"linear: input features {x.data.shape[-1]} != weight in-features {w.data.shape[1]}"
        )
    if b.data.shape != (w.data.shape[0],):
        raise ShapeError(f"linear: bias shape {b.data.shape} != ({w.data.shape[0]},)")
    x_data, w_data = x.data, w.data
    # one GEMM per sample (leading axis batched) so each row's result does
    # not depend on how many rows ride along; a plain 2-D GEMM blocks over
    # rows and would break micro-batch bit-equality
    out_data = np.matmul(x_data[..., None, :], w_data.T)[..., 0, :] + b.data
    return _make(out_data, "linear",
                 (x, lambda g: np.matmul(g[..., None, :], w_data)[..., 0, :], _accumulate),
                 (w, lambda g: _rows(g)[:, :, None] * _rows(x_data)[:, None, :],
                  _accumulate_samples),
                 (b, _rows, _accumulate_samples))


def channel_scale(x, s):
    """Multiply per channel: x (B, C, H, W) times s of shape (C,) or (B, C)."""
    _same_dtype(x, s, "channel_scale")
    # (C,) scales every sample alike; (B, C) gates one channel per sample
    if s.data.shape not in (x.data.shape[1:2], x.data.shape[:2]):
        raise ShapeError(
            f"channel_scale: scale shape {s.data.shape} does not fit input {x.data.shape}"
        )
    x_data = x.data
    sb = s.data.reshape(s.data.shape + (1, 1))
    return _make(x_data * sb, "channel_scale",
                 (x, lambda g: g * sb, _accumulate),
                 (s, lambda g: (g * x_data).sum(axis=(2, 3)),
                  _accumulate if s.data.ndim == 2 else _accumulate_samples))


def sample_scale(x, factors):
    """Multiply each sample of a (B, C, H, W) x by its entry of the (B,)
    array factors (no grad to factors).  Used for stochastic depth.
    """
    f = np.asarray(factors, dtype=x.data.dtype)
    if f.shape != x.data.shape[:1]:
        raise ShapeError(f"sample_scale: factors shape {f.shape} != {x.data.shape[:1]}")
    fb = f.reshape(f.shape + (1, 1, 1))
    return _make(x.data * fb, "sample_scale", (x, lambda g: g * fb, _accumulate))


# ---------------------------------------------------------------------------
# spatial ops: gather padding and valid convolution


def pad2d(x, table):
    """Gather-style padding of the trailing (H, W) plane of x, whatever
    its leading axes: out[..., i, j] = x[..., table[i, j]], or 0 where
    table[i, j] < 0.

    table is a (Hp, Wp) int array of source indices into the flattened
    (H, W) plane, -1 meaning zero fill.  The backward pass scatter-adds
    with bincount, which accumulates in fixed index order.

    The output is C-ordered.  Both gathers use take(..., axis=1): numpy
    returns a[:, idx] pixel-major (strides (itemsize, rows * itemsize)),
    and every im2col copy and dx buffer built from such an array would
    stride across memory.
    """
    hp, wp = table.shape
    table = table.reshape(-1)
    shape, dtype = x.data.shape, x.data.dtype
    h, w = shape[-2:]
    if table.size and (table.max() >= h * w or table.min() < -1):
        raise ShapeError("pad2d: table index out of range")
    flat = x.data.reshape(-1, h * w)
    rows = flat.shape[0]
    out = flat.take(np.maximum(table, 0), axis=1)
    zero_mask = table < 0
    if zero_mask.any():
        out[:, zero_mask] = 0

    def x_grad(g):
        valid = np.flatnonzero(table >= 0)
        src = table[valid]
        gv = g.reshape(rows, hp * wp).take(valid, axis=1)
        dx = np.empty((rows, h * w), dtype=np.float64)
        for r in range(rows):
            dx[r] = np.bincount(src, weights=gv[r], minlength=h * w)
        return dx.astype(dtype, copy=False).reshape(shape)

    return _make(out.reshape(shape[:-2] + (hp, wp)), "pad2d", (x, x_grad, _accumulate))


# The most patch-matrix bytes _patches builds at once: one core's L2.  In
# a sweep of 0.25 to 64 MiB (BENCH_patches.json), 0.5 to 2 MiB ran alike
# and 4 MiB and more ran depthwise convs slower.
_PATCH_BYTES = 2 << 20


def _patches(x4, k, groups):
    """The grouped patch matrix of x4 (B, Cin, Hp, Wp) for a K x K kernel,
    one block at a time.  Yields (samples, groups, cols): the block's
    sample and group slices, and cols[n, g, c*K*K + dy*K + dx, p], the
    plane of channel c of the block's group g in its sample n, shifted
    by (dy, dx), at output pixel p.

    A block holds whole samples while one sample's matrix fits in
    _PATCH_BYTES, else a run of one sample's groups, never less than one
    (sample, group).  The blocks share one buffer, so a caller is done
    with a block when it asks for the next.  Where the windows already
    lie as patch rows (1x1 kernels, or a single output column) the matrix
    is a view of x4 and comes as one block.

    A GEMM on a block's (sample, group) slice therefore sees the operand
    it saw on the whole matrix that reshaping the windows gives: the same
    view, or a C-ordered (Cin/G * K * K, Ho * Wo) copy with the same
    values, shape and strides.  So no block size can move a bit.
    """
    bsz, cin, hp, wp = x4.shape
    cin_g = cin // groups
    ho, wo = hp - k + 1, wp - k + 1
    rows = cin_g * k * k
    win = sliding_window_view(x4, (k, k), axis=(2, 3)).transpose(0, 1, 4, 5, 2, 3)
    try:
        view = win.reshape(bsz, groups, rows, ho * wo, copy=False)
    except ValueError:
        view = None
    if view is not None:
        yield slice(0, bsz), slice(0, groups), view
        return
    group_bytes = rows * ho * wo * x4.itemsize
    if groups * group_bytes <= _PATCH_BYTES:
        nb, gb = _PATCH_BYTES // (groups * group_bytes), groups
    else:
        nb, gb = 1, max(1, _PATCH_BYTES // group_bytes)
    buf = np.empty(min(nb, bsz) * gb * rows * ho * wo, dtype=x4.dtype)
    for n0 in range(0, bsz, nb):
        ns = slice(n0, min(n0 + nb, bsz))
        for g0 in range(0, groups, gb):
            gs = slice(g0, min(g0 + gb, groups))
            m, h = ns.stop - ns.start, gs.stop - gs.start
            cols = buf[:m * h * rows * ho * wo].reshape(m, h, rows, ho * wo)
            np.copyto(cols.reshape(m, h * cin_g, k, k, ho, wo),
                      win[ns, g0 * cin_g:gs.stop * cin_g])
            yield ns, gs, cols


def _conv(x4, w, groups):
    """Valid cross-correlation of x4 (B, Cin, Hp, Wp) with w (Cout, Cin/G, K, K):
    one GEMM per (sample, group) of the group's kernel rows against its
    patch matrix (_patches).  Dense is G=1, depthwise G=C with one output
    row per group.  Returns (B, Cout, Ho, Wo), C-ordered.
    """
    bsz, _, hp, wp = x4.shape
    cout, cin_g, k, _ = w.shape
    ho, wo = hp - k + 1, wp - k + 1
    gw = w.reshape(groups, cout // groups, cin_g * k * k)
    out = np.empty((bsz, groups, cout // groups, ho * wo), dtype=x4.dtype)
    for ns, gs, cols in _patches(x4, k, groups):
        np.matmul(gw[gs], cols, out=out[ns, gs])
    return out.reshape(bsz, cout, ho, wo)


def conv2d_valid(x, w, b, groups=1):
    """Valid cross-correlation plus bias, stride 1, input already padded.

    x (B, Cin, Hp, Wp); w (Cout, Cin/groups, K, K); b (Cout,).
    Lowered to im2col plus matmul (_conv) so the contraction over the
    patch axis is one GEMM per (sample, group).  Under one OpenBLAS kernel
    and thread count its bits do not move under column permutations of
    the spatial axis on the grids the tests use, which makes pad+conv
    exactly roll-equivariant; other kernels, such as Haswell, round some
    columns by their position.

    The patch matrix is built one block at a time (_patches): whole
    samples while one sample's matrix fits in _PATCH_BYTES, else a run of
    one sample's groups.  Each GEMM still gets its (sample, group)
    operands with the same shape and strides, so the block size cannot
    move a bit; it bounds the memory.  No patch matrix outlives the
    forward: dW builds the blocks again from the padded input, which the
    graph holds anyway.

    The kernel must reach matmul in a layout OpenBLAS takes: C-ordered,
    or transposed as dx's 1x1 kernel is.  A kernel with negative strides,
    such as a flipped view, makes matmul skip OpenBLAS for numpy's own
    loop, which rounds differently: for a float32 depthwise 7x7 forward at
    2x16x22x38, w and a strided view of the same values differ on 77% of
    the outputs.  So the forward takes the parameter as it is, and dense
    and grouped dx reshape their flipped kernel into a C-ordered copy.

    dx is the same contraction run on g zero-padded by K-1, against each
    group's kernel flipped in both spatial axes with its in and out
    channels swapped:

        dx = conv(pad(g, K-1), w.reshape(G, Cout/G, Cin/G, K, K)
                  [..., ::-1, ::-1].transpose(0, 2, 1, 3, 4)
                  .reshape(Cin, Cout/G, K, K), groups=G)

    so each dx element is one dot over (c_out, tap), for the whole batch
    in one _conv.

    Depthwise dx (Cin/G = 1, Cout = G) is a tap loop instead, with no
    patch matrix and no BLAS.  g is spread channel-major into rows < Ho
    and columns < Wo of a zeroed (C, B*Hp*Wp) buffer, dx starts at +0 in
    that layout, and for taps t = i*K + j = K*K-1 down to 0 the run
    dx[:, s:], s = i*Wp + j, adds w[:, t] times the buffer's first
    B*Hp*Wp - s columns; the products' buffer then takes dx batch-major,
    so three padded inputs are live at most.  These are the bits of the
    formula above.  There the flipped depthwise kernel reshapes to a
    strided view, so matmul runs numpy's own loop: each element starts at
    +0 and adds each w*g product in flipped-tap order, rounding each
    product and each add once.  The runs add the same products in the
    same order, plus products against the zero rows and columns that
    part a run's rows and samples.  Like those against the zero padding
    above, these are +-0 (w is finite, or the forward's output was not),
    and adding +-0 to a sum that starts at +0 never changes it.
    """
    _same_dtype(x, w, "conv2d_valid")
    _same_dtype(x, b, "conv2d_valid")
    if x.data.ndim != 4 or w.data.ndim != 4 or w.data.shape[2] != w.data.shape[3]:
        raise ShapeError(
            f"conv2d_valid: need x (B, Cin, Hp, Wp) and w (Cout, Cin/g, K, K), "
            f"got {x.data.shape} and {w.data.shape}"
        )
    xd = x.data
    bsz, cin, hp, wp = xd.shape
    cout, cin_g, k, _ = w.data.shape
    if groups < 1 or cin % groups or cout % groups:
        raise ShapeError(f"conv2d_valid: groups={groups} does not divide Cin={cin}, Cout={cout}")
    if cin_g != cin // groups:
        raise ShapeError(
            f"conv2d_valid: weight expects {cin_g} channels per group, input gives {cin // groups}"
        )
    if hp < k or wp < k:
        raise ShapeError(f"conv2d_valid: kernel {k} exceeds padded extent ({hp},{wp})")
    if b.data.shape != (cout,):
        raise ShapeError(f"conv2d_valid: bias shape {b.data.shape} != ({cout},)")

    out_data = _conv(xd, w.data, groups)
    out_data += b.data.reshape(1, cout, 1, 1)
    wd = w.data

    def w_grad(g):
        gg = g.reshape(bsz, groups, cout // groups, -1)
        per_sample = np.empty((bsz, groups, cout // groups, cin_g * k * k), dtype=xd.dtype)
        for ns, gs, cols in _patches(xd, k, groups):
            np.matmul(gg[ns, gs], cols.transpose(0, 1, 3, 2), out=per_sample[ns, gs])
        return per_sample.reshape((bsz,) + wd.shape)

    def x_grad(g):
        if cin_g == 1 and cout == groups:
            gs = np.zeros((cout, bsz, hp, wp), dtype=xd.dtype)
            gs[:, :, :hp - k + 1, :wp - k + 1] = g.transpose(1, 0, 2, 3)
            gs, taps = gs.reshape(cout, -1), wd.reshape(cout, k * k)
            dx, tmp = np.zeros_like(gs), np.empty_like(gs)
            for t in range(k * k - 1, -1, -1):
                s = t // k * wp + t % k
                np.multiply(gs[:, :gs.shape[1] - s], taps[:, t, None], out=tmp[:, s:])
                dx[:, s:] += tmp[:, s:]
            out = tmp.reshape(xd.shape)
            out[...] = dx.reshape(cout, bsz, hp, wp).transpose(1, 0, 2, 3)
            return out
        wf = (wd.reshape(groups, cout // groups, cin_g, k, k)[..., ::-1, ::-1]
              .transpose(0, 2, 1, 3, 4).reshape(cin, cout // groups, k, k))
        gp = np.zeros((bsz, cout, hp + k - 1, wp + k - 1), dtype=g.dtype)
        gp[:, :, k - 1:hp, k - 1:wp] = g
        return _conv(gp, wf, groups)

    return _make(out_data, "conv2d_valid", (x, x_grad, _accumulate),
                 (w, w_grad, _accumulate_samples),
                 (b, lambda g: g.reshape(bsz, cout, -1).sum(axis=2), _accumulate_samples))


# ---------------------------------------------------------------------------
# finite-difference verification


def grad_check(fn, params, h=1e-5, rng=None, sample=None):
    """Compare analytic gradients of fn() against central differences.

    fn rebuilds the graph and returns a scalar loss; params are the
    leaves to probe.  Returns the worst relative error
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).

    All params must be float64 (32-bit finite differences are mush).
    h must sit in [1e-7, 1e-4].  sample, if given, caps the number of
    coordinates probed per parameter, drawn without replacement from
    rng; coverage stays at least one coordinate per parameter.  The
    differences run unrecorded, so fn must not depend on recording.
    """
    params = list(params)
    if not params:
        raise EngineError("grad_check: no parameters supplied")
    for p in params:
        if p.data.dtype != np.float64:
            raise EngineError(f"grad_check: parameter dtype {p.data.dtype}; verification needs float64")
    if not (1e-7 <= h <= 1e-4):
        raise EngineError(f"grad_check: step h={h} outside [1e-7, 1e-4]")
    if sample is not None:
        if rng is None:
            raise EngineError("grad_check: sampling requires an rng")
        if sample < 1:
            raise EngineError("grad_check: sample must be >= 1")

    zero_grads(params)
    loss = fn()
    backward(loss)
    analytic = []
    for p in params:
        analytic.append(np.zeros_like(p.data) if p.grad is None else p.grad.copy())

    worst = 0.0
    with no_grad():
        if fn().data.tobytes() != loss.data.tobytes():
            raise EngineError("grad_check: fn gives another loss unrecorded; it must not depend on recording")
        for p, ga in zip(params, analytic):
            flat = p.data.reshape(-1)
            gflat = ga.reshape(-1)
            n = flat.size
            if sample is None or sample >= n:
                idxs = range(n)
            else:
                idxs = np.sort(rng.choice(n, size=sample, replace=False))
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + h
                fp = fn().item()
                flat[i] = orig - h
                fm = fn().item()
                flat[i] = orig
                numeric = (fp - fm) / (2.0 * h)
                rel = abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1e-8)
                if rel > worst:
                    worst = rel
    return worst
