"""Reverse-mode differentiation over dense numpy arrays.

Every operation builds a new Tensor carrying a closure that scatters the
upstream gradient back to its parents.  backward() walks the recorded
graph once in reverse topological order, freeing it as it goes.  64-bit
arrays are the verification dtype (finite differences behave), 32-bit
the training dtype; ops never mix the two silently.

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


def _check_finite(arr, op):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values in output of {op}")


def _same_dtype(a, b, op):
    if a.data.dtype != b.data.dtype:
        raise ShapeError(
            f"{op}: mixed dtypes {a.data.dtype} and {b.data.dtype}; cast explicitly"
        )


class Tensor:
    """A dense array plus optional gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype.type not in SUPPORTED_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None
        self._op = "leaf"

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        tag = self._op if self._backward_fn is not None else "leaf"
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, op={tag})"


class Parameter(Tensor):
    """Trainable leaf tensor with a path-like name, e.g. 'stages.0.blocks.1.dwconv.weight'."""

    __slots__ = ("name",)

    def __init__(self, data, name):
        super().__init__(data, requires_grad=True)
        self.name = str(name)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape}, dtype={self.data.dtype})"


def _accumulate(t, g):
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad += g.astype(t.data.dtype, copy=False)


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


def _make(out_data, parents, backward_fn, op):
    _check_finite(out_data, op)
    req = _recording and any(p.requires_grad for p in parents)
    out = Tensor(out_data, requires_grad=req)
    out._op = op
    if req:
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _consumed(g):
    raise BackwardError("backward() already consumed this graph; run a fresh forward pass first")


def backward(loss):
    """Run reverse-mode accumulation from a scalar loss, consuming its graph.

    Seeds d(loss)/d(loss) = 1 and calls each recorded closure once, in
    reverse topological order.  Grads add into .grad; leaves that cannot
    reach the loss keep grad=None.  The walk consumes the graph: closures,
    parent links and intermediate .grads are dropped as it goes, and only
    leaf and loss grads survive.  A walk into a consumed node raises, as
    does a loss with no recorded graph, a leaf included.
    """
    if loss.data.size != 1:
        raise BackwardError(f"backward() needs a scalar loss, got shape {loss.data.shape}")
    if loss._backward_fn is None:
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
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p._backward_fn is not None and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        fn = node._backward_fn
        node._backward_fn, node._parents = _consumed, ()
        fn(node.grad)
        if node is not loss:
            node.grad = None


def zero_grads(params):
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b):
    """a + b, same shape only."""
    _same_dtype(a, b, "add")
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} differ")
    out_data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g)

    return _make(out_data, (a, b), bwd, "add")


def sub(a, b):
    """a - b, same shape only."""
    _same_dtype(a, b, "sub")
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub: shapes {a.data.shape} and {b.data.shape} differ")
    out_data = a.data - b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, -g)

    return _make(out_data, (a, b), bwd, "sub")


def mul(a, b):
    """Elementwise a * b, same shape only."""
    _same_dtype(a, b, "mul")
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} differ")
    out_data = a.data * b.data
    a_data, b_data = a.data, b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * b_data)
        if b.requires_grad:
            _accumulate(b, g * a_data)

    return _make(out_data, (a, b), bwd, "mul")


def scale(a, c):
    """a * c for a python scalar c."""
    c = float(c)
    out_data = a.data * a.data.dtype.type(c)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * a.data.dtype.type(c))

    return _make(out_data, (a,), bwd, "scale")


def relu(a):
    out_data = np.maximum(a.data, 0)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * (a.data > 0))

    return _make(out_data, (a,), bwd, "relu")


def gelu(a):
    """Exact-erf form: x * Phi(x) with Phi the standard normal CDF."""
    x = a.data
    phi_cdf = 0.5 * (1.0 + erf(x * x.dtype.type(_INV_SQRT2)))
    out_data = x * phi_cdf

    def bwd(g):
        if a.requires_grad:
            pdf = np.exp(-0.5 * x * x) * x.dtype.type(_INV_SQRT2PI)
            _accumulate(a, g * (phi_cdf + x * pdf))

    return _make(out_data, (a,), bwd, "gelu")


def sigmoid(a):
    out_data = expit(a.data)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), bwd, "sigmoid")


# ---------------------------------------------------------------------------
# reductions


def sum_all(a):
    """Scalar sum of all elements (fixed numpy reduction tree)."""
    out_data = np.asarray(a.data.sum(dtype=a.data.dtype))

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, np.broadcast_to(g, a.data.shape))

    return _make(out_data, (a,), bwd, "sum_all")


def mean_all(a):
    if a.data.size == 0:
        raise ShapeError("mean_all: empty tensor")
    n = a.data.size
    out_data = np.asarray(a.data.sum(dtype=a.data.dtype) / a.data.dtype.type(n))

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, np.broadcast_to(g / a.data.dtype.type(n), a.data.shape))

    return _make(out_data, (a,), bwd, "mean_all")


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
    lead_shape = a.data.shape[:-2]
    flat = a.data.reshape(-1, h * w)
    if a.data.dtype == np.float64:
        sums = np.array([math.fsum(row) for row in flat.tolist()], dtype=np.float64)
    else:
        sums = np.sort(flat, axis=1).sum(axis=1, dtype=np.float64)
    out_data = (sums / (h * w)).astype(a.data.dtype).reshape(lead_shape)
    inv = 1.0 / (h * w)

    def bwd(g):
        if a.requires_grad:
            gg = (g.reshape(lead_shape + (1, 1)) * a.data.dtype.type(inv))
            _accumulate(a, np.broadcast_to(gg, a.data.shape))

    return _make(out_data, (a,), bwd, "global_avg_pool")


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
    out_data = xhat * gamma4 + beta.data.reshape(c, 1, 1)

    def bwd(g):
        if gamma.requires_grad:
            _accumulate_samples(gamma, (g * xhat).sum(axis=(2, 3)))
        if beta.requires_grad:
            _accumulate_samples(beta, g.sum(axis=(2, 3)))
        if x.requires_grad:
            dxhat = g * gamma4
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            _accumulate(x, inv_std * (dxhat - m1 - xhat * m2))

    return _make(out_data, (x, gamma, beta), bwd, "layer_norm_channels")


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
    # one GEMM per sample (leading axis batched) so each row's result does
    # not depend on how many rows ride along; a plain 2-D GEMM blocks over
    # rows and would break micro-batch bit-equality
    out_data = np.matmul(x.data[..., None, :], w.data.T)[..., 0, :] + b.data
    x_data = x.data

    def bwd(g):
        if x.requires_grad:
            _accumulate(x, np.matmul(g[..., None, :], w.data)[..., 0, :])
        g2 = g.reshape(-1, g.shape[-1])
        x2 = x_data.reshape(-1, x_data.shape[-1])
        if w.requires_grad:
            per_sample = g2[:, :, None] * x2[:, None, :]
            _accumulate_samples(w, per_sample)
        if b.requires_grad:
            _accumulate_samples(b, g2)

    return _make(out_data, (x, w, b), bwd, "linear")


def channel_scale(x, s):
    """Multiply per channel: x (B, C, H, W) times s of shape (C,) or (B, C)."""
    _same_dtype(x, s, "channel_scale")
    # (C,) scales every sample alike; (B, C) gates one channel per sample
    if s.data.shape not in (x.data.shape[1:2], x.data.shape[:2]):
        raise ShapeError(
            f"channel_scale: scale shape {s.data.shape} does not fit input {x.data.shape}"
        )
    per_batch = s.data.ndim == 2
    sb = s.data.reshape(s.data.shape + (1, 1))
    out_data = x.data * sb
    x_data = x.data

    def bwd(g):
        if x.requires_grad:
            _accumulate(x, g * sb)
        if s.requires_grad:
            per_sample = (g * x_data).sum(axis=(2, 3))
            if per_batch:
                _accumulate(s, per_sample)
            else:
                _accumulate_samples(s, per_sample)

    return _make(out_data, (x, s), bwd, "channel_scale")


def sample_scale(x, factors):
    """Multiply each sample of a (B, C, H, W) x by its entry of the (B,)
    array factors (no grad to factors).  Used for stochastic depth.
    """
    f = np.asarray(factors, dtype=x.data.dtype)
    if f.shape != x.data.shape[:1]:
        raise ShapeError(f"sample_scale: factors shape {f.shape} != {x.data.shape[:1]}")
    fb = f.reshape(f.shape + (1, 1, 1))
    out_data = x.data * fb

    def bwd(g):
        if x.requires_grad:
            _accumulate(x, g * fb)

    return _make(out_data, (x,), bwd, "sample_scale")


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
    h, w = x.data.shape[-2:]
    if table.size and (table.max() >= h * w or table.min() < -1):
        raise ShapeError("pad2d: table index out of range")
    flat = x.data.reshape(-1, h * w)
    rows = flat.shape[0]
    safe = np.maximum(table, 0)
    out = flat.take(safe, axis=1)
    zero_mask = table < 0
    if zero_mask.any():
        out[:, zero_mask] = 0
    out_data = out.reshape(x.data.shape[:-2] + (hp, wp))

    def bwd(g):
        if not x.requires_grad:
            return
        valid = np.flatnonzero(table >= 0)
        src = table[valid]
        gv = g.reshape(rows, hp * wp).take(valid, axis=1)
        dx = np.empty((rows, h * w), dtype=np.float64)
        for r in range(rows):
            dx[r] = np.bincount(src, weights=gv[r], minlength=h * w)
        dx = dx.astype(x.data.dtype, copy=False).reshape(x.data.shape)
        _accumulate(x, dx)

    return _make(out_data, (x,), bwd, "pad2d")


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
    patch matrix and no BLAS: dx starts at +0, and for taps
    t = i*K + j = K*K-1 down to 0 the window dx[..., i:i+Ho, j:j+Wo]
    adds w[:, t] * g.  These are the bits of the formula above.  There
    the flipped depthwise kernel reshapes to a strided view, so matmul
    runs numpy's own loop: each element starts at +0 and adds each w*g
    product in flipped-tap order, rounding each product and each add
    once.  The tap loop adds the same products in the same order.  It
    skips only the products against the zero padding, which are +-0, and
    adding +-0 to a sum that starts at +0 never changes it.  A contiguous
    copy of that kernel would go to OpenBLAS and move the bits, which is
    why depthwise dx stays the tap loop.  The depthwise forward and dW
    still run through BLAS.
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

    def bwd(g):
        gmat = g.reshape(bsz, cout, -1)
        if b.requires_grad:
            _accumulate_samples(b, gmat.sum(axis=2))
        if w.requires_grad:
            gg = gmat.reshape(bsz, groups, cout // groups, -1)
            per_sample = np.empty((bsz, groups, cout // groups, cin_g * k * k), dtype=xd.dtype)
            for ns, gs, cols in _patches(xd, k, groups):
                np.matmul(gg[ns, gs], cols.transpose(0, 1, 3, 2), out=per_sample[ns, gs])
            _accumulate_samples(w, per_sample.reshape((bsz,) + w.data.shape))
        if x.requires_grad and cin_g == 1 and cout == groups:
            taps = w.data.reshape(1, cout, k * k)
            ho, wo = g.shape[2:]
            dx = np.zeros(xd.shape, dtype=xd.dtype)
            for t in range(k * k - 1, -1, -1):
                i, j = divmod(t, k)
                dx[:, :, i:i + ho, j:j + wo] += taps[..., t, None, None] * g
            _accumulate(x, dx)
        elif x.requires_grad:
            wf = (w.data.reshape(groups, cout // groups, cin_g, k, k)[..., ::-1, ::-1]
                  .transpose(0, 2, 1, 3, 4).reshape(cin, cout // groups, k, k))
            gp = np.zeros((bsz, cout, hp + k - 1, wp + k - 1), dtype=g.dtype)
            gp[:, :, k - 1:hp, k - 1:wp] = g
            _accumulate(x, _conv(gp, wf, groups))

    return _make(out_data, (x, w, b), bwd, "conv2d_valid")


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
