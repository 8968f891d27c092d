"""Network building blocks: same-size convolutions, channel attention,
the inverted-bottleneck residual block, and stage transitions.

Every convolution pads through the configured boundary mode before the
valid correlation, so spatial extent never changes anywhere in the
network; downsampling is deliberately absent because polar geometry
makes coarse grids ambiguous at the seam.
"""

from __future__ import annotations

import numpy as np

from karina import engine
from karina.padding import PaddingMode, pad


class LayerError(Exception):
    """Bad layer construction arguments."""


def trunc_normal(rng, shape, std=0.02):
    """Normal draw truncated to two sigmas by redrawing the tails."""
    z = rng.standard_normal(shape)
    bad = np.abs(z) > 2.0
    while bad.any():
        z[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(z) > 2.0
    return z * std


class Module:
    """Container with deterministic parameter discovery.

    Attributes are walked in definition order; Parameter attributes are
    yielded under their attribute name, sub-modules recurse with a
    dotted prefix, and lists of modules use the list index as a path
    segment.
    """

    def named_parameters(self, prefix=""):
        for attr, value in vars(self).items():
            if isinstance(value, engine.Parameter):
                yield prefix + attr, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix + attr + ".")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{prefix}{attr}.{i}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def assign_names(self, prefix=""):
        """Stamp each parameter's .name with its full dotted path."""
        for name, p in self.named_parameters(prefix):
            p.name = name


class Conv2d(Module):
    """Same-size convolution: boundary pad by (k-1)/2, then valid correlation."""

    def __init__(self, in_channels, out_channels, kernel, *, groups=1,
                 padding_mode=PaddingMode.GEOCYCLIC, rng=None, dtype=np.float32):
        if kernel < 1 or kernel % 2 == 0:
            raise LayerError(f"kernel must be odd and positive, got {kernel}")
        if groups < 1 or in_channels % groups or out_channels % groups:
            raise LayerError(
                f"groups={groups} must divide in={in_channels} and out={out_channels}"
            )
        if rng is None:
            rng = np.random.default_rng(0)
        self.kernel = int(kernel)
        self.groups = int(groups)
        self.padding_mode = padding_mode
        w = trunc_normal(rng, (out_channels, in_channels // groups, kernel, kernel))
        self.weight = engine.Parameter(w.astype(dtype), "weight")
        self.bias = engine.Parameter(np.zeros(out_channels, dtype=dtype), "bias")

    def __call__(self, x):
        if self.kernel > 1:
            x = pad(x, (self.kernel - 1) // 2, self.padding_mode)
        return engine.conv2d_valid(x, self.weight, self.bias, groups=self.groups)


class LayerNormChannels(Module):
    """Per-location normalization over channels with learnable gain and shift."""

    def __init__(self, channels, dtype=np.float32):
        self.gamma = engine.Parameter(np.ones(channels, dtype=dtype), "gamma")
        self.beta = engine.Parameter(np.zeros(channels, dtype=dtype), "beta")

    def __call__(self, x):
        return engine.layer_norm_channels(x, self.gamma, self.beta)


class SEBlock(Module):
    """Squeeze-and-excitation: pool globally, bottleneck, gate channels."""

    def __init__(self, channels, reduction=4, *, rng=None, dtype=np.float32):
        if reduction < 1 or channels % reduction:
            raise LayerError(
                f"reduction {reduction} must divide channel count {channels}"
            )
        if rng is None:
            rng = np.random.default_rng(0)
        hidden = channels // reduction
        self.fc1_weight = engine.Parameter(
            trunc_normal(rng, (hidden, channels)).astype(dtype), "fc1_weight")
        self.fc1_bias = engine.Parameter(np.zeros(hidden, dtype=dtype), "fc1_bias")
        self.fc2_weight = engine.Parameter(
            trunc_normal(rng, (channels, hidden)).astype(dtype), "fc2_weight")
        self.fc2_bias = engine.Parameter(np.zeros(channels, dtype=dtype), "fc2_bias")

    def __call__(self, x):
        pooled = engine.global_avg_pool(x)
        h = engine.relu(engine.linear(pooled, self.fc1_weight, self.fc1_bias))
        gates = engine.sigmoid(engine.linear(h, self.fc2_weight, self.fc2_bias))
        return engine.channel_scale(x, gates)


def drop_path(x, residual, factors=None):
    """Residual add with stochastic depth, for (B, C, H, W) tensors.

    factors, when given, is the (B,) row KarinaModel.forward drew for
    this block: 0 drops a sample's residual, 1/(1 - rate) keeps it with
    the expectation unchanged.  Without it the residual is added as-is.
    """
    if factors is None:
        return engine.add(x, residual)
    return engine.add(x, engine.sample_scale(residual, factors))


class ConvNextBlock(Module):
    """Depthwise 7x7, optional channel attention, norm, pointwise
    expand-activate-project (4x wider), learnable residual scale,
    stochastic depth."""

    def __init__(self, dim, *, kernel=7, se_enabled=True, reduction=4,
                 layer_scale_init=1e-6,
                 padding_mode=PaddingMode.GEOCYCLIC, rng=None, dtype=np.float32):
        if rng is None:
            rng = np.random.default_rng(0)
        self.dwconv = Conv2d(dim, dim, kernel, groups=dim,
                             padding_mode=padding_mode, rng=rng, dtype=dtype)
        self.se = SEBlock(dim, reduction, rng=rng, dtype=dtype) if se_enabled else None
        self.norm = LayerNormChannels(dim, dtype=dtype)
        self.pwconv1 = Conv2d(dim, 4 * dim, 1,
                              padding_mode=padding_mode, rng=rng, dtype=dtype)
        self.pwconv2 = Conv2d(4 * dim, dim, 1,
                              padding_mode=padding_mode, rng=rng, dtype=dtype)
        self.gamma = engine.Parameter(
            np.full(dim, layer_scale_init, dtype=dtype), "gamma")

    def __call__(self, x, factors=None):
        t = self.dwconv(x)
        if self.se is not None:
            t = self.se(t)
        t = self.norm(t)
        t = self.pwconv1(t)
        t = engine.gelu(t)
        t = self.pwconv2(t)
        t = engine.channel_scale(t, self.gamma)
        return drop_path(x, t, factors)


class DepthScale(Module):
    """Stage transition at constant resolution: normalize, then 3x3 conv
    into the wider channel count."""

    def __init__(self, in_channels, out_channels, *,
                 padding_mode=PaddingMode.GEOCYCLIC, rng=None, dtype=np.float32):
        self.norm = LayerNormChannels(in_channels, dtype=dtype)
        self.conv = Conv2d(in_channels, out_channels, 3,
                           padding_mode=padding_mode, rng=rng, dtype=dtype)

    def __call__(self, x):
        return self.conv(self.norm(x))
