"""Model assembly and checkpointing.

The network keeps full spatial resolution end to end: a stem conv lifts
input channels onto the first stage width, stages chain residual blocks
with norm+conv transitions where the width changes, and a final 3x3 plus
1x1 head drop back onto output channels.  No pooling, no striding; depth
and width carry all the capacity.

Checkpoints are a single binary file: magic, version, the canonical
config text, then each parameter as name + extents + raw little-endian
float32.  Loading rebuilds the model from the embedded config and fills
parameters by name, so a checkpoint is self-describing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from karina import engine
from karina.config import field_types, format_text, parse_text
from karina.files import RecordReader, atomic_open, require_finite, write_str, write_u32
from karina.layers import Conv2d, ConvNextBlock, DepthScale, LayerNormChannels, Module
from karina.padding import PaddingError, PaddingMode

CHECKPOINT_MAGIC = b"KRNA"
CHECKPOINT_VERSION = 1


class ModelError(Exception):
    """Invalid configuration, input, or checkpoint."""


@dataclass(frozen=True)
class ModelConfig:
    in_channels: int = 67
    out_channels: int = 67
    stage_dims: tuple = (96, 192, 384, 768)
    depths: tuple = (3, 3, 9, 3)
    stem_kernel: int = 3
    padding_mode: str = "geocyclic"
    se_enabled: bool = True
    reduction_ratio: int = 4
    layer_scale_init: float = 1e-6
    drop_path_rate: float = 0.0

    def __post_init__(self):
        if self.in_channels < 1:
            raise ModelError(f"in_channels must be positive, got {self.in_channels}")
        if self.out_channels < 1:
            raise ModelError(f"out_channels must be positive, got {self.out_channels}")
        if not self.stage_dims:
            raise ModelError("stage_dims must not be empty")
        if any(int(d) < 1 for d in self.stage_dims):
            raise ModelError(f"stage_dims must be positive, got {self.stage_dims}")
        if len(self.depths) != len(self.stage_dims):
            raise ModelError(
                f"depths has {len(self.depths)} entries for {len(self.stage_dims)} stages"
            )
        if any(int(d) < 1 for d in self.depths):
            raise ModelError(f"every stage needs at least one block, got depths {self.depths}")
        if self.stem_kernel < 1 or self.stem_kernel % 2 == 0:
            raise ModelError(f"stem_kernel must be odd and positive, got {self.stem_kernel}")
        try:
            PaddingMode.parse(self.padding_mode)
        except PaddingError as err:
            raise ModelError(str(err)) from None
        if self.reduction_ratio < 1:
            raise ModelError(f"reduction_ratio must be positive, got {self.reduction_ratio}")
        if self.se_enabled:
            for d in self.stage_dims:
                if d % self.reduction_ratio:
                    raise ModelError(
                        f"reduction_ratio {self.reduction_ratio} must divide stage dim {d}"
                    )
        if self.layer_scale_init < 0:
            raise ModelError(f"layer_scale_init must be non-negative, got {self.layer_scale_init}")
        if not 0.0 <= self.drop_path_rate < 1.0:
            raise ModelError(f"drop_path_rate must sit in [0, 1), got {self.drop_path_rate}")

    def to_text(self):
        """Canonical key=value lines, sorted by key; round-trips exactly."""
        return format_text(vars(self), field_types(type(self)))

    @classmethod
    def from_text(cls, text):
        got = parse_text(text, field_types(cls), "checkpoint config", ModelError)
        return cls(**got)


class Stem(Module):
    def __init__(self, in_channels, dim, kernel, mode, rng, dtype):
        self.conv = Conv2d(in_channels, dim, kernel, padding_mode=mode, rng=rng, dtype=dtype)
        self.norm = LayerNormChannels(dim, dtype=dtype)

    def __call__(self, x):
        return self.norm(self.conv(x))


class Stage(Module):
    def __init__(self, transition, blocks):
        self.transition = transition
        self.blocks = blocks


class KarinaModel(Module):
    """Same-resolution forecast network over (batch, channel, lat, lon) arrays."""

    def __init__(self, config, seed=0, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype).type
        mode = PaddingMode.parse(config.padding_mode)
        rng = np.random.default_rng([int(seed), 0])
        self._droppath_rng = np.random.default_rng([int(seed), 1])

        dims = tuple(int(d) for d in config.stage_dims)
        self.stem = Stem(config.in_channels, dims[0], config.stem_kernel, mode, rng, dtype)
        stages = []
        prev = dims[0]
        for i, (dim, depth) in enumerate(zip(dims, config.depths)):
            transition = None
            if i > 0 and dim != prev:
                transition = DepthScale(prev, dim, padding_mode=mode, rng=rng, dtype=dtype)
            blocks = [
                ConvNextBlock(
                    dim,
                    se_enabled=config.se_enabled,
                    reduction=config.reduction_ratio,
                    layer_scale_init=config.layer_scale_init,
                    padding_mode=mode,
                    rng=rng,
                    dtype=dtype,
                )
                for _ in range(int(depth))
            ]
            stages.append(Stage(transition, blocks))
            prev = dim
        self.stages = stages
        self.final = Conv2d(dims[-1], dims[-1], 3, padding_mode=mode, rng=rng, dtype=dtype)
        self.head = Conv2d(dims[-1], config.out_channels, 1, padding_mode=mode, rng=rng, dtype=dtype)
        self.assign_names()

    @property
    def mode(self):
        """'train' when the engine records (a training forward), else 'eval'."""
        return "train" if engine.recording() else "eval"

    def param_count(self):
        return sum(p.data.size for p in self.parameters())

    def forward(self, x):
        """Forecast for a (B, C, H, W) numpy array, cast to the model dtype.

        A forward the engine records trains: above drop_path_rate 0 it
        draws every block's per-sample drop factors, one row per block.
        """
        x = engine.Tensor(np.asarray(x, dtype=self.dtype))
        if x.data.ndim != 4:
            raise ModelError(f"input must be (B,C,H,W), got {x.data.shape}")
        if x.data.shape[-3] != self.config.in_channels:
            raise ModelError(
                f"input has {x.data.shape[-3]} channels, model expects {self.config.in_channels}"
            )
        n_blocks = sum(self.config.depths)
        rate = self.config.drop_path_rate
        factors = [None] * n_blocks
        if rate > 0.0 and engine.recording():
            keep = self._droppath_rng.random((n_blocks, x.data.shape[0])) >= rate
            factors = keep.astype(self.dtype) / (1.0 - rate)
        rows = iter(factors)
        t = self.stem(x)
        for stage in self.stages:
            if stage.transition is not None:
                t = stage.transition(t)
            for block in stage.blocks:
                t = block(t, next(rows))
        t = self.final(t)
        t = self.head(t)
        return t

    __call__ = forward


def build(config, seed=0, dtype=np.float32):
    """Construct a model from a ModelConfig."""
    return KarinaModel(config, seed=seed, dtype=dtype)


def save_checkpoint(model, path):
    """Write config text plus every parameter as raw little-endian float32."""
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        write_u32(fh, CHECKPOINT_VERSION)
        write_str(fh, model.config.to_text())
        named = list(model.named_parameters())
        write_u32(fh, len(named))
        for name, p in named:
            write_str(fh, name)
            write_u32(fh, p.data.ndim, *p.data.shape)
            values = np.ascontiguousarray(p.data, dtype="<f4")
            require_finite(values, ModelError, f"{name} data")
            fh.write(values.tobytes())


def _read_checkpoint(fh):
    """(config, name -> float32 values) from an open checkpoint."""
    rec = RecordReader(fh, ModelError)
    magic = rec.bytes(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise ModelError(f"not a model checkpoint (magic {magic!r})")
    (version,) = rec.u32(1, "version")
    if version != CHECKPOINT_VERSION:
        raise ModelError(
            f"checkpoint version {version} unsupported (expected {CHECKPOINT_VERSION})"
        )
    config = ModelConfig.from_text(rec.text("checkpoint config"))
    (n_params,) = rec.u32(1, "parameter count")
    stored = {}
    for _ in range(n_params):
        name = rec.text("parameter name")
        if name in stored:
            raise ModelError(f"checkpoint repeats parameter name {name!r}")
        (rank,) = rec.u32(1, f"{name} rank")
        shape = rec.u32(rank, f"{name} extents")
        stored[name] = rec.f32(shape, f"{name} data")
    rec.end()
    return config, stored


def load_checkpoint(path):
    """Rebuild the float32 model a checkpoint describes and fill its
    parameters.  An unreadable path raises ModelError naming it."""
    try:
        with open(path, "rb") as fh:
            config, stored = _read_checkpoint(fh)
    except OSError as err:
        raise ModelError(f"cannot read checkpoint {path}: {err}") from None
    model = KarinaModel(config)
    model_named = dict(model.named_parameters())
    missing = sorted(set(model_named) - set(stored))
    extra = sorted(set(stored) - set(model_named))
    if missing or extra:
        raise ModelError(
            f"checkpoint parameter names disagree with config: missing {missing[:3]}, "
            f"unexpected {extra[:3]}"
        )
    for name, p in model_named.items():
        values = stored[name]
        if values.shape != p.data.shape:
            raise ModelError(
                f"checkpoint parameter {name} has shape {values.shape}, model wants {p.data.shape}"
            )
        p.data[...] = values
    return model

