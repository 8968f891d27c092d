"""Loss, decoupled-decay optimizer, cosine schedule, and the two-phase
training recipe: pretrain on one-day-ahead pairs, then fine-tune over
sub-daily lag-shifted copies of the same record at stepped-down rates.

Everything here is deterministic given the config seed: shuffle order,
batch slicing, and gradient reduction order are all fixed, so a rerun
reproduces the loss curve and the final weights exactly.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import suppress
from dataclasses import dataclass, field, replace

import numpy as np

from karina import engine
from karina.data import checked_lags
from karina.files import write_csv


class TrainingError(Exception):
    """Bad training configuration or a run that went non-finite."""


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 150
    weight_decay: float = 0.05
    batch_size: int = 16
    lr_min: float = 0.0
    seed: int = 0
    # loss-weighting switches; the caller turns them into the
    # loss_weights argument, since they need the data's grid and mask
    lat_weighted_loss: bool = False
    exclude_static_loss: bool = False

    def __post_init__(self):
        # lr == 0 is admitted as a degenerate rate: a zero-lr run must
        # leave parameters bit-identical, which is itself a useful check
        if self.lr < 0:
            raise TrainingError(f"lr must be nonnegative, got {self.lr}")
        if not self.weight_decay >= 0:
            raise TrainingError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if self.epochs < 1:
            raise TrainingError(f"epochs must be at least 1, got {self.epochs}")
        if not 0 <= self.lr_min <= self.lr:
            raise TrainingError(f"lr_min must sit in [0, lr], got {self.lr_min}")
        if self.batch_size < 1:
            raise TrainingError(f"batch_size must be positive, got {self.batch_size}")


@dataclass(frozen=True)
class FinetunePhase:
    lag_set: tuple
    lr: float

    def __post_init__(self):
        checked_lags(self.lag_set, TrainingError)
        if not 0 < self.lr < math.inf:
            raise TrainingError(f"phase lr must be positive and finite, got {self.lr}")


@dataclass
class EpochRecord:
    epoch: int
    step: int
    lr: float
    train_loss: float
    val_loss: float | None = None


@dataclass
class TrainReport:
    records: list = field(default_factory=list)

    @property
    def final_train_loss(self):
        return self.records[-1].train_loss if self.records else math.nan

    def to_csv(self, path):
        """epoch,step,lr,train_loss,val_loss; no wall-clock column, so a
        rerun from the same config writes byte-identical output."""
        write_csv(path, ("epoch", "step", "lr", "train_loss", "val_loss"),
                  [(r.epoch, r.step, r.lr, r.train_loss, r.val_loss) for r in self.records])


def l2_loss(pred, target, weights=None):
    """Mean squared difference; optionally a weighted mean.

    weights, when given, is a plain array broadcastable to the operand
    shape; the result is sum(w * d^2) / sum(w), which reduces to the
    unweighted mean for w = 1.
    """
    if pred.data.shape != target.data.shape:
        raise TrainingError(
            f"loss operands disagree: {pred.data.shape} vs {target.data.shape}"
        )
    d = engine.sub(pred, target)
    sq = engine.mul(d, d)
    if weights is None:
        return engine.mean_all(sq)
    w = np.broadcast_to(np.asarray(weights, dtype=pred.data.dtype), pred.data.shape)
    total = float(w.sum(dtype=np.float64))
    if total <= 0:
        raise TrainingError("loss weights must have positive mass")
    return engine.scale(engine.sum_all(engine.mul(sq, engine.Tensor(w))), 1.0 / total)


# Adam's moment decay rates and denominator floor
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class OptimizerState:
    """Per-parameter moment buffers keyed by parameter name."""

    def __init__(self):
        self.m = {}
        self.v = {}
        self.step_count = 0


def adamw_step(params, state, lr, weight_decay=0.05):
    """One decoupled-weight-decay Adam update, in place.

    Decay first (theta <- theta - lr*wd*theta), then the bias-corrected
    adaptive step from the accumulated gradients.
    """
    params = list(params)
    for p in params:
        if p.grad is None:
            raise TrainingError(f"parameter {p.name} has no gradient")
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise TrainingError("optimizer needs uniquely named parameters")

    b1, b2 = ADAM_BETAS
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, p in zip(names, params):
        g = p.grad
        dt = p.data.dtype.type
        if weight_decay:
            p.data *= dt(1.0 - lr * weight_decay)
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        else:
            v = state.v[name]
            if m.shape != p.data.shape:
                raise TrainingError(f"optimizer state shape mismatch for {name}")
        m = dt(b1) * m + dt(1.0 - b1) * g
        v = dt(b2) * v + dt(1.0 - b2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        mhat = m / dt(bc1)
        vhat = v / dt(bc2)
        p.data -= dt(lr) * mhat / (np.sqrt(vhat) + dt(ADAM_EPS))


def cosine_lr(step, total_steps, lr_max, lr_min=0.0):
    if total_steps == 0:
        raise TrainingError("cosine schedule needs at least one step of span")
    if not 0 <= step <= total_steps:
        raise TrainingError(f"step {step} outside [0, {total_steps}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * step / total_steps))


def _epoch_lr(cfg, epoch):
    # stepped per epoch; a single-epoch run sits at the peak rate
    if cfg.epochs == 1:
        return cfg.lr
    return cosine_lr(epoch, cfg.epochs - 1, cfg.lr, cfg.lr_min)


def evaluate_loss(model, pairs, batch_size=16, weights=None):
    """Mean l2 over a pair set, under engine.no_grad (inference)."""
    n = pairs.x.shape[0]
    if n == 0:
        raise TrainingError("empty evaluation set")
    total = 0.0
    with engine.no_grad():
        for start in range(0, n, batch_size):
            xb = pairs.x[start:start + batch_size]
            yb = pairs.y[start:start + batch_size]
            out = model.forward(xb)
            loss = l2_loss(out, engine.Tensor(yb), weights)
            total += loss.item() * xb.shape[0]
    return total / n


def _keep_freed_heap():
    """Have glibc keep up to 64 MiB of freed heap (mallopt M_TOP_PAD = -2)
    instead of returning it to the OS, for the rest of the process: as
    backward frees each graph, a BENCH step otherwise faulted its pages
    back in and took 20% longer.  Other C libraries are left alone."""
    with suppress(AttributeError, OSError, TypeError):
        ctypes.CDLL(None).mallopt(-2, 64 << 20)


def train(model, pairs, cfg, val_pairs=None, loss_weights=None):
    """Pretraining loop: shuffled epochs of one-step-ahead regression.

    pairs carries aligned arrays pairs.x and pairs.y of shape
    (N, C, H, W) in the model dtype.  Returns the per-epoch loss curve;
    the model is updated in place and the process keeps its freed heap
    (_keep_freed_heap).
    """
    n = int(pairs.x.shape[0])
    if n == 0:
        raise TrainingError("empty training set")
    if pairs.x.shape != pairs.y.shape:
        raise TrainingError(
            f"pair arrays disagree: {pairs.x.shape} vs {pairs.y.shape}"
        )
    _keep_freed_heap()
    state = OptimizerState()
    params = model.parameters()
    rng = np.random.default_rng(cfg.seed)
    report = TrainReport()
    global_step = 0
    for epoch in range(cfg.epochs):
        lr = _epoch_lr(cfg, epoch)
        order = rng.permutation(n)
        loss_sum = 0.0
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            xb = pairs.x[idx]
            yb = pairs.y[idx]
            try:
                out = model.forward(xb)
                loss = l2_loss(out, engine.Tensor(yb), loss_weights)
                engine.zero_grads(params)
                engine.backward(loss)
            except engine.NonFiniteError as err:
                raise TrainingError(
                    f"non-finite value at epoch {epoch} batch {bi}: {err}"
                ) from err
            adamw_step(params, state, lr, cfg.weight_decay)
            loss_sum += loss.item() * xb.shape[0]
            global_step += 1
        val = None
        if val_pairs is not None:
            val = evaluate_loss(model, val_pairs, cfg.batch_size, loss_weights)
        report.records.append(EpochRecord(
            epoch=epoch, step=global_step, lr=lr,
            train_loss=loss_sum / n, val_loss=val,
        ))
    return report


def finetune(model, source, cfg, phases, val_pairs=None, loss_weights=None):
    """Sequential lag-augmentation phases, each at its own rate.

    source must provide lag_pairs(lag_set) returning aligned pair
    arrays; lags the source cannot realize raise there.  Weights carry
    over from phase to phase; epoch numbering in the combined report
    continues across phases.
    """
    combined = TrainReport()
    epoch_base = 0
    step_base = 0
    for phase in phases:
        pairs = source.lag_pairs(phase.lag_set)
        phase_cfg = replace(cfg, lr=phase.lr, lr_min=min(cfg.lr_min, phase.lr))
        rep = train(model, pairs, phase_cfg,
                    val_pairs=val_pairs, loss_weights=loss_weights)
        for r in rep.records:
            combined.records.append(EpochRecord(
                epoch=epoch_base + r.epoch, step=step_base + r.step,
                lr=r.lr, train_loss=r.train_loss, val_loss=r.val_loss,
            ))
        epoch_base += phase_cfg.epochs
        step_base = combined.records[-1].step
    return combined
