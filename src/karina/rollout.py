"""Autoregressive inference and stability diagnostics.

The model steps on its own output in normalized space; designated
static channels (orography and any other boundary fields) are reset to
their initial values after every step, so they never drift.  Stored
steps are denormalized; the final normalized state is kept on the
series so a continuation reproduces a longer run bit for bit.

A blowup tripwire stops the run on the first non-finite value or on a
normalized-space standard deviation above 100 in any channel; the
series returned is the finite prefix with the failing step recorded.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from karina import engine
from karina.data import GridFile, denormalize
from karina.files import require_finite, write_csv
from karina.metrics import FIELD_AXES, latitude_weights, weighted_moments
from karina.padding import GridSpec

BLOWUP_STD = 100.0


class RolloutError(Exception):
    """Bad rollout request."""


def model_fingerprint(model):
    """Stable hex id of the exact parameter values."""
    digest = hashlib.sha256()
    for name, p in model.named_parameters():
        digest.update(name.encode("utf-8"))
        digest.update(p.data.tobytes())
    return digest.hexdigest()[:16]


@dataclass
class ForecastSeries:
    init_date: float
    steps: np.ndarray              # (lead, channel, lat, lon), denormalized
    channels: tuple
    final_state: np.ndarray        # last normalized state, for chaining
    step_means: np.ndarray         # (lead, channel), normalized space
    step_stds: np.ndarray
    step_mins: np.ndarray
    step_maxs: np.ndarray
    blowup_step: int | None = None

    @property
    def horizon_done(self):
        return self.steps.shape[0]

    @property
    def grid(self):
        return GridSpec.from_shape(self.steps.shape[-2], self.steps.shape[-1])

    def to_grid_file(self):
        """One time entry per lead, dated init_date + lead."""
        if self.horizon_done == 0:
            raise RolloutError("series holds no completed steps")
        leads = np.arange(1, self.horizon_done + 1, dtype=np.int64)
        return GridFile(
            channels=self.channels,
            dates=round(self.init_date) + leads,
            values=np.asarray(self.steps, dtype=np.float32),
        )


def rollout(model, init_state, horizon, stats, static_mask=None, init_date=0.0,
            init_field=None):
    """Step the model `horizon` times from a normalized initial state.

    init_state is (channel, lat, lon) in the model dtype; static_mask,
    when given, is a per-channel boolean array of channels to pin to
    their initial values after every step.  init_field, when given, is
    the init day's stored physical field; stored steps copy their pinned
    channels from it, since float32 denormalize(normalize(x)) is not x.
    The normalized state fed back to the model is unchanged by it.
    """
    if horizon < 1:
        raise RolloutError(f"horizon must be at least 1, got {horizon}")
    init_state = np.asarray(init_state)
    if init_state.ndim != 3:
        raise RolloutError(f"initial state must be (channel, lat, lon), got shape {init_state.shape}")
    c = init_state.shape[0]
    if c != len(stats.channels):
        raise RolloutError(f"{c} state channels, stats cover {len(stats.channels)}")
    if static_mask is not None:
        static_mask = np.asarray(static_mask, dtype=bool)
        if static_mask.shape != (c,):
            raise RolloutError(f"static mask shape {static_mask.shape} does not cover {c} channels")
    require_finite(init_state, RolloutError, "initial state", FIELD_AXES)

    grid = GridSpec.from_shape(init_state.shape[1], init_state.shape[2])
    w = latitude_weights(grid)[None, :, None]

    # each step is written in place, so a run holds its steps once
    steps = np.empty((horizon,) + init_state.shape, dtype=np.float32)
    means, stds, mins, maxs = np.empty((4, horizon, c))
    state = init_state.copy()
    blowup = None
    done = 0
    with engine.no_grad():
        for k in range(horizon):
            try:
                out = model.forward(state[None])
            except engine.NonFiniteError:
                blowup = k + 1
                break
            nxt = out.data[0].copy()
            if static_mask is not None:
                nxt[static_mask] = init_state[static_mask]
            x = nxt.astype(np.float64)
            mean, _, var = weighted_moments(x, w)
            std = np.sqrt(var)
            if np.any(std > BLOWUP_STD):
                blowup = k + 1
                break
            state = nxt
            steps[k] = denormalize(nxt, stats)
            if static_mask is not None and init_field is not None:
                steps[k, static_mask] = init_field[static_mask]
            means[k], stds[k] = mean, std
            mins[k], maxs[k] = x.min(axis=(-2, -1)), x.max(axis=(-2, -1))
            done = k + 1

    return ForecastSeries(
        init_date=float(init_date),
        steps=steps[:done],
        channels=tuple(stats.channels),
        final_state=state,
        step_means=means[:done],
        step_stds=stds[:done],
        step_mins=mins[:done],
        step_maxs=maxs[:done],
        blowup_step=blowup,
    )


def drift_rows(series):
    """(lead_days, channel, mean, std, min, max) per step per channel,
    in normalized space."""
    if series.horizon_done == 0:
        raise RolloutError("series holds no completed steps")
    return [(k + 1, name, series.step_means[k, c], series.step_stds[k, c],
             series.step_mins[k, c], series.step_maxs[k, c])
            for k in range(series.horizon_done) for c, name in enumerate(series.channels)]


def drift_report(series, path):
    """Deterministic per-step drift table."""
    write_csv(path, ("lead_days", "channel", "mean", "std", "min", "max"), drift_rows(series))
