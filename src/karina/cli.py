"""Command-line front end composing the library into runnable experiments.

Five commands: train, finetune, evaluate, rollout, ablate.  Every run is
driven by a flat key=value config (file plus --set overrides), writes a
resolved copy of that config next to its outputs, and draws all of its
randomness from the single `seed` key, so any run can be reproduced from
the resolved copy alone.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure
or an interrupt (Ctrl-C or SIGTERM), which also leaves a FAILED marker.
"""

import argparse
import os
import signal
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

import numpy as np

from .data import (
    MAX_DAY,
    DataError,
    FileSource,
    GridFile,
    SyntheticField,
    SyntheticSource,
    SyntheticSpec,
    compute_norm_stats,
    generate_synthetic,
    normalize,
    read_grid,
    require_daily_lags,
    static_channel_mask,
    write_grid,
)
from .config import format_text, parse_text, parse_value, type_name
from .files import write_csv, write_lines
from .metrics import (
    MetricsError,
    MetricSample,
    acc,
    fit_climatology,
    latitude_weights,
    metrics_to_csv,
    row_weights,
    spatial_mean,
    weighted_moments,
    weighted_rmse,
)
from .model import ModelConfig, ModelError, build, load_checkpoint, save_checkpoint
from .padding import PaddingError, PaddingMode, index_map
from .rollout import RolloutError, drift_report, model_fingerprint, rollout
from .training import (
    FinetunePhase,
    TrainConfig,
    TrainingError,
    finetune,
    train,
)


class CliError(Exception):
    """Configuration or input problem; maps to exit code 1."""


class UsageError(Exception):
    """Malformed command line; maps to exit code 1."""


# ---------------------------------------------------------------------------
# config schema

# dataclass fields that are not section keys: seed is the top-level key,
# n_days is the sum of the data splits, and a one-step forecast maps the
# data's channels onto themselves
_NOT_KEYS = ("seed", "n_days", "in_channels", "out_channels")

# the dataclass behind each section; every other field is a section key
SECTIONS = {"synth": SyntheticSpec, "model": ModelConfig, "train": TrainConfig}

# CLI defaults that differ from the dataclass defaults
_CLI_DEFAULTS = {
    "model.stage_dims": (8, 16),
    "model.depths": (1, 1),
    "synth.tilt_deg": 90.0,
}


def _section_fields(section):
    return [f for f in fields(SECTIONS[section]) if f.name not in _NOT_KEYS]


def _section_schema():
    out = {}
    for section in SECTIONS:
        for f in _section_fields(section):
            key = f"{section}.{f.name}"
            out[key] = (type_name(f), _CLI_DEFAULTS.get(key, f.default))
    return out


# key -> (CODEC type name, default)
SCHEMA = {
    "seed": ("int", 0),
    "data.path": ("str", ""),
    "data.train_days": ("int", 60),
    "data.val_days": ("int", 0),
    "data.test_days": ("int", 20),
    **_section_schema(),
    "finetune.checkpoint": ("str", ""),
    "finetune.phases": ("str", "0,12:0.005;0,6,12,18:0.0025;all:0.0001"),
    "eval.checkpoint": ("str", ""),
    "eval.model": ("str", "checkpoint"),
    "eval.leads": ("tuple", (1, 3, 5, 7)),
    "eval.acc": ("str", "auto"),
    "eval.harmonics": ("int", 2),
    "eval.weighted": ("bool", True),
    "eval.static_reset": ("bool", True),
    "rollout.checkpoint": ("str", ""),
    "rollout.horizon": ("int", 30),
    "rollout.init_day": ("int", -1),
    "rollout.static_reset": ("bool", True),
    "ablate.leads": ("tuple", (1, 3, 5, 7)),
    "ablate.include_circular": ("bool", False),
    "ablate.kernel_sweep": ("bool", False),
    "ablate.polar_rows": ("int", 5),
}
_TYPES = {key: kind for key, (kind, _) in SCHEMA.items()}


def default_config():
    return {key: default for key, (_, default) in SCHEMA.items()}


def parse_config_text(text, cfg=None, where="config"):
    """Apply key=value lines onto a config dict; '#' starts a comment."""
    cfg = default_config() if cfg is None else cfg
    cfg.update(parse_text(text, _TYPES, where, CliError))
    return cfg


def load_config(config_path=None, sets=(), seed=None):
    cfg = default_config()
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            raise CliError(f"cannot read config file {config_path}: {err}") from None
        parse_config_text(text, cfg, where=config_path)
    for item in sets:
        key, sep, raw = item.partition("=")
        if not sep:
            raise CliError(f"--set expects key=value, got {item!r}")
        key = key.strip()
        cfg[key] = parse_value(_TYPES, key, raw.strip(), "--set", CliError)
    if seed is not None:
        cfg["seed"] = int(seed)
    if cfg["seed"] < 0:
        raise CliError(f"seed must be non-negative, got {cfg['seed']}")
    return cfg


def resolved_text(cfg):
    return format_text(cfg, _TYPES)


# ---------------------------------------------------------------------------
# dataset assembly

@dataclass
class Bundle:
    """Loaded series split into contiguous train/val/test slices.

    stats and the static-channel mask come from the training slice only,
    so the held-out slices never leak into normalization.
    """

    gf: GridFile
    train: GridFile
    val: GridFile
    test: GridFile
    stats: object
    static_mask: np.ndarray
    spec: SyntheticSpec


def _slice_grid(gf, a, b):
    if b <= a:
        return None
    return GridFile(channels=gf.channels, dates=gf.dates[a:b], values=gf.values[a:b])


def _load_bundle(cfg):
    tr = cfg["data.train_days"]
    va = cfg["data.val_days"]
    te = cfg["data.test_days"]
    for key, v in (("data.train_days", tr), ("data.val_days", va), ("data.test_days", te)):
        if v < 0:
            raise CliError(f"{key} must be non-negative, got {v}")
    if tr < 2:
        raise CliError(f"data.train_days must be at least 2, got {tr}")
    if va == 1:
        raise CliError("data.val_days must be 0 or at least 2 (a pair needs two days)")
    path = cfg["data.path"]
    try:
        if path:
            gf = read_grid(path)
            spec = None
            # FileSource pairs each record with the next, and a lead of L
            # days is L records ahead
            gaps = np.flatnonzero(np.diff(gf.dates) != 1)
            if gaps.size:
                a, b = gf.dates[gaps[0]:gaps[0] + 2]
                raise DataError(f"day stamps must be consecutive, day {a} is followed by day {b}")
            if tr + va + te > gf.n_time:
                raise CliError(
                    f"splits need {tr + va + te} days, data.path holds {gf.n_time}"
                )
        else:
            spec = _section_config(cfg, "synth", n_days=tr + va + te, seed=cfg["seed"])
            gf = generate_synthetic(spec)
        gf.grid  # an odd longitude count fails here, before any output is written
    except (DataError, PaddingError) as err:
        raise CliError(f"data.path: {err}" if path else str(err)) from err
    train_gf = _slice_grid(gf, 0, tr)
    val_gf = _slice_grid(gf, tr, tr + va)
    test_gf = _slice_grid(gf, tr + va, tr + va + te)
    stats = compute_norm_stats(train_gf)
    return Bundle(
        gf=gf, train=train_gf, val=val_gf, test=test_gf,
        stats=stats, static_mask=static_channel_mask(train_gf), spec=spec,
    )


@contextmanager
def _checks(cfg, out_dir):
    """A command's checks: a library error raised inside is a CliError
    (exit 1, nothing written), and a clean exit writes config.resolved."""
    try:
        yield
    except (DataError, ModelError, PaddingError, TrainingError) as err:
        raise CliError(str(err)) from err
    write_lines(os.path.join(out_dir, "config.resolved"), resolved_text(cfg).splitlines())


def _section_config(cfg, section, **extra):
    """The section's dataclass from its keys plus the extra fields."""
    values = {f.name: cfg[f"{section}.{f.name}"] for f in _section_fields(section)}
    return SECTIONS[section](**values, **extra)


def _loss_weights(tcfg, bundle):
    w = None
    if tcfg.lat_weighted_loss:
        w = latitude_weights(bundle.train.grid).astype(np.float32)[:, None]
    if tcfg.exclude_static_loss:
        mask = (~bundle.static_mask).astype(np.float32)[:, None, None]
        if not mask.any():
            raise CliError("every channel is static; nothing is left to fit")
        w = mask if w is None else w * mask
    return w


def _fits_grid(model, bundle):
    """model, once the grid has rows for its widest pad (the table its first forward builds)."""
    k = max(p.data.shape[-1] for p in model.parameters() if p.data.ndim == 4)
    index_map(k // 2, bundle.gf.values.shape[-2:], PaddingMode.parse(model.config.padding_mode))
    return model


def _load_model(cfg, key, bundle):
    path = cfg[key]
    if not path:
        raise CliError(f"{key} is required")
    model = load_checkpoint(path, seed=cfg["seed"])
    c = len(bundle.gf.channels)
    if model.config.in_channels != c or model.config.out_channels != c:
        raise CliError(
            f"checkpoint maps {model.config.in_channels} -> "
            f"{model.config.out_channels} channels, data has {c}"
        )
    return _fits_grid(model, bundle)


# ---------------------------------------------------------------------------
# forecast scoring shared by evaluate and ablate

def _acc_usable_channels(test, stats, clim, weighted, leads):
    """Channels with real truth anomaly variance at every scorable
    valid date.  ACC is a spatial correlation: static or spatially
    uniform channels have no anomaly structure to correlate, so their
    ACC is undefined and they drop out of the report.  The floor is
    relative: anomaly spread below 1e-4 of the channel scale is
    float32 storage noise, not weather."""
    w = row_weights(test.grid, weighted)
    floor = (1e-4 * np.maximum(np.abs(stats.mean), stats.std)) ** 2
    usable = np.ones(len(test.channels), dtype=bool)
    for k in range(min(leads), test.n_time):
        anom = test.values[k].astype(np.float64) - clim.evaluate(float(test.dates[k]))
        _, _, var = weighted_moments(anom, w)
        usable &= var > floor
    return usable


def _check_test_slice(bundle, leads, polar_rows=0):
    """Reject a test slice that cannot score the leads and polar rows,
    before any output is written."""
    test = bundle.test
    if test is None:
        raise CliError("data.test_days must be positive to evaluate")
    if 2 * polar_rows > test.grid.n_lat:
        raise CliError(
            f"ablate.polar_rows {polar_rows} does not fit {test.grid.n_lat} rows"
        )
    if test.n_time <= max(leads):
        raise CliError(
            f"data.test_days ({test.n_time}) must exceed the largest lead ({max(leads)})"
        )


def _score_forecasts(bundle, leads, mode, model=None, static_reset=True,
                     weighted=True, clim=None, polar_rows=0):
    """(channel, lead, metric, value) rows: the mean per-channel scores over
    every admissible init date in the test slice, which _check_test_slice
    has passed.  mode is one of checkpoint, truth, persistence.

    Per channel and lead: rmse; acc for the channels whose ACC is defined,
    when clim is given; and rmse_polar{polar_rows}, the plain RMS error over
    the polar_rows rows nearest each pole, when polar_rows > 0.  The polar
    term is deliberately unweighted: cos(lat) weights would mute exactly the
    rows it exists to watch.
    """
    test = bundle.test
    grid = test.grid
    max_lead = max(leads)
    n_inits = test.n_time - max_lead
    z = normalize(test.values, bundle.stats) if mode == "checkpoint" else None
    static = bundle.static_mask if static_reset else None
    metrics = ["rmse"]
    if clim is not None:
        acc_mask = _acc_usable_channels(test, bundle.stats, clim, weighted, leads)
        if acc_mask.any():
            metrics.append("acc")
            clim_sub = replace(clim, coeffs=clim.coeffs[:, acc_mask])
    polar_metric = f"rmse_polar{polar_rows}"
    if polar_rows:
        metrics.append(polar_metric)
        polar = np.r_[0:polar_rows, grid.n_lat - polar_rows:grid.n_lat]
    sums = {(m, L): np.zeros(len(test.channels)) for m in metrics for L in leads}
    for i in range(n_inits):
        if mode == "truth":
            fields = test.values[i + 1:i + max_lead + 1]
        elif mode == "persistence":
            fields = np.broadcast_to(test.values[i], (max_lead,) + test.values[i].shape)
        else:
            series = rollout(model, z[i], max_lead, bundle.stats, static,
                             init_date=float(test.dates[i]), init_field=test.values[i])
            if series.blowup_step is not None:
                raise RolloutError(
                    f"model blew up at step {series.blowup_step} "
                    f"from init date {test.dates[i]}"
                )
            fields = series.steps
        for L in leads:
            forecast, truth = fields[L - 1], test.values[i + L]
            sample = MetricSample(forecast=forecast, truth=truth, grid=grid,
                                  valid_date=float(test.dates[i + L]))
            sums["rmse", L] += weighted_rmse(sample, weighted=weighted)
            if "acc" in metrics:
                sub = replace(sample, forecast=forecast[acc_mask], truth=truth[acc_mask])
                sums["acc", L][acc_mask] += acc(sub, clim_sub, weighted=weighted)
            if polar_rows:
                d = forecast[:, polar].astype(np.float64) - truth[:, polar]
                sums[polar_metric, L] += np.sqrt(spatial_mean(d * d))
    return [(name, L, m, sums[m, L][ci] / n_inits)
            for ci, name in enumerate(test.channels) for L in leads for m in metrics
            if m != "acc" or acc_mask[ci]]


def _validated_leads(cfg, key):
    leads = cfg[key]
    if any(l < 1 for l in leads):
        raise CliError(f"{key} must be positive day counts, got {leads}")
    if len(set(leads)) != len(leads):
        raise CliError(f"{key} must be unique, got {leads}")
    return tuple(sorted(leads))


# ---------------------------------------------------------------------------
# commands

def cmd_train(cfg, out_dir):
    with _checks(cfg, out_dir):
        bundle = _load_bundle(cfg)
        tcfg = _section_config(cfg, "train", seed=cfg["seed"])
        weights = _loss_weights(tcfg, bundle)
        c = len(bundle.gf.channels)
        mcfg = _section_config(cfg, "model", in_channels=c, out_channels=c)
        model = _fits_grid(build(mcfg, seed=cfg["seed"]), bundle)
    pairs = FileSource(bundle.train, bundle.stats).pairs()
    val_pairs = None
    if bundle.val is not None:
        val_pairs = FileSource(bundle.val, bundle.stats).pairs()
    report = train(model, pairs, tcfg, val_pairs=val_pairs, loss_weights=weights)
    save_checkpoint(model, os.path.join(out_dir, "checkpoint.krna"))
    report.to_csv(os.path.join(out_dir, "train_report.csv"))
    print(
        f"trained {model.param_count()} parameters for {tcfg.epochs} epochs "
        f"on {pairs.x.shape[0]} pairs; final loss {report.final_train_loss:.6g}; "
        f"model {model_fingerprint(model)}"
    )
    return 0


def _parse_phases(raw):
    phases = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        lags_s, sep, lr_s = part.rpartition(":")
        if not sep:
            raise CliError(
                f"finetune.phases segment {part!r} is not lags:lr"
            )
        try:
            if lags_s.strip() == "all":
                lags = tuple(range(24))
            else:
                lags = tuple(int(t) for t in lags_s.split(","))
            phases.append(FinetunePhase(lag_set=lags, lr=float(lr_s)))
        except (ValueError, TrainingError) as err:
            raise CliError(f"bad finetune.phases segment {part!r}: {err}") from None
    if not phases:
        raise CliError("finetune.phases is empty")
    return tuple(phases)


def cmd_finetune(cfg, out_dir):
    with _checks(cfg, out_dir):
        bundle = _load_bundle(cfg)
        model = _load_model(cfg, "finetune.checkpoint", bundle)
        phases = _parse_phases(cfg["finetune.phases"])
        tcfg = _section_config(cfg, "train", seed=cfg["seed"])
        weights = _loss_weights(tcfg, bundle)
        if bundle.spec is not None:
            # restrict the generator to the training window; the analytic
            # fields for those days are identical under the shorter spec
            train_spec = replace(bundle.spec, n_days=bundle.train.n_time)
            source = SyntheticSource(SyntheticField(train_spec), bundle.stats)
        else:
            require_daily_lags([lag for phase in phases for lag in phase.lag_set])
            source = FileSource(bundle.train, bundle.stats)
    val_pairs = None
    if bundle.val is not None:
        val_pairs = FileSource(bundle.val, bundle.stats).pairs()
    report = finetune(model, source, tcfg, phases=phases,
                      val_pairs=val_pairs, loss_weights=weights)
    save_checkpoint(model, os.path.join(out_dir, "checkpoint.krna"))
    report.to_csv(os.path.join(out_dir, "finetune_report.csv"))
    print(
        f"fine-tuned over {len(phases)} phases ({len(report.records)} epochs); "
        f"final loss {report.final_train_loss:.6g}; model {model_fingerprint(model)}"
    )
    return 0


def _fit_climatology(cfg, bundle):
    """Harmonic climatology from the training slice, or None.

    eval.acc: on = required (error when the slice cannot support a fit),
    off = skipped, auto = fitted when the slice is long enough.
    """
    mode = cfg["eval.acc"]
    if mode not in ("auto", "on", "off"):
        raise CliError(f"eval.acc must be auto, on, or off, got {mode!r}")
    if cfg["eval.harmonics"] < 0:
        raise CliError(f"eval.harmonics must be non-negative, got {cfg['eval.harmonics']}")
    if mode == "off":
        return None
    try:
        return fit_climatology(
            bundle.train.values,
            bundle.train.dates.astype(np.float64),
            n_harmonics=cfg["eval.harmonics"],
        )
    except MetricsError as err:
        if mode == "on":
            raise CliError(f"eval.acc=on but climatology fit failed: {err}") from err
        return None


def cmd_evaluate(cfg, out_dir):
    with _checks(cfg, out_dir):
        bundle = _load_bundle(cfg)
        mode = cfg["eval.model"]
        if mode not in ("checkpoint", "truth", "persistence"):
            raise CliError(
                f"eval.model must be checkpoint, truth, or persistence, got {mode!r}"
            )
        model = _load_model(cfg, "eval.checkpoint", bundle) if mode == "checkpoint" else None
        leads = _validated_leads(cfg, "eval.leads")
        clim = _fit_climatology(cfg, bundle)
        _check_test_slice(bundle, leads)
    rows = _score_forecasts(
        bundle, leads, mode, model=model,
        static_reset=cfg["eval.static_reset"], weighted=cfg["eval.weighted"],
        clim=clim,
    )
    metrics_to_csv(rows, os.path.join(out_dir, "metrics.csv"))
    baseline = _score_forecasts(bundle, leads, "persistence", static_reset=False,
                                weighted=cfg["eval.weighted"])
    metrics_to_csv(baseline, os.path.join(out_dir, "baseline.csv"))
    channels = bundle.test.channels
    rmse = {(name, L): v for name, L, metric, v in rows if metric == "rmse"}
    write_csv(os.path.join(out_dir, "rmse_by_lead.csv"), ("lead_days", *channels),
              [(L, *(rmse[name, L] for name in channels)) for L in leads])
    acc_note = "with acc" if any(row[2] == "acc" for row in rows) else "acc skipped"
    first = [rmse[name, leads[0]] for name in channels]
    print(
        f"scored {mode} over {bundle.test.n_time - max(leads)} init dates at leads "
        f"{','.join(str(l) for l in leads)} ({acc_note}); "
        f"lead-{leads[0]} mean rmse {float(np.mean(first)):.6g}"
    )
    return 0


def cmd_rollout(cfg, out_dir):
    with _checks(cfg, out_dir):
        bundle = _load_bundle(cfg)
        model = _load_model(cfg, "rollout.checkpoint", bundle)
        horizon = cfg["rollout.horizon"]
        if horizon < 1:
            raise CliError(f"rollout.horizon must be at least 1, got {horizon}")
        idx = cfg["rollout.init_day"]
        if idx < 0:
            idx += bundle.gf.n_time
        if not 0 <= idx < bundle.gf.n_time:
            raise CliError(
                f"rollout.init_day {cfg['rollout.init_day']} outside the "
                f"{bundle.gf.n_time}-day series"
            )
        end = int(bundle.gf.dates[idx]) + horizon
        if end > MAX_DAY:
            raise CliError(f"rollout.horizon {horizon} ends on day {end}, past day {MAX_DAY}, "
                           f"the last a .grid file can stamp")
        try:  # rollout holds every float32 step at once
            np.empty((horizon,) + bundle.gf.values.shape[1:], dtype=np.float32)
        except MemoryError:
            raise CliError(f"rollout.horizon {horizon}: its steps do not fit in memory") from None
    z0 = normalize(bundle.gf.values[idx], bundle.stats)
    static = bundle.static_mask if cfg["rollout.static_reset"] else None
    series = rollout(model, z0, horizon, bundle.stats, static,
                     init_date=float(bundle.gf.dates[idx]), init_field=bundle.gf.values[idx])
    if series.horizon_done == 0:
        raise RolloutError("model blew up on the first step; nothing to write")
    forecast = series.to_grid_file()
    for k in range(forecast.n_time):
        write_grid(_slice_grid(forecast, k, k + 1),
                   os.path.join(out_dir, f"forecast_{k + 1:03d}.grid"))
    drift_report(series, os.path.join(out_dir, "drift.csv"))
    if series.blowup_step is not None:
        write_lines(os.path.join(out_dir, "BLOWUP"),
                    [f"forecast blew up at step {series.blowup_step}"])
        print(
            f"warning: blew up at step {series.blowup_step}; "
            f"wrote the {series.horizon_done} finite steps"
        )
    print(
        f"rolled out {series.horizon_done} steps from day {bundle.gf.dates[idx]} "
        f"into {forecast.n_time} file(s); model {model_fingerprint(model)}"
    )
    return 0


ABLATION_VARIANTS = (
    ("plain", "zero", False),
    ("padded", "geocyclic", False),
    ("padded_senet", "geocyclic", True),
)


def cmd_ablate(cfg, out_dir):
    with _checks(cfg, out_dir):
        bundle = _load_bundle(cfg)
        leads = _validated_leads(cfg, "ablate.leads")
        polar_rows = cfg["ablate.polar_rows"]
        if polar_rows < 1:
            raise CliError(f"ablate.polar_rows must be positive, got {polar_rows}")
        _check_test_slice(bundle, leads, polar_rows)
        tcfg = _section_config(cfg, "train", seed=cfg["seed"])
        weights = _loss_weights(tcfg, bundle)
        c = len(bundle.gf.channels)
        base = _section_config(cfg, "model", in_channels=c, out_channels=c)
        runs = list(ABLATION_VARIANTS)
        if cfg["ablate.include_circular"]:
            runs.append(("circular_senet", "circular_zero_pole", True))

        def built(**changes):
            return _fits_grid(build(replace(base, **changes), seed=cfg["seed"]), bundle)

        variants = [(tag, built(padding_mode=mode, se_enabled=se)) for tag, mode, se in runs]
        kernels = (3, 5, 7) if cfg["ablate.kernel_sweep"] else ()
        sweep = [(str(k), built(stem_kernel=k, padding_mode="geocyclic", se_enabled=True))
                 for k in kernels]
    pairs = FileSource(bundle.train, bundle.stats).pairs()

    def train_and_score(runs):
        """(tag, channel, lead, metric, value) rows of each run, in order."""
        rows = []
        for tag, model in runs:
            train(model, pairs, tcfg, loss_weights=weights)
            rows += [(tag, *row) for row in _score_forecasts(
                bundle, leads, "checkpoint", model=model, polar_rows=polar_rows)]
        return rows

    rows = train_and_score(variants)
    metrics_to_csv(rows, os.path.join(out_dir, "ablation.csv"), "variant,channel")
    if sweep:
        metrics_to_csv(train_and_score(sweep), os.path.join(out_dir, "kernel_sweep.csv"),
                       "kernel,channel")

    # a variant's first rmse row at the probe lead is its first channel's
    probe = 3 if 3 in leads else leads[0]
    day3 = {}
    for tag, _, lead, metric, value in rows:
        if lead == probe and metric == "rmse":
            day3.setdefault(tag, float(value))
    ordering = " ".join(f"{tag}={day3[tag]:.6g}" for tag, _ in variants)
    print(f"ablation over {len(variants)} variants, {tcfg.epochs} epochs each; "
          f"first-channel rmse: {ordering}")
    return 0


# ---------------------------------------------------------------------------
# entry point

COMMANDS = {
    "train": cmd_train,
    "finetune": cmd_finetune,
    "evaluate": cmd_evaluate,
    "rollout": cmd_rollout,
    "ablate": cmd_ablate,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="karina", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    return parser


def _interrupt(signum, frame):
    raise KeyboardInterrupt


@contextmanager
def _sigterm_interrupts():
    """Inside the block SIGTERM raises KeyboardInterrupt, as Ctrl-C does.
    Only the main thread may set a handler; the old one comes back on
    exit, so a caller that runs main in process keeps its own."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    prev = signal.signal(signal.SIGTERM, _interrupt)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, prev)


def _failed(out_dir, message):
    write_lines(os.path.join(out_dir, "FAILED"), [message])
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    out_dir = args.out
    try:
        cfg = load_config(args.config, args.set, args.seed)
        os.makedirs(out_dir, exist_ok=True)
    except (CliError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    try:
        with _sigterm_interrupts():
            return COMMANDS[args.command](cfg, out_dir)
    except CliError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return _failed(out_dir, "interrupted")
    except Exception as err:  # noqa: BLE001 - boundary: report, flag, exit 2
        return _failed(out_dir, f"{err}")


if __name__ == "__main__":
    sys.exit(main())
