"""The benchmark's workloads: inputs from the seed, command sequences, checks.

Every command runs in-process through `karina.cli.main`, the function
the `karina` script calls.  One iteration runs a workload's command
sequence once; a run repeats iterations until its time is up and reports
medians over them.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass

import numpy as np

from karina import cli, data, model, padding, rollout, training

import tracing

# The acceptance BENCH config of tests/test_acceptance.py: a tilt-90
# pole-crossing field on 16x32, stage dims 8,16, batch 4.
BENCH = {
    "synth.n_lat": 16, "synth.n_lon": 32, "synth.tilt_deg": 90.0,
    "synth.noise": 0.02, "synth.blob_width_deg": 25.0,
    "synth.speed_deg_per_day": 22.5, "data.train_days": 300,
    "data.val_days": 0, "data.test_days": 60, "train.epochs": 30,
    "train.batch_size": 4, "train.lr": 0.002,
}
FINETUNE_PHASES = "0,12:0.005"
LEAD = 3  # the lead whose RMSE is reported


@dataclass(frozen=True)
class Sizes:
    """Shapes and lengths of one workload iteration.

    The toy runs shorten BENCH (30 epochs over 300 days) to one epoch
    over 100 days, so a run repeats the command sequence several times
    within its measured seconds; the step shape is BENCH's.  The file
    grid holds at least 731 training days, so the climatology fit and
    ACC run.
    """

    toy_lat: int = 16
    toy_lon: int = 32
    train_days: int = 100
    test_days: int = 20
    epochs: int = 1
    file_lat: int = 64
    file_lon: int = 128
    file_days: int = 800
    file_test_days: int = 20
    horizon: int = 30


# tiny shapes for the self-test; 12 rows keep the 5 polar rows per pole
TINY = Sizes(toy_lat=12, toy_lon=24, train_days=12, test_days=9,
             file_lat=12, file_lon=24, file_days=745, file_test_days=9,
             horizon=3)


class CheckError(Exception):
    """An output of a command is missing, incomplete or not finite."""


def _sets(pairs):
    out = []
    for key, value in pairs.items():
        out += ["--set", f"{key}={value}"]
    return out


def _toy_config(sizes):
    cfg = dict(BENCH)
    cfg.update({
        "synth.n_lat": sizes.toy_lat, "synth.n_lon": sizes.toy_lon,
        "data.train_days": sizes.train_days, "data.test_days": sizes.test_days,
        "train.epochs": sizes.epochs,
    })
    return cfg


def _spec(seed, n_days, n_lat, n_lon):
    return data.SyntheticSpec(
        n_days=n_days, seed=seed, n_lat=n_lat, n_lon=n_lon,
        tilt_deg=BENCH["synth.tilt_deg"], noise=BENCH["synth.noise"],
        blob_width_deg=BENCH["synth.blob_width_deg"],
        speed_deg_per_day=BENCH["synth.speed_deg_per_day"],
    )


# ---------------------------------------------------------------------------
# output checks; each returns what the run reports about its outputs


def _read_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2:
        raise CheckError(f"{os.path.basename(path)} holds no rows")
    return [line.split(",") for line in lines[1:]]


def _finite(value, what):
    v = float(value)
    if not math.isfinite(v):
        raise CheckError(f"{what} is not finite: {value}")
    return v


def _check_report(out_dir, name, n_rows):
    rows = _read_rows(os.path.join(out_dir, name))
    if len(rows) != n_rows:
        raise CheckError(f"{name} holds {len(rows)} epochs, expected {n_rows}")
    return _finite(rows[-1][3], f"{name} loss")


def _checkpoint_id(path):
    return rollout.model_fingerprint(model.load_checkpoint(path))


def check_train(out_dir, sizes):
    loss = _check_report(out_dir, "train_report.csv", sizes.epochs)
    return {"digest": _checkpoint_id(os.path.join(out_dir, "checkpoint.krna")),
            "final_loss": loss}


def check_finetune(out_dir, sizes):
    loss = _check_report(out_dir, "finetune_report.csv", sizes.epochs)
    return {"digest": _checkpoint_id(os.path.join(out_dir, "checkpoint.krna")),
            "final_loss": loss}


def check_evaluate(out_dir, sizes):
    leads = cli.SCHEMA["eval.leads"][1]
    rmse, n_acc, day3 = {}, 0, []
    for channel, lead, metric, value in _read_rows(os.path.join(out_dir, "metrics.csv")):
        v = _finite(value, f"{metric} {channel} lead {lead}")
        if metric == "rmse":
            rmse[(channel, int(lead))] = v
            if int(lead) == LEAD:
                day3.append(v)
        elif metric == "acc":
            n_acc += 1
    channels = {c for c, _ in rmse}
    if len(rmse) != len(channels) * len(leads) or not channels:
        raise CheckError(f"metrics.csv holds {len(rmse)} rmse rows")
    if n_acc == 0:
        raise CheckError("metrics.csv holds no acc rows")
    _read_rows(os.path.join(out_dir, "baseline.csv"))
    return {"rmse_day3": float(np.mean(day3))}


def check_rollout(out_dir, sizes):
    if os.path.exists(os.path.join(out_dir, "BLOWUP")):
        raise CheckError("rollout blew up")
    for k in range(1, sizes.horizon + 1):
        gf = data.read_grid(os.path.join(out_dir, f"forecast_{k:03d}.grid"))
        if gf.n_time != 1 or not np.isfinite(gf.values).all():
            raise CheckError(f"forecast_{k:03d}.grid is not one finite step")
    extra = os.path.join(out_dir, f"forecast_{sizes.horizon + 1:03d}.grid")
    if os.path.exists(extra):
        raise CheckError("rollout wrote more steps than asked")
    _read_rows(os.path.join(out_dir, "drift.csv"))
    return {}


def check_ablate(out_dir, sizes):
    path = os.path.join(out_dir, "ablation.csv")
    leads = cli.SCHEMA["ablate.leads"][1]
    rmse, day3 = {}, []
    for variant, channel, lead, metric, value in _read_rows(path):
        v = _finite(value, f"{variant} {metric} {channel} lead {lead}")
        if metric == "rmse":
            rmse.setdefault(variant, set()).add((channel, int(lead)))
            if variant == "padded_senet" and int(lead) == LEAD:
                day3.append(v)
    variants = [v[0] for v in cli.ABLATION_VARIANTS] + ["circular_senet"]
    for variant in variants:
        cells = rmse.get(variant, set())
        if not cells or len(cells) != len({c for c, _ in cells}) * len(leads):
            raise CheckError(f"ablation.csv is incomplete for {variant}")
    if set(rmse) != set(variants):
        raise CheckError(f"ablation.csv variants {sorted(rmse)}")
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()[:16]
    return {"digest": digest, "rmse_day3": float(np.mean(day3))}


# ---------------------------------------------------------------------------
# inputs made from the seed, outside timed runs


def _make_forecast_inputs(seed, sizes, folder):
    """Write the GFLD field and train its checkpoint on the toy grid.

    Runs in a child process (make_inputs.py) so that its memory stays
    out of the workload process's peak RSS.  The manifest is written
    last; a folder without one is incomplete.
    """
    spec = _spec(seed, sizes.file_days, sizes.file_lat, sizes.file_lon)
    gf = data.generate_synthetic(spec)
    grid_path = os.path.join(folder, "field.grid")
    data.write_grid(gf, grid_path)
    grid_bytes = data.grid_file_size(gf)
    if os.path.getsize(grid_path) != grid_bytes:
        raise CheckError("written field size disagrees with grid_file_size")
    toy = data.generate_synthetic(
        _spec(seed, sizes.train_days, sizes.toy_lat, sizes.toy_lon))
    pairs = data.FileSource(toy, data.compute_norm_stats(toy)).pairs()
    net = model.build(model.ModelConfig(
        in_channels=len(toy.channels), out_channels=len(toy.channels),
        stage_dims=cli.SCHEMA["model.stage_dims"][1],
        depths=cli.SCHEMA["model.depths"][1],
        stem_kernel=cli.SCHEMA["model.stem_kernel"][1]), seed=seed)
    report = training.train(net, pairs, training.TrainConfig(
        lr=BENCH["train.lr"], epochs=sizes.epochs,
        batch_size=BENCH["train.batch_size"], seed=seed))
    model.save_checkpoint(net, os.path.join(folder, "model.krna"))
    manifest = {"grid_bytes": grid_bytes, "fingerprint": rollout.model_fingerprint(net),
                "final_loss": report.final_train_loss}
    tmp = os.path.join(folder, "manifest.json.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    os.replace(tmp, os.path.join(folder, "manifest.json"))


def _cached_inputs(folder):
    """The manifest of a complete, intact input folder, else None."""
    try:
        with open(os.path.join(folder, "manifest.json"), "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if os.path.getsize(os.path.join(folder, "field.grid")) != manifest["grid_bytes"]:
            return None
        if _checkpoint_id(os.path.join(folder, "model.krna")) != manifest["fingerprint"]:
            return None
    except (OSError, ValueError, KeyError, model.ModelError):
        return None
    return manifest


KEEP_INPUTS = 3  # cached seeds kept; each forecast_file field is ~105 MB


def forecast_inputs(seed, sizes, work):
    base = os.path.join(work, "inputs")
    key = hashlib.sha256(json.dumps(asdict(sizes), sort_keys=True).encode()).hexdigest()[:12]
    folder = os.path.join(base, f"forecast-seed{seed}-{key}")
    manifest = _cached_inputs(folder)
    if manifest is None:
        shutil.rmtree(folder, ignore_errors=True)
        os.makedirs(folder)
        # subprocess.run waits for the child on every path out, and
        # kills it first if this process is interrupted
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "make_inputs.py")
        done = subprocess.run([sys.executable, script, str(seed), folder,
                               json.dumps(asdict(sizes))], check=False)
        if done.returncode != 0:
            raise RuntimeError(f"input generation exited with {done.returncode}")
        manifest = _cached_inputs(folder)
        if manifest is None:
            raise RuntimeError("generated inputs failed their own check")
    os.utime(folder)
    others = sorted((os.path.join(base, d) for d in os.listdir(base)),
                    key=os.path.getmtime, reverse=True)
    for old in others[KEEP_INPUTS:]:
        shutil.rmtree(old, ignore_errors=True)
    manifest.update(grid=os.path.join(folder, "field.grid"),
                    checkpoint=os.path.join(folder, "model.krna"))
    return manifest


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple
    check: object  # (out_dir, sizes) -> dict of reported outputs


@dataclass(frozen=True)
class Plan:
    commands: tuple
    rate_span: str      # span whose measure counts samples for samples_per_s
    outputs: dict       # reported outputs known before the run


def plan_train_toy(seed, sizes, work, runs):
    toy = _toy_config(sizes)
    ckpt = os.path.join(runs, "train", "checkpoint.krna")
    return Plan((
        Command("train", ("train", *_sets(toy)), check_train),
        Command("finetune", ("finetune", *_sets(toy), *_sets({
            "finetune.checkpoint": ckpt, "finetune.phases": FINETUNE_PHASES})),
            check_finetune),
    ), "training.train", {})


def plan_forecast_file(seed, sizes, work, runs):
    inputs = forecast_inputs(seed, sizes, work)
    file_cfg = {
        "data.path": inputs["grid"],
        "data.train_days": sizes.file_days - sizes.file_test_days,
        "data.test_days": sizes.file_test_days,
    }
    return Plan((
        Command("evaluate", ("evaluate", *_sets(file_cfg), *_sets({
            "eval.checkpoint": inputs["checkpoint"], "eval.acc": "on"})),
            check_evaluate),
        Command("rollout", ("rollout", *_sets(file_cfg), *_sets({
            "rollout.checkpoint": inputs["checkpoint"],
            "rollout.horizon": sizes.horizon})), check_rollout),
    ), "rollout.rollout", {"digest": inputs["fingerprint"],
                           "final_loss": inputs["final_loss"]})


def plan_ablate_toy(seed, sizes, work, runs):
    return Plan((
        Command("ablate", ("ablate", *_sets(_toy_config(sizes)),
                           "--set", "ablate.include_circular=true"), check_ablate),
    ), "training.train", {})


WORKLOADS = {
    "train_toy": plan_train_toy,
    "forecast_file": plan_forecast_file,
    "ablate_toy": plan_ablate_toy,
}


# ---------------------------------------------------------------------------
# running


def run_command(cmd, seed, out_dir):
    """Run one command; returns (seconds, error).

    error is None when the command exited 0 and left no FAILED marker.
    Nothing it raises escapes: a failure is reported, not fatal.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [*cmd.argv, "--out", out_dir, "--seed", str(seed)]
    padding._TABLE_CACHE.clear()  # each command builds its tables, as a fresh process does
    captured = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
    except Exception:  # noqa: BLE001 - a crash is one failed command
        return time.perf_counter() - started, traceback.format_exc()
    seconds = time.perf_counter() - started
    if code != 0:
        return seconds, f"exit code {code}"
    if os.path.exists(os.path.join(out_dir, "FAILED")):
        return seconds, "FAILED marker left"
    return seconds, None


def check_command(cmd, out_dir, sizes):
    """Check one command's outputs; returns (reported outputs, error)."""
    try:
        return cmd.check(out_dir, sizes), None
    except Exception as err:  # noqa: BLE001 - a broken output is one failed command
        return {}, f"output check: {type(err).__name__}: {err}"


@dataclass
class Iteration:
    traced: bool
    wall_s: float
    setup_s: float
    samples: float
    sample_s: float
    attempted: int
    failed: int
    outputs: dict
    window: object


def run_iteration(plan, seed, sizes, runs, tracer, traced):
    """Run the command sequence once, then check its outputs untraced."""
    tracer.install(full=traced)
    lo = len(tracer.spans)
    wall, errors = 0.0, []
    try:
        for cmd in plan.commands:
            seconds, error = run_command(cmd, seed, os.path.join(runs, cmd.name))
            wall += seconds
            errors.append(error)
    finally:
        tracer.uninstall()
    failed, outputs = 0, dict(plan.outputs)
    for cmd, error in zip(plan.commands, errors):
        if error is None:
            out, error = check_command(cmd, os.path.join(runs, cmd.name), sizes)
            outputs.update(out)
        if error is not None:
            failed += 1
            print(f"perfbench: {cmd.name} failed: {error}", file=sys.stderr)
    win = tracing.Window(tracer.spans, lo, len(tracer.spans))
    return Iteration(
        traced=traced, wall_s=wall, setup_s=win.setup_s(),
        samples=win.total(plan.rate_span), sample_s=win.ms(plan.rate_span) / 1e3,
        attempted=len(plan.commands), failed=failed, outputs=outputs, window=win,
    )


def run_workload(name, seed, seconds, trace, sizes, work, plan=None):
    """Repeat the workload until `seconds` have passed; with trace,
    alternate untraced and traced iterations, at least one of each."""
    runs = os.path.join(work, "runs", name)
    shutil.rmtree(runs, ignore_errors=True)
    os.makedirs(runs)
    if plan is None:
        plan = WORKLOADS[name](seed, sizes, work, runs)
    tracer = tracing.Tracer()
    iterations = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(iterations) % 2 == 1
        iterations.append(run_iteration(plan, seed, sizes, runs, tracer, traced))
        if time.perf_counter() >= deadline and (not trace or len(iterations) >= 2):
            break
    digests = {it.outputs.get("digest") for it in iterations if not it.failed}
    if len(digests) > 1:
        print(f"perfbench: outputs differ between iterations of one seed: {sorted(digests)}",
              file=sys.stderr)
        for it in iterations:
            it.failed = max(it.failed, 1)
    return plan, tracer, iterations


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "samples_per_s": "1/s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = dict(tracing.LAYER_UNITS, **{"output.final_loss": "1",
                                               "output.rmse_day3": "1"})


def end_to_end(iterations):
    ok = [it for it in iterations if not it.traced and it.sample_s > 0]
    if not ok:
        return None
    med = statistics.median
    return {
        "setup_s": med(it.setup_s for it in ok),
        "wall_s": med(it.wall_s for it in ok),
        "samples_per_s": med(it.samples / it.sample_s for it in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(iterations):
    """Medians over traced iterations; needs one untraced iteration too."""
    traced = [it for it in iterations if it.traced]
    plain = [it for it in iterations if not it.traced]
    med = statistics.median
    rows = [tracing.layer_metrics(it.window) for it in traced]
    out = {name: med(r[name] for r in rows) for name in rows[0]}
    out["trace.overhead"] = (med(it.wall_s for it in traced)
                             / med(it.wall_s for it in plain))
    outputs = iterations[0].outputs
    out["output.final_loss"] = outputs.get("final_loss", 0.0)
    out["output.rmse_day3"] = outputs.get("rmse_day3", 0.0)
    return out


def module_table(iterations):
    """Median self ms per module over traced iterations, as printable lines."""
    traced = [it.window.module_self_ms() for it in iterations if it.traced]
    if not traced:
        return []
    med = {m: statistics.median(t[m] for t in traced) for m in tracing.MODULES}
    total = sum(med.values()) or 1.0
    lines = [f"{'module':<10} {'self ms':>10} {'share':>7}"]
    for m in sorted(med, key=med.get, reverse=True):
        lines.append(f"{m:<10} {med[m]:>10.1f} {100 * med[m] / total:>6.1f}%")
    return lines
