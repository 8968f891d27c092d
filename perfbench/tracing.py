"""Spans around calls into karina's public functions, taken from outside.

Each probed function is replaced, at the module or class attribute its
callers look up, by a wrapper that records one span: name, start, end,
parent span and an optional measure taken from the call's arguments or
result.  `cli` imports names directly (`from .training import train`),
so a function is wrapped at every attribute that holds it, and all of
them share one wrapper.  Nothing under `src/` changes.

Two probe sets exist.  The coarse set (set-up calls, `train`, `rollout`
and each CLI command) is a few dozen calls per workload run and is on
for every run: it is how `setup_s` and `samples_per_s` are measured.
The full set adds every public op, layer and helper and is on only in
traced iterations; their wall time against untraced iterations of the
same run gives `trace.overhead`.
"""

import functools
import os
import time

from karina import cli, data, engine, layers, metrics, model, padding, rollout, training

# the calls a command makes before its first step; their wall time is setup_s
SETUP_SPANS = (
    "data.generate_synthetic", "data.read_grid", "data.compute_norm_stats",
    "data.static_channel_mask", "metrics.fit_climatology", "model.build",
    "model.load_checkpoint", "padding.index_map.build",
)

MODULES = ("engine", "padding", "layers", "model", "training", "data",
           "metrics", "rollout", "cli")


def _conv_kind(args, kwargs):
    w = args[1]
    groups = kwargs.get("groups", args[3] if len(args) > 3 else 1)
    if w.data.shape[-1] == 1:
        return "engine.conv2d_valid.pw"
    return "engine.conv2d_valid.dense" if groups == 1 else "engine.conv2d_valid.dw"


def _conv_cost(args, kwargs, result):
    """(gflop, im2col MB) of one forward conv, computed from its shapes.

    A 1x1 conv reshapes its input in place, so only K > 1 copies an
    im2col buffer.
    """
    x, w = args[0].data, args[1].data
    bsz = x.shape[0] if x.ndim == 4 else 1
    cin = x.shape[-3]
    cout, cin_g, k, _ = w.shape
    hw = result.data.shape[-2] * result.data.shape[-1]
    gflop = 2.0 * bsz * cout * cin_g * k * k * hw / 1e9
    im2col_mb = bsz * cin * k * k * hw * x.itemsize / 1e6 if k > 1 else 0.0
    return gflop, im2col_mb


def _forward_mode(args, kwargs):
    return "model.forward." + args[0].mode


def _train_samples(args, kwargs, result):
    return int(args[1].x.shape[0]) * int(args[2].epochs)


def _horizon_done(args, kwargs, result):
    return result.horizon_done


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _one(args, kwargs, result):
    return 1


def _points():
    """(owner, attribute, span name or namer, measure, coarse) per probe."""
    coarse = [
        (cli, "generate_synthetic", "data.generate_synthetic", None),
        (cli, "read_grid", "data.read_grid", _file_bytes),
        (cli, "compute_norm_stats", "data.compute_norm_stats", None),
        (cli, "static_channel_mask", "data.static_channel_mask", None),
        (cli, "fit_climatology", "metrics.fit_climatology", None),
        (cli, "build", "model.build", None),
        (cli, "load_checkpoint", "model.load_checkpoint", None),
        (padding, "_build_table", "padding.index_map.build", None),
        (cli, "train", "training.train", _train_samples),
        (training, "train", "training.train", _train_samples),
        (cli, "rollout", "rollout.rollout", _horizon_done),
    ]
    coarse += [(cli.COMMANDS, cmd, "cli." + cmd, None) for cmd in cli.COMMANDS]
    coarse.append((cli, "main", "cli.main", None))
    full = [(engine, "backward", "engine.backward", None),
            (engine, "conv2d_valid", _conv_kind, _conv_cost)]
    for op in ("zero_grads", "add", "sub", "mul", "scale", "relu", "gelu",
               "sigmoid", "sum_all", "mean_all", "global_avg_pool",
               "layer_norm_channels", "linear", "channel_scale",
               "sample_scale", "pad2d"):
        full.append((engine, op, "engine." + op, None))
    full += [
        (padding, "index_map", "padding.index_map", None),
        (padding, "pad", "padding.pad", None),
        (layers, "pad", "padding.pad", None),
        (layers, "drop_path", "layers.drop_path", None),
        (model.Stem, "__call__", "model.Stem", None),
        (model.KarinaModel, "forward", _forward_mode, None),
        (model.KarinaModel, "__call__", _forward_mode, None),
        (cli, "save_checkpoint", "model.save_checkpoint", None),
        (training, "adamw_step", "training.adamw_step", _one),
        (training, "l2_loss", "training.l2_loss", None),
        (training, "evaluate_loss", "training.evaluate_loss", None),
        (training, "cosine_lr", "training.cosine_lr", None),
        (cli, "finetune", "training.finetune", None),
        (data.FileSource, "pairs", "data.pairs", None),
        (data.FileSource, "lag_pairs", "data.lag_pairs", None),
        (data.SyntheticSource, "pairs", "data.pairs", None),
        (data.SyntheticSource, "lag_pairs", "data.lag_pairs", None),
        (cli, "write_grid", "data.write_grid", _one),
        (cli, "normalize", "data.normalize", None),
        (data, "normalize", "data.normalize", None),
        (rollout, "denormalize", "data.denormalize", None),
        (cli, "weighted_rmse", "metrics.weighted_rmse", _one),
        (cli, "acc", "metrics.acc", _one),
        (cli, "latitude_weights", "metrics.latitude_weights", None),
        (rollout, "latitude_weights", "metrics.latitude_weights", None),
        (metrics, "latitude_weights", "metrics.latitude_weights", None),
        (cli, "metrics_to_csv", "metrics.metrics_to_csv", None),
        (metrics, "harmonic_design", "metrics.harmonic_design", None),
        (cli, "drift_report", "rollout.drift_report", None),
        (rollout, "drift_rows", "rollout.drift_rows", None),
        (cli, "model_fingerprint", "rollout.model_fingerprint", None),
        (rollout, "model_fingerprint", "rollout.model_fingerprint", None),
    ]
    for cls in (layers.Conv2d, layers.SEBlock, layers.ConvNextBlock,
                layers.LayerNormChannels, layers.DepthScale):
        full.append((cls, "__call__", "layers." + cls.__name__, None))
    return [p + (True,) for p in coarse] + [p + (False,) for p in full]


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Records spans while installed; restores every attribute on uninstall.

    A span is a list [name, start_ns, end_ns, parent_index, measure].
    Spans stay in memory until the run ends.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, measure):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name if isinstance(name, str) else name(args, kwargs),
                   0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if measure is not None:
                rec[4] = measure(args, kwargs, result)
            return result

        return wrapper

    def install(self, full):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for owner, attr, name, measure, coarse in _points():
            if not (coarse or full):
                continue
            fn = _get(owner, attr)
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, name, measure)
            self._saved.append((owner, attr, fn))
            _set(owner, attr, wrappers[id(fn)])

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            _set(owner, attr, fn)

    def write(self, path):
        """Write every span once, as CSV: index,name,start_ns,end_ns,parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent}\n")


class Window:
    """The spans of one workload iteration, spans[lo:hi], with derived sums."""

    def __init__(self, spans, lo, hi):
        self.spans = spans[lo:hi]
        self.lo = lo
        self.incl = {}       # name -> ns including child spans
        self.self_ns = {}    # name -> ns excluding child spans
        self.count = {}
        self.measure = {}    # name -> summed measure (tuples summed by position)
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= lo:
                child[rec[3] - lo] += rec[2] - rec[1]
        for i, (name, start, end, parent, meas) in enumerate(self.spans):
            dur = end - start
            self.self_ns[name] = self.self_ns.get(name, 0) + dur - child[i]
            self.count[name] = self.count.get(name, 0) + 1
            self.incl[name] = self.incl.get(name, 0) + dur
            if meas is not None:
                prev = self.measure.get(name)
                if isinstance(meas, tuple):
                    self.measure[name] = meas if prev is None else tuple(
                        a + b for a, b in zip(prev, meas))
                else:
                    self.measure[name] = meas + (prev or 0)

    def ms(self, *names):
        return sum(self.incl.get(n, 0) for n in names) / 1e6

    def self_ms(self, *names):
        return sum(self.self_ns.get(n, 0) for n in names) / 1e6

    def calls(self, *names):
        return sum(self.count.get(n, 0) for n in names)

    def total(self, name):
        return self.measure.get(name) or 0

    def setup_s(self):
        return self.ms(*SETUP_SPANS) / 1e3

    def module_self_ms(self):
        out = dict.fromkeys(MODULES, 0.0)
        for name, ns in self.self_ns.items():
            out[name.split(".")[0]] += ns / 1e6
        return out


CONV_KINDS = ("dw", "dense", "pw")
ENGINE_TIMED = ("pad2d", "gelu", "layer_norm_channels", "global_avg_pool",
                "linear", "sigmoid", "channel_scale")
ENGINE_OTHER = ("zero_grads", "add", "sub", "mul", "scale", "relu",
                "sum_all", "mean_all", "sample_scale")
COMMAND_NAMES = ("train", "finetune", "evaluate", "rollout", "ablate")

# name -> unit, in the order the traced run prints them
LAYER_UNITS = {"engine.backward.ms": "ms"}
LAYER_UNITS.update({f"engine.conv2d_valid.{k}.ms": "ms" for k in CONV_KINDS})
LAYER_UNITS.update({"engine.conv2d_valid.gflop": "gflop",
                    "engine.conv2d_valid.im2col_mb": "MB"})
LAYER_UNITS.update({f"engine.conv2d_valid.{k}.gflop": "gflop" for k in CONV_KINDS})
LAYER_UNITS.update({f"engine.conv2d_valid.{k}.im2col_mb": "MB" for k in ("dw", "dense")})
LAYER_UNITS.update({f"engine.{op}.ms": "ms" for op in ENGINE_TIMED})
LAYER_UNITS.update({
    "engine.elementwise.ms": "ms",
    "engine.ops": "count",
    "padding.index_map.calls": "count",
    "padding.index_map.misses": "count",
    "padding.index_map.ms": "ms",
    "layers.ConvNextBlock.ms": "ms",
    "layers.SEBlock.ms": "ms",
    "layers.Conv2d.ms": "ms",
    "model.forward.train.ms": "ms",
    "model.forward.eval.ms": "ms",
    "model.build.ms": "ms",
    "model.save_checkpoint.ms": "ms",
    "model.load_checkpoint.ms": "ms",
    "training.adamw_step.ms": "ms",
    "training.l2_loss.ms": "ms",
    "training.train.self_ms": "ms",
    "training.steps": "count",
    "data.generate_synthetic.ms": "ms",
    "data.lag_pairs.ms": "ms",
    "data.pairs.ms": "ms",
    "data.read_grid.ms": "ms",
    "data.read_grid.mb_per_s": "MB/s",
    "data.write_grid.ms": "ms",
    "data.write_grid.files": "count",
    "data.compute_norm_stats.ms": "ms",
    "data.normalize.ms": "ms",
    "data.denormalize.ms": "ms",
    "metrics.fit_climatology.ms": "ms",
    "metrics.weighted_rmse.ms": "ms",
    "metrics.weighted_rmse.calls": "count",
    "metrics.acc.ms": "ms",
    "metrics.acc.calls": "count",
    "rollout.rollout.self_ms": "ms",
    "rollout.steps": "count",
    "rollout.drift_report.ms": "ms",
})
LAYER_UNITS.update({f"cli.{c}.ms": "ms" for c in COMMAND_NAMES})
LAYER_UNITS.update({"cli.self_ms": "ms", "trace.overhead": "ratio"})


def layer_metrics(win):
    """Per-layer values of one traced iteration (all but trace.overhead).

    `.ms` is inclusive wall time per iteration, which for a call with no
    probed children is also its self time; `.self_ms` excludes children.
    """
    steps = win.calls("training.adamw_step")
    fsteps = win.total("rollout.rollout")
    engine_calls = sum(n for name, n in win.count.items() if name.startswith("engine."))
    read_s = win.ms("data.read_grid") / 1e3
    out = {"engine.backward.ms": win.ms("engine.backward")}
    gflop = im2col = 0.0
    for k in CONV_KINDS:
        name = "engine.conv2d_valid." + k
        g, m = win.total(name) or (0.0, 0.0)
        out[name + ".ms"] = win.ms(name)
        out[name + ".gflop"] = g
        if k != "pw":
            out[name + ".im2col_mb"] = m
        gflop += g
        im2col += m
    out["engine.conv2d_valid.gflop"] = gflop
    out["engine.conv2d_valid.im2col_mb"] = im2col
    for op in ENGINE_TIMED:
        out[f"engine.{op}.ms"] = win.ms("engine." + op)
    out["engine.elementwise.ms"] = win.ms(*("engine." + op for op in ENGINE_OTHER))
    out["engine.ops"] = engine_calls / (steps + fsteps) if steps + fsteps else 0.0
    out.update({
        "padding.index_map.calls": win.calls("padding.index_map"),
        "padding.index_map.misses": win.calls("padding.index_map.build"),
        "padding.index_map.ms": win.ms("padding.index_map"),
        "layers.ConvNextBlock.ms": win.ms("layers.ConvNextBlock"),
        "layers.SEBlock.ms": win.ms("layers.SEBlock"),
        "layers.Conv2d.ms": win.ms("layers.Conv2d"),
        "model.forward.train.ms": win.ms("model.forward.train"),
        "model.forward.eval.ms": win.ms("model.forward.eval"),
        "model.build.ms": win.ms("model.build"),
        "model.save_checkpoint.ms": win.ms("model.save_checkpoint"),
        "model.load_checkpoint.ms": win.ms("model.load_checkpoint"),
        "training.adamw_step.ms": win.ms("training.adamw_step"),
        "training.l2_loss.ms": win.ms("training.l2_loss"),
        "training.train.self_ms": win.self_ms("training.train"),
        "training.steps": steps,
        "data.generate_synthetic.ms": win.ms("data.generate_synthetic"),
        "data.lag_pairs.ms": win.ms("data.lag_pairs"),
        "data.pairs.ms": win.ms("data.pairs"),
        "data.read_grid.ms": win.ms("data.read_grid"),
        "data.read_grid.mb_per_s":
            win.total("data.read_grid") / 1e6 / read_s if read_s else 0.0,
        "data.write_grid.ms": win.ms("data.write_grid"),
        "data.write_grid.files": win.calls("data.write_grid"),
        "data.compute_norm_stats.ms": win.ms("data.compute_norm_stats"),
        "data.normalize.ms": win.ms("data.normalize"),
        "data.denormalize.ms": win.ms("data.denormalize"),
        "metrics.fit_climatology.ms": win.ms("metrics.fit_climatology"),
        "metrics.weighted_rmse.ms": win.ms("metrics.weighted_rmse"),
        "metrics.weighted_rmse.calls": win.calls("metrics.weighted_rmse"),
        "metrics.acc.ms": win.ms("metrics.acc"),
        "metrics.acc.calls": win.calls("metrics.acc"),
        "rollout.rollout.self_ms": win.self_ms("rollout.rollout"),
        "rollout.steps": fsteps,
        "rollout.drift_report.ms": win.ms("rollout.drift_report"),
        "cli.self_ms": win.self_ms("cli.main", *("cli." + c for c in COMMAND_NAMES)),
    })
    out.update({f"cli.{c}.ms": win.ms("cli." + c) for c in COMMAND_NAMES})
    return out
