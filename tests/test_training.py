"""Optimizer, schedule, loss, and training-loop behavior.

The AdamW checks compare against a hand-rolled reference update written
out step by step, so any drift in decay placement or bias correction
shows up as an exact mismatch in 64-bit.
"""

import math
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, replace

import numpy as np
import pytest

from karina import cli
from karina import engine as E
from karina import model as M
from karina import training as T


@dataclass
class Pairs:
    x: np.ndarray
    y: np.ndarray


def tiny_config(**kw):
    base = dict(in_channels=2, out_channels=2, stage_dims=(4,), depths=(1,),
                stem_kernel=3, padding_mode="geocyclic", drop_path_rate=0.0)
    base.update(kw)
    return M.ModelConfig(**base)


def make_pairs(rng, n, c=2, h=8, w=16, dtype=np.float32):
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    y = rng.standard_normal((n, c, h, w)).astype(dtype)
    return Pairs(x, y)


def adam_reference(theta, grads, lr, betas, eps, wd=0.0):
    """Plain AdamW unrolled with the same expression order as the
    implementation: decay, then moment update, then bias-corrected step."""
    theta = theta.copy()
    b1, b2 = betas
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        if wd:
            theta *= 1.0 - lr * wd
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        mhat = m / (1.0 - b1 ** t)
        vhat = v / (1.0 - b2 ** t)
        theta -= lr * mhat / (np.sqrt(vhat) + eps)
    return theta


class TestL2Loss:
    def test_identical_inputs_give_zero(self):
        x = np.linspace(-1, 1, 24).reshape(2, 3, 4)
        loss = T.l2_loss(E.Tensor(x), E.Tensor(x.copy()))
        assert loss.item() == 0.0

    def test_constant_offset_gives_square(self):
        t = np.zeros((2, 3, 4))
        p = np.full((2, 3, 4), 0.5)
        assert T.l2_loss(E.Tensor(p), E.Tensor(t)).item() == pytest.approx(0.25, rel=1e-14)

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(7)
        p = rng.standard_normal((2, 3, 4))
        t = rng.standard_normal((2, 3, 4))
        want = 0.0
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    want += (p[i, j, k] - t[i, j, k]) ** 2
        want /= 24
        got = T.l2_loss(E.Tensor(p), E.Tensor(t)).item()
        assert got == pytest.approx(want, rel=1e-13)

    def test_shape_mismatch_raises(self):
        with pytest.raises(T.TrainingError, match="disagree"):
            T.l2_loss(E.Tensor(np.zeros((2, 3))), E.Tensor(np.zeros((3, 2))))

    def test_unit_weights_match_unweighted(self):
        rng = np.random.default_rng(8)
        p = rng.standard_normal((2, 4, 6))
        t = rng.standard_normal((2, 4, 6))
        a = T.l2_loss(E.Tensor(p), E.Tensor(t)).item()
        b = T.l2_loss(E.Tensor(p), E.Tensor(t), weights=np.ones((2, 4, 6))).item()
        assert a == pytest.approx(b, rel=1e-14)

    def test_weighted_mean_formula(self):
        rng = np.random.default_rng(9)
        p = rng.standard_normal((3, 4))
        t = rng.standard_normal((3, 4))
        w = rng.uniform(0.1, 2.0, (3, 4))
        want = float((w * (p - t) ** 2).sum() / w.sum())
        got = T.l2_loss(E.Tensor(p), E.Tensor(t), weights=w).item()
        assert got == pytest.approx(want, rel=1e-12)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(T.TrainingError, match="mass"):
            T.l2_loss(E.Tensor(np.ones((2, 2))), E.Tensor(np.zeros((2, 2))),
                      weights=np.zeros((2, 2)))

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(10)
        p = E.Parameter(rng.standard_normal((2, 3, 4)), name="p")
        t = E.Tensor(rng.standard_normal((2, 3, 4)))
        w = rng.uniform(0.5, 1.5, (2, 3, 4))
        for weights in (None, w):
            err = E.grad_check(lambda: T.l2_loss(p, t, weights=weights), [p], h=1e-5)
            assert err < 1e-7


class TestAdamWStep:
    def test_zero_grads_no_decay_leave_params_unchanged(self):
        p = E.Parameter(np.array([1.0, -2.0, 3.0]), name="w")
        p.grad = np.zeros(3)
        before = p.data.tobytes()
        T.adamw_step([p], T.OptimizerState(), lr=0.01, weight_decay=0.0)
        assert p.data.tobytes() == before

    def test_zero_grads_with_decay_scale_by_factor(self):
        p = E.Parameter(np.array([1.0, -2.0, 3.0]), name="w")
        p.grad = np.zeros(3)
        want = p.data * (1.0 - 0.01 * 0.1)
        T.adamw_step([p], T.OptimizerState(), lr=0.01, weight_decay=0.1)
        assert np.array_equal(p.data, want)

    def test_pencil_and_paper_single_step(self):
        # theta=1, g=0.5, betas (0.9, 0.999), lr 1e-3, wd 0
        p = E.Parameter(np.array([1.0]), name="w")
        p.grad = np.array([0.5])
        T.adamw_step([p], T.OptimizerState(), lr=1e-3, weight_decay=0.0)
        m = 0.1 * 0.5
        v = 0.001 * 0.25
        mhat = m / (1 - 0.9)
        vhat = v / (1 - 0.999)
        want = 1.0 - 1e-3 * mhat / (math.sqrt(vhat) + 1e-8)
        assert p.data[0] == pytest.approx(want, rel=1e-15)

    def test_matches_reference_adam_when_decay_off(self):
        rng = np.random.default_rng(11)
        theta0 = rng.standard_normal((3, 2))
        grads = [rng.standard_normal((3, 2)) for _ in range(5)]
        p = E.Parameter(theta0.copy(), name="w")
        state = T.OptimizerState()
        for g in grads:
            p.grad = g.copy()
            T.adamw_step([p], state, lr=0.01, weight_decay=0.0)
        want = adam_reference(theta0, grads, 0.01, (0.9, 0.999), 1e-8)
        assert np.array_equal(p.data, want)

    def test_matches_reference_with_decay(self):
        rng = np.random.default_rng(12)
        theta0 = rng.standard_normal(4)
        grads = [rng.standard_normal(4) for _ in range(4)]
        p = E.Parameter(theta0.copy(), name="w")
        state = T.OptimizerState()
        for g in grads:
            p.grad = g.copy()
            T.adamw_step([p], state, lr=0.02, weight_decay=0.05)
        want = adam_reference(theta0, grads, 0.02, (0.9, 0.999), 1e-8, wd=0.05)
        assert np.array_equal(p.data, want)

    def test_missing_grad_names_parameter(self):
        p = E.Parameter(np.zeros(2), name="stem.conv.weight")
        with pytest.raises(T.TrainingError, match="stem.conv.weight"):
            T.adamw_step([p], T.OptimizerState(), lr=0.01)

    def test_duplicate_names_rejected(self):
        a = E.Parameter(np.zeros(2), name="w")
        b = E.Parameter(np.ones(2), name="w")
        a.grad = np.zeros(2)
        b.grad = np.zeros(2)
        with pytest.raises(T.TrainingError, match="unique"):
            T.adamw_step([a, b], T.OptimizerState(), lr=0.01)

    def test_step_decreases_isolated_quadratic(self):
        # f(theta) = sum theta^2, minimized at 0; small lr must descend
        p = E.Parameter(np.array([0.7, -1.3]), name="w")
        state = T.OptimizerState()
        f0 = float((p.data ** 2).sum())
        p.grad = 2.0 * p.data
        T.adamw_step([p], state, lr=1e-3, weight_decay=0.0)
        f1 = float((p.data ** 2).sum())
        assert f1 < f0

    def test_zero_lr_leaves_params_bit_identical(self):
        rng = np.random.default_rng(13)
        p = E.Parameter(rng.standard_normal(6), name="w")
        p.grad = rng.standard_normal(6)
        before = p.data.tobytes()
        T.adamw_step([p], T.OptimizerState(), lr=0.0, weight_decay=0.05)
        assert p.data.tobytes() == before

    def test_step_count_increments(self):
        p = E.Parameter(np.zeros(2), name="w")
        state = T.OptimizerState()
        for want in (1, 2, 3):
            p.grad = np.ones(2)
            T.adamw_step([p], state, lr=1e-3)
            assert state.step_count == want


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert T.cosine_lr(0, 10, 1e-3, 1e-5) == pytest.approx(1e-3)
        assert T.cosine_lr(10, 10, 1e-3, 1e-5) == pytest.approx(1e-5)
        assert T.cosine_lr(5, 10, 1e-3, 1e-5) == pytest.approx((1e-3 + 1e-5) / 2)

    def test_zero_span_rejected(self):
        with pytest.raises(T.TrainingError, match="span"):
            T.cosine_lr(0, 0, 1e-3)

    def test_step_outside_range_rejected(self):
        with pytest.raises(T.TrainingError, match="outside"):
            T.cosine_lr(11, 10, 1e-3)

    def test_monotone_decreasing(self):
        vals = [T.cosine_lr(s, 20, 1e-3, 0.0) for s in range(21)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestTrainConfig:
    def test_defaults_valid(self):
        T.TrainConfig()

    @pytest.mark.parametrize("kw,frag", [
        (dict(lr=-1e-3), "nonnegative"),
        (dict(epochs=0), "epochs"),
        (dict(lr_min=2e-3), "lr_min"),
        (dict(batch_size=0), "batch_size"),
    ])
    def test_invalid_fields_rejected(self, kw, frag):
        with pytest.raises(T.TrainingError, match=frag):
            T.TrainConfig(**kw)


class TestTrainLoop:
    def test_loss_decreases_on_toy_set(self):
        model = M.KarinaModel(tiny_config(), seed=3)
        rng = np.random.default_rng(20)
        x = rng.standard_normal((2, 2, 8, 16)).astype(np.float32)
        pairs = Pairs(x, 0.5 * x)
        cfg = T.TrainConfig(lr=3e-3, epochs=4, batch_size=2, weight_decay=0.0, seed=0)
        rep = T.train(model, pairs, cfg)
        assert rep.records[-1].train_loss < rep.records[0].train_loss

    def test_zero_lr_run_keeps_params_bit_identical(self):
        model = M.KarinaModel(tiny_config(), seed=4)
        before = {p.name: p.data.tobytes() for p in model.parameters()}
        pairs = make_pairs(np.random.default_rng(21), 4)
        cfg = T.TrainConfig(lr=0.0, lr_min=0.0, epochs=2, batch_size=2, seed=1)
        T.train(model, pairs, cfg)
        after = {p.name: p.data.tobytes() for p in model.parameters()}
        assert before == after

    def test_same_seed_gives_identical_curves_and_weights(self):
        pairs = make_pairs(np.random.default_rng(22), 6)
        curves, weights = [], []
        for _ in range(2):
            model = M.KarinaModel(tiny_config(), seed=5)
            cfg = T.TrainConfig(lr=1e-3, epochs=3, batch_size=2, seed=9)
            rep = T.train(model, pairs, cfg)
            curves.append([r.train_loss for r in rep.records])
            weights.append({p.name: p.data.tobytes() for p in model.parameters()})
        assert curves[0] == curves[1]
        assert weights[0] == weights[1]

    def test_different_shuffle_seed_changes_curve(self):
        pairs = make_pairs(np.random.default_rng(23), 8)
        losses = []
        for seed in (1, 2):
            model = M.KarinaModel(tiny_config(), seed=5)
            cfg = T.TrainConfig(lr=1e-3, epochs=2, batch_size=2, seed=seed)
            rep = T.train(model, pairs, cfg)
            losses.append(rep.records[-1].train_loss)
        assert losses[0] != losses[1]

    def test_val_loss_ignores_shuffle_seed_when_params_frozen(self):
        # with lr pinned to zero the only moving part is the loader order,
        # which must not leak into evaluation
        pairs = make_pairs(np.random.default_rng(24), 6)
        val = make_pairs(np.random.default_rng(25), 3)
        vals = []
        for seed in (3, 4):
            model = M.KarinaModel(tiny_config(), seed=6)
            cfg = T.TrainConfig(lr=0.0, lr_min=0.0, epochs=1, batch_size=2, seed=seed)
            rep = T.train(model, pairs, cfg, val_pairs=val)
            vals.append(rep.records[0].val_loss)
        assert vals[0] == vals[1]

    def test_epoch_lr_follows_cosine(self):
        pairs = make_pairs(np.random.default_rng(26), 2)
        model = M.KarinaModel(tiny_config(), seed=7)
        cfg = T.TrainConfig(lr=1e-3, lr_min=1e-5, epochs=5, batch_size=2, seed=0)
        rep = T.train(model, pairs, cfg)
        lrs = [r.lr for r in rep.records]
        want = [T.cosine_lr(e, 4, 1e-3, 1e-5) for e in range(5)]
        assert lrs == want
        assert lrs[0] == pytest.approx(1e-3)
        assert lrs[-1] == pytest.approx(1e-5)

    def test_single_epoch_runs_at_peak_rate(self):
        pairs = make_pairs(np.random.default_rng(27), 2)
        model = M.KarinaModel(tiny_config(), seed=8)
        rep = T.train(model, pairs, T.TrainConfig(lr=2e-3, epochs=1, batch_size=2, seed=0))
        assert rep.records[0].lr == 2e-3

    def test_nan_input_aborts_with_batch_index(self):
        model = M.KarinaModel(tiny_config(), seed=9)
        pairs = make_pairs(np.random.default_rng(28), 2)
        pairs.x[1, 0, 0, 0] = np.inf
        cfg = T.TrainConfig(lr=1e-3, epochs=1, batch_size=2, seed=0)
        with pytest.raises(T.TrainingError, match=r"epoch 0 batch 0"):
            T.train(model, pairs, cfg)

    def test_empty_dataset_rejected(self):
        model = M.KarinaModel(tiny_config(), seed=10)
        pairs = Pairs(np.zeros((0, 2, 8, 16), np.float32), np.zeros((0, 2, 8, 16), np.float32))
        with pytest.raises(T.TrainingError, match="empty"):
            T.train(model, pairs, T.TrainConfig())

    def test_mismatched_pair_arrays_rejected(self):
        model = M.KarinaModel(tiny_config(), seed=10)
        pairs = Pairs(np.zeros((3, 2, 8, 16), np.float32), np.zeros((2, 2, 8, 16), np.float32))
        with pytest.raises(T.TrainingError, match="disagree"):
            T.train(model, pairs, T.TrainConfig())

    def test_microbatch_gradients_match_large_batch_through_model(self):
        # element count per sample is a power of two so the 1/(B*M) and
        # (1/B)*(1/M) normalizations are the same float exactly
        model = M.KarinaModel(tiny_config(), seed=11)
        params = model.parameters()
        rng = np.random.default_rng(29)
        x = rng.standard_normal((4, 2, 8, 16)).astype(np.float32)
        y = rng.standard_normal((4, 2, 8, 16)).astype(np.float32)

        E.zero_grads(params)
        E.backward(T.l2_loss(model.forward(x), E.Tensor(y)))
        full = {p.name: p.grad.tobytes() for p in params}

        E.zero_grads(params)
        for k in range(4):
            loss = T.l2_loss(model.forward(x[k:k + 1]), E.Tensor(y[k:k + 1]))
            E.backward(E.scale(loss, 0.25))
        micro = {p.name: p.grad.tobytes() for p in params}
        assert full == micro

    def test_report_csv_round_trip_and_determinism(self, tmp_path):
        pairs = make_pairs(np.random.default_rng(30), 4)
        val = make_pairs(np.random.default_rng(31), 2)
        files = []
        for run in range(2):
            model = M.KarinaModel(tiny_config(), seed=12)
            cfg = T.TrainConfig(lr=1e-3, epochs=2, batch_size=2, seed=2)
            rep = T.train(model, pairs, cfg, val_pairs=val)
            path = tmp_path / f"curve{run}.csv"
            rep.to_csv(path)
            files.append(path.read_bytes())
        assert files[0] == files[1]
        lines = files[0].decode().splitlines()
        assert lines[0] == "epoch,step,lr,train_loss,val_loss"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "2"
        float(first[2]); float(first[3]); float(first[4])

    def test_csv_blank_val_column_without_validation_set(self, tmp_path):
        rep = T.TrainReport(records=[T.EpochRecord(0, 1, 1e-3, 0.5, None)])
        path = tmp_path / "c.csv"
        rep.to_csv(path)
        assert path.read_text().splitlines()[1] == "0,1,0.001,0.5,"

    def test_bench_step_keeps_every_array_c_ordered(self, monkeypatch):
        # the BENCH step: batch 4 on the 16x32 grid, four channels, the
        # default stage dims 8,16 and depths 1,1
        # backward frees each intermediate grad once its closure has run,
        # so those are checked as _accumulate writes them
        make, accumulate = E._make, E._accumulate
        written = []

        def spy_make(out_data, op, *rules):
            assert out_data.flags.c_contiguous, f"{op} output strides {out_data.strides}"
            return make(out_data, op, *rules)

        def spy_accumulate(t, g):
            accumulate(t, g)
            assert t.grad.flags.c_contiguous, f"{t!r} grad strides {t.grad.strides}"
            written.append(t._op)

        monkeypatch.setattr(E, "_make", spy_make)
        monkeypatch.setattr(E, "_accumulate", spy_accumulate)
        model = M.build(tiny_config(in_channels=4, out_channels=4, stage_dims=(8, 16),
                                    depths=(1, 1)), seed=0)
        pairs = make_pairs(np.random.default_rng(22), 4, c=4, h=16, w=32)
        E.backward(T.l2_loss(model.forward(pairs.x), E.Tensor(pairs.y)))
        assert {"pad2d", "conv2d_valid", "gelu"} <= set(written)
        for p in model.parameters():
            if p.grad is not None:
                assert p.grad.flags.c_contiguous, f"{p!r} grad strides {p.grad.strides}"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_train_steps_reuse_the_freed_heap():
    # backward frees each step's graph as it walks it; under glibc's default
    # trim policy each step then faulted 1,700 to 2,500 pages back in (its
    # graph is 4.9 MiB, 1,257 pages).  A child process, since mallopt lasts
    # for the whole process
    code = """if True:
        import resource
        import numpy as np
        from karina import engine as E, model as M, training as T
        T._keep_freed_heap()
        model = M.build(M.ModelConfig(in_channels=4, out_channels=4, stage_dims=(8, 16),
                                      depths=(1, 1)), seed=0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 4, 16, 32)).astype(np.float32)
        y = E.Tensor(rng.standard_normal((4, 4, 16, 32)).astype(np.float32))
        for step in range(30):
            if step == 10:
                start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            E.zero_grads(model.parameters())
            E.backward(T.l2_loss(model.forward(x), y))
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / 20)
    """
    src = os.path.dirname(os.path.dirname(T.__file__))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 126, done.stdout


class FakeLagSource:
    """Daily series with analytic hourly offsets: value(t) = base + t*slope
    evaluated at t = day + lag/24, so any lag is available exactly."""

    def __init__(self, n_days, c=2, h=8, w=16, seed=0):
        rng = np.random.default_rng(seed)
        self.base = rng.standard_normal((c, h, w)).astype(np.float32)
        self.slope = 0.01 * rng.standard_normal((c, h, w)).astype(np.float32)
        self.n_days = n_days

    def frame(self, t):
        return self.base + np.float32(t) * self.slope

    def lag_pairs(self, lag_set):
        xs, ys = [], []
        for lag in lag_set:
            t0 = np.float32(lag) / np.float32(24.0)
            for k in range(self.n_days - 1):
                xs.append(self.frame(k + t0))
                ys.append(self.frame(k + 1 + t0))
        return Pairs(np.stack(xs), np.stack(ys))


class TestFinetune:
    def test_default_phase_schedule(self):
        phases = cli._parse_phases(cli.SCHEMA["finetune.phases"][1])
        lags = [p.lag_set for p in phases]
        lrs = [p.lr for p in phases]
        assert lags == [(0, 12), (0, 6, 12, 18), tuple(range(24))]
        assert lrs == [0.005, 0.0025, 0.0001]

    def test_phase_validation(self):
        with pytest.raises(T.TrainingError, match="at least one"):
            T.FinetunePhase((), 1e-3)
        with pytest.raises(T.TrainingError, match="unique"):
            T.FinetunePhase((0, 0), 1e-3)
        with pytest.raises(T.TrainingError, match=r"\[0, 23\]"):
            T.FinetunePhase((0, 24), 1e-3)
        with pytest.raises(T.TrainingError, match="positive"):
            T.FinetunePhase((0,), 0.0)

    def test_lag_pair_counts(self):
        src = FakeLagSource(n_days=5)
        assert src.lag_pairs((0, 12)).x.shape[0] == 2 * 4
        assert src.lag_pairs((0, 6, 12, 18)).x.shape[0] == 4 * 4
        assert src.lag_pairs(tuple(range(24))).x.shape[0] == 24 * 4

    def test_degenerate_phase_equals_plain_train(self):
        src = FakeLagSource(n_days=4, seed=1)
        cfg = T.TrainConfig(lr=1e-3, epochs=2, batch_size=2, seed=4)

        m1 = M.KarinaModel(tiny_config(), seed=14)
        rep1 = T.train(m1, src.lag_pairs((0,)), cfg)

        m2 = M.KarinaModel(tiny_config(), seed=14)
        rep2 = T.finetune(m2, src, cfg, phases=[T.FinetunePhase((0,), cfg.lr)])

        assert [r.train_loss for r in rep1.records] == [r.train_loss for r in rep2.records]
        w1 = {p.name: p.data.tobytes() for p in m1.parameters()}
        w2 = {p.name: p.data.tobytes() for p in m2.parameters()}
        assert w1 == w2

    def test_phases_run_sequentially_with_their_rates(self):
        src = FakeLagSource(n_days=3, seed=2)
        model = M.KarinaModel(tiny_config(), seed=15)
        cfg = T.TrainConfig(lr=1e-3, epochs=2, batch_size=4, seed=0)
        phases = [T.FinetunePhase((0,), 5e-3), T.FinetunePhase((0, 12), 1e-4)]
        rep = T.finetune(model, src, cfg, phases=phases)
        assert [r.epoch for r in rep.records] == [0, 1, 2, 3]
        assert rep.records[0].lr == pytest.approx(5e-3)
        assert rep.records[2].lr == pytest.approx(1e-4)
        steps = [r.step for r in rep.records]
        assert steps == sorted(steps)

    def test_finetune_reuses_weights_across_phases(self):
        # second phase starts from phase-one weights: running phase two
        # alone from scratch gives a different outcome
        src = FakeLagSource(n_days=4, seed=3)
        cfg = T.TrainConfig(lr=1e-3, epochs=1, batch_size=4, seed=1)
        two_phase = M.KarinaModel(tiny_config(), seed=16)
        T.finetune(two_phase, src, cfg, phases=[
            T.FinetunePhase((0,), 5e-3), T.FinetunePhase((0,), 1e-4)])
        one_phase = M.KarinaModel(tiny_config(), seed=16)
        T.finetune(one_phase, src, cfg, phases=[T.FinetunePhase((0,), 1e-4)])
        a = np.concatenate([p.data.ravel() for p in two_phase.parameters()])
        b = np.concatenate([p.data.ravel() for p in one_phase.parameters()])
        assert not np.array_equal(a, b)


class TestEvaluateLoss:
    def test_matches_direct_forward(self):
        model = M.KarinaModel(tiny_config(), seed=17)
        pairs = make_pairs(np.random.default_rng(33), 3)
        per_sample = []
        with E.no_grad():
            for k in range(3):
                out = model.forward(pairs.x[k:k + 1])
                per_sample.append(T.l2_loss(out, E.Tensor(pairs.y[k:k + 1])).item())
        got = T.evaluate_loss(model, pairs, batch_size=1)
        assert got == pytest.approx(sum(per_sample) / 3, rel=1e-12)

    def test_records_no_graph(self, monkeypatch):
        model = M.KarinaModel(tiny_config(), seed=18)
        pairs = make_pairs(np.random.default_rng(34), 2)
        seen = []
        real = model.forward

        def forward(x):
            seen.append(E.recording())
            return real(x)

        monkeypatch.setattr(model, "forward", forward)
        T.evaluate_loss(model, pairs, batch_size=1)
        assert seen == [False, False]
        assert E.recording()

    def test_empty_set_rejected(self):
        model = M.KarinaModel(tiny_config(), seed=19)
        pairs = Pairs(np.zeros((0, 2, 8, 16), np.float32), np.zeros((0, 2, 8, 16), np.float32))
        with pytest.raises(T.TrainingError, match="empty"):
            T.evaluate_loss(model, pairs)
