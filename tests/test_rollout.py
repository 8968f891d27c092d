"""Autoregressive stepping: composition, static-channel pinning, blowup
handling, and the drift table.

Real models cover the bit-exactness properties; tiny fake steppers with
a known gain cover the tripwire paths deterministically.
"""

import numpy as np
import pytest

from karina import data as D
from karina import engine as E
from karina import model as M
from karina import rollout as R
from test_data import traced_peak


def setup_world(seed=0, n_days=10):
    spec = D.SyntheticSpec(n_days=n_days, seed=seed, n_blob_channels=2,
                           tilt_deg=90.0, speed_deg_per_day=15.0,
                           noise=0.02, n_lat=12, n_lon=24)
    gf = D.generate_synthetic(spec)
    stats = D.compute_norm_stats(gf)
    init = D.normalize(gf.values[0], stats)
    return gf, stats, init


def tiny_model(seed=0):
    cfg = M.ModelConfig(in_channels=4, out_channels=4, stage_dims=(4,),
                        depths=(1,), stem_kernel=3, padding_mode="geocyclic")
    return M.KarinaModel(cfg, seed=seed)


class Gain:
    """Fake stepper multiplying the state by a fixed factor."""

    def __init__(self, factor):
        self.factor = np.float32(factor)

    def forward(self, x):
        return E.Tensor(np.asarray(x, dtype=np.float32) * self.factor)


class Constant:
    """Fake stepper always forecasting zero in normalized space."""

    def forward(self, x):
        return E.Tensor(np.zeros_like(np.asarray(x, dtype=np.float32)))


class TestRolloutBasics:
    def test_horizon_one_equals_forward_plus_denormalize(self):
        gf, stats, init = setup_world()
        model = tiny_model()
        series = R.rollout(model, init, 1, stats)
        with E.no_grad():
            want = D.denormalize(model.forward(init[None]).data[0], stats)
        assert series.steps.shape == (1, 4, 12, 24)
        assert series.steps[0].tobytes() == want.astype(np.float32).tobytes()

    def test_step_count_and_grid_file(self):
        gf, stats, init = setup_world()
        series = R.rollout(tiny_model(), init, 5, stats, init_date=100.0)
        assert series.horizon_done == 5
        assert series.blowup_step is None
        out = series.to_grid_file()
        assert out.n_time == 5
        assert list(out.dates) == [101, 102, 103, 104, 105]
        assert out.channels == gf.channels

    def test_grid_file_shares_the_steps(self):
        _, stats, init = setup_world()
        series = R.rollout(tiny_model(), init, 3, stats)
        assert np.shares_memory(series.to_grid_file().values, series.steps)

    def test_grid_file_dates_stop_at_the_last_stamp(self):
        _, stats, init = setup_world()
        series = R.rollout(tiny_model(), init, 3, stats, init_date=float(D.MAX_DAY - 3))
        assert series.to_grid_file().dates.tolist() == [D.MAX_DAY - 2, D.MAX_DAY - 1, D.MAX_DAY]
        # one day later the last lead would wrap to day 0
        series = R.rollout(tiny_model(), init, 3, stats, init_date=float(D.MAX_DAY - 2))
        with pytest.raises(D.DataError, match="day stamps"):
            series.to_grid_file()

    def test_steps_are_held_once(self):
        # 200 steps of a 4-channel 32x64 state are 6.25 MiB; appending
        # each step to a list and stacking the list held them twice.  The
        # stepper is a fake, so the peak is the rollout's own: a model's
        # forward adds its working memory, whatever the horizon
        gf = D.generate_synthetic(D.SyntheticSpec(n_days=3, seed=1, n_lat=32, n_lon=64))
        stats = D.compute_norm_stats(gf)
        init = D.normalize(gf.values[0], stats)
        series, peak = traced_peak(R.rollout, Gain(1.0), init, 200, stats)
        assert series.horizon_done == 200
        assert peak < 1.3 * series.steps.nbytes, peak / series.steps.nbytes

    def test_static_channels_identical_at_every_lead(self):
        gf, stats, init = setup_world()
        mask = D.static_channel_mask(gf)
        assert mask.any()
        series = R.rollout(tiny_model(), init, 4, stats, static_mask=mask)
        oi = gf.channels.index("OROG")
        want = D.denormalize(init, stats).astype(np.float32)[oi]
        for k in range(4):
            assert series.steps[k, oi].tobytes() == want.tobytes()

    def test_dynamic_channels_actually_evolve(self):
        gf, stats, init = setup_world()
        series = R.rollout(tiny_model(), init, 3, stats)
        assert not np.array_equal(series.steps[0, 0], series.steps[1, 0])

    def test_steps_record_no_graph(self):
        gf, stats, init = setup_world()
        seen = []

        class Recorder(Gain):
            def forward(self, x):
                seen.append(E.recording())
                return super().forward(x)

        R.rollout(Recorder(1.0), init, 2, stats)
        assert seen == [False, False]
        assert E.recording()

    def test_validation_errors(self):
        gf, stats, init = setup_world()
        model = tiny_model()
        with pytest.raises(R.RolloutError, match="horizon"):
            R.rollout(model, init, 0, stats)
        with pytest.raises(R.RolloutError, match="channel, lat, lon"):
            R.rollout(model, init[None], 2, stats)
        with pytest.raises(R.RolloutError, match="stats cover"):
            R.rollout(model, init[:2], 2, stats)
        with pytest.raises(R.RolloutError, match="static mask"):
            R.rollout(model, init, 2, stats, static_mask=np.ones(3, bool))
        bad = init.copy()
        bad[0, 0, 0] = np.nan
        with pytest.raises(R.RolloutError, match="non-finite"):
            R.rollout(model, bad, 2, stats)


class TestComposition:
    def test_markov_composition_is_bit_identical(self):
        gf, stats, init = setup_world(seed=1)
        model = tiny_model(seed=2)
        whole = R.rollout(model, init, 6, stats, init_date=50.0)
        first = R.rollout(model, init, 2, stats, init_date=50.0)
        rest = R.rollout(model, first.final_state, 4, stats, init_date=52.0)
        assert rest.steps.tobytes() == whole.steps[2:].tobytes()
        assert np.array_equal(rest.step_stds, whole.step_stds[2:])
        assert rest.final_state.tobytes() == whole.final_state.tobytes()

    def test_roll_equivariance_propagates_through_rollout(self):
        gf, stats, init = setup_world(seed=2)
        mask = D.static_channel_mask(gf)
        model = tiny_model(seed=3)
        base = R.rollout(model, init, 3, stats, static_mask=mask)
        for shift in (1, 7, 12):
            rolled = R.rollout(model, np.roll(init, shift, axis=-1), 3, stats,
                               static_mask=mask)
            want = np.roll(base.steps, shift, axis=-1)
            assert rolled.steps.tobytes() == want.tobytes(), shift

    def test_fingerprint_tracks_parameters(self):
        model = tiny_model(seed=4)
        a = R.model_fingerprint(model)
        assert a == R.model_fingerprint(model)
        model.parameters()[0].data[0] += 1.0
        assert R.model_fingerprint(model) != a

    @pytest.mark.parametrize("changes, seed, want", [
        ({}, 0, "d8e9e6960e56229f"),
        ({"se_enabled": False, "drop_path_rate": 0.1}, 7, "2a44a611c05ceedf"),
    ])
    def test_fingerprint_pinned(self, changes, seed, want):
        # the CLI prints this id and perfbench's forecast manifest checks it
        cfg = M.ModelConfig(in_channels=4, out_channels=4, stage_dims=(8, 16),
                            depths=(1, 1), **changes)
        assert R.model_fingerprint(M.build(cfg, seed=seed)) == want


class TestBlowup:
    def test_std_tripwire_returns_finite_prefix(self):
        gf, stats, init = setup_world()
        state = init / np.float32(init.std())  # unit-ish std
        series = R.rollout(Gain(3.0), state, 10, stats)
        # std triples per step from about 1; the fifth step crosses 100
        assert series.blowup_step == 5
        assert series.horizon_done == 4
        assert np.isfinite(series.steps).all()
        assert (series.step_stds[-1] < R.BLOWUP_STD).all()

    def test_non_finite_forward_flags_blowup(self):
        gf, stats, init = setup_world()
        series = R.rollout(Gain(1e30), init, 4, stats)
        assert series.blowup_step is not None
        assert series.horizon_done == series.blowup_step - 1

    def test_empty_series_refuses_export(self):
        gf, stats, init = setup_world()
        series = R.rollout(Gain(1e30), init / np.float32(init.std()) * 200, 3, stats)
        assert series.horizon_done == 0
        with pytest.raises(R.RolloutError, match="no completed steps"):
            series.to_grid_file()
        with pytest.raises(R.RolloutError, match="no completed steps"):
            R.drift_rows(series)


class TestDriftReport:
    def test_constant_model_has_zero_mean_drift(self):
        gf, stats, init = setup_world()
        series = R.rollout(Constant(), init, 4, stats)
        assert np.all(series.step_means == 0.0)
        assert np.all(series.step_stds == 0.0)

    def test_row_count_is_horizon_times_channels(self):
        gf, stats, init = setup_world()
        series = R.rollout(tiny_model(), init, 3, stats)
        rows = R.drift_rows(series)
        assert len(rows) == 3 * len(gf.channels)
        assert rows[0][0] == 1 and rows[-1][0] == 3

    def test_std_matches_recomputation_from_stored_fields(self):
        gf, stats, init = setup_world(seed=3)
        series = R.rollout(tiny_model(seed=5), init, 4, stats)
        from karina.metrics import latitude_weights
        w = latitude_weights(series.grid)[None, :, None]
        for k in range(4):
            z = D.normalize(series.steps[k].astype(np.float64), stats)
            n = z.shape[-2] * z.shape[-1]
            mean = (w * z).sum(axis=(-2, -1)) / n
            var = (w * (z - mean[:, None, None]) ** 2).sum(axis=(-2, -1)) / n
            assert np.allclose(np.sqrt(var), series.step_stds[k], atol=1e-5)

    def test_csv_deterministic_and_well_formed(self, tmp_path):
        gf, stats, init = setup_world()
        series = R.rollout(tiny_model(), init, 2, stats)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        R.drift_report(series, p1)
        R.drift_report(series, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "lead_days,channel,mean,std,min,max"
        assert len(lines) == 1 + 2 * len(gf.channels)
        cells = lines[1].split(",")
        assert cells[0] == "1" and cells[1] == gf.channels[0]
        for cell in cells[2:]:
            float(cell)
