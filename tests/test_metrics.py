"""Verification metrics against brute-force oracles.

Every weighted reduction is recomputed with explicit python loops so a
wrong weight placement or normalization cannot hide inside numpy
broadcasting.
"""

import math

import numpy as np
import pytest

from blas_helpers import run_per_core
from karina import metrics as MT
from karina.padding import GridSpec
from test_data import traced_peak


def rmse_oracle(f, t, grid, weighted=True):
    w = np.cos(np.deg2rad(grid.lat_centers))
    w = w / w.mean()
    total = 0.0
    c, h, wd = f.shape
    out = np.zeros(c)
    for ch in range(c):
        total = 0.0
        for i in range(h):
            wi = w[i] if weighted else 1.0
            for j in range(wd):
                total += wi * (f[ch, i, j] - t[ch, i, j]) ** 2
        out[ch] = math.sqrt(total / (h * wd))
    return out


def acc_oracle(f, t, ref, grid, weighted=True):
    w = np.cos(np.deg2rad(grid.lat_centers))
    w = w / w.mean()
    if not weighted:
        w = np.ones_like(w)
    c, h, wd = f.shape
    out = np.zeros(c)
    for ch in range(c):
        fa = f[ch] - ref[ch]
        ta = t[ch] - ref[ch]
        n = h * wd
        fbar = sum(w[i] * fa[i, j] for i in range(h) for j in range(wd)) / n
        tbar = sum(w[i] * ta[i, j] for i in range(h) for j in range(wd)) / n
        num = vx = vy = 0.0
        for i in range(h):
            for j in range(wd):
                df = fa[i, j] - fbar
                dt = ta[i, j] - tbar
                num += w[i] * df * dt
                vx += w[i] * df * df
                vy += w[i] * dt * dt
        out[ch] = (num / n) / math.sqrt((vx / n) * (vy / n))
    return out


def regression_oracle(z, x):
    m = z.shape[0]
    zbar = sum(z) / m
    dz = z - zbar
    denom = math.sqrt(sum(d * d for d in dz))
    xbar = x.mean(axis=0)
    r = np.zeros(x.shape[1:])
    for it in np.ndindex(*x.shape[1:]):
        r[it] = sum(dz[k] * (x[(k,) + it] - xbar[it]) for k in range(m)) / denom
    return r


def fit_oracle(series, dates, n_harmonics):
    """The fit's stated arithmetic in scalar loops: modified Gram-Schmidt
    twice per column with fsum dots, then back substitution along time
    from the last row; then the in-order sum over time of
    P[i, t] * float64(series[t]), vectorized only across grid points,
    where each element is its own scalar sum."""
    a = MT.harmonic_design(dates, n_harmonics)
    t, m = a.shape
    q = [a[:, i].tolist() for i in range(m)]
    r = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for _ in range(2):
            for k in range(i):
                d = math.fsum(q[k][s] * q[i][s] for s in range(t))
                r[k][i] += d
                q[i] = [q[i][s] - d * q[k][s] for s in range(t)]
        r[i][i] = math.sqrt(math.fsum(v * v for v in q[i]))
        q[i] = [v / r[i][i] for v in q[i]]
    for i in range(m - 1, -1, -1):
        for s in range(t):
            v = q[i][s]
            for k in range(i + 1, m):
                v -= r[i][k] * q[k][s]
            q[i][s] = v / r[i][i]
    flat = series.reshape(t, -1)
    coeffs = [np.zeros(flat.shape[1]) for _ in range(m)]
    for s in range(t):
        row = flat[s].astype(np.float64)
        for i in range(m):
            coeffs[i] = coeffs[i] + q[i][s] * row
    return np.stack(coeffs).reshape((m,) + series.shape[1:])


# one random float32 series fitted in a child per OpenBLAS kernel, on 1
# and on 2 BLAS threads; prints one sha256 per thread count
FIT_PER_CORE = """
import hashlib
import numpy as np
from blas_helpers import blas_threads
from karina import metrics as MT
series = (np.random.default_rng(47).standard_normal((750, 5, 11, 22)) * 4.0
          + 280.0).astype(np.float32)
for n in (1, 2):
    with blas_threads(n):
        table = MT.fit_climatology(series, np.arange(750.0) + 17.0)
    print(hashlib.sha256(table.coeffs.tobytes()).hexdigest())
"""

# H*W off a multiple of 8 is where lstsq's BLAS kernels rounded a column
# by its position
FIT_SHAPES = [(800, 4, 8, 16), (740, 3, 5, 10), (731, 4, 9, 18),
              (760, 2, 3, 7), (735, 3, 1, 6), (750, 5, 11, 22)]


def fit_case(shape, dtype):
    rng = np.random.default_rng(47)
    series = (rng.standard_normal(shape) * 4.0 + 280.0).astype(dtype)
    return series, np.arange(shape[0], dtype=np.float64) + 17.0


class TestLatitudeWeights:
    def test_mean_is_one(self):
        for n_lat in (2, 5, 72):
            w = MT.latitude_weights(GridSpec.from_shape(n_lat, 8))
            assert w.mean() == pytest.approx(1.0, abs=1e-14)

    def test_north_south_symmetry(self):
        w = MT.latitude_weights(GridSpec.from_shape(8, 4))
        assert np.allclose(w, w[::-1], rtol=0, atol=1e-15)

    def test_matches_direct_cosines_on_72_rows(self):
        grid = GridSpec.from_shape(72, 144)
        cos = np.array([math.cos(math.radians(90 - 180 * (j + 0.5) / 72)) for j in range(72)])
        want = cos / cos.mean()
        got = MT.latitude_weights(grid)
        assert np.allclose(got, want, rtol=1e-14)

    def test_is_the_grids_read_only_row_weights(self):
        grid = GridSpec.from_shape(6, 12)
        w = MT.latitude_weights(grid)
        assert w is grid.row_weights
        assert not w.flags.writeable

    def test_single_row_normalizes_to_one(self):
        w = MT.latitude_weights(GridSpec.from_shape(1, 4))
        assert w.shape == (1,)
        assert w[0] == pytest.approx(1.0)


class TestWeightedRmse:
    def grid(self):
        return GridSpec.from_shape(4, 8)

    def test_identical_fields_score_zero(self):
        f = np.linspace(0, 1, 32).reshape(1, 4, 8)
        s = MT.MetricSample(f, f.copy(), self.grid())
        assert MT.weighted_rmse(s).tolist() == [0.0]

    def test_uniform_offset_scores_that_offset(self):
        f = np.zeros((1, 4, 8))
        s = MT.MetricSample(f + 0.7, f, self.grid())
        assert MT.weighted_rmse(s)[0] == pytest.approx(0.7, rel=1e-12)

    def test_two_row_grid_by_hand(self):
        # rows at +/-45 deg share a weight, so it cancels to a plain rms
        grid = GridSpec.from_shape(2, 4)
        f = np.zeros((1, 2, 4))
        t = np.zeros((1, 2, 4))
        f[0, 0, 0] = 2.0
        f[0, 1, 2] = 1.0
        want = math.sqrt((4.0 + 1.0) / 8.0)
        s = MT.MetricSample(f, t, grid)
        assert MT.weighted_rmse(s)[0] == pytest.approx(want, rel=1e-12)

    def test_single_row_error_picks_up_row_weight(self):
        grid = self.grid()
        w = MT.latitude_weights(grid)
        f = np.zeros((1, 4, 8))
        f[0, 0, :] = 1.0
        want = math.sqrt(w[0] * 8.0 / 32.0)
        s = MT.MetricSample(f, np.zeros((1, 4, 8)), grid)
        assert MT.weighted_rmse(s)[0] == pytest.approx(want, rel=1e-12)

    def test_matches_loop_oracle_on_many_instances(self):
        rng = np.random.default_rng(40)
        grid = GridSpec.from_shape(6, 12)
        for _ in range(30):
            f = rng.standard_normal((3, 6, 12))
            t = rng.standard_normal((3, 6, 12))
            s = MT.MetricSample(f, t, grid)
            for weighted in (True, False):
                got = MT.weighted_rmse(s, weighted=weighted)
                want = rmse_oracle(f, t, grid, weighted=weighted)
                assert np.allclose(got, want, rtol=1e-12)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(41)
        f = rng.standard_normal((2, 4, 8))
        t = rng.standard_normal((2, 4, 8))
        g = self.grid()
        a = MT.weighted_rmse(MT.MetricSample(f, t, g))
        b = MT.weighted_rmse(MT.MetricSample(t, f, g))
        assert np.array_equal(a, b)

    def test_triangle_bound_on_random_triples(self):
        rng = np.random.default_rng(42)
        g = self.grid()
        for _ in range(20):
            a, b, c = (rng.standard_normal((2, 4, 8)) for _ in range(3))
            ac = MT.weighted_rmse(MT.MetricSample(a, c, g))
            ab = MT.weighted_rmse(MT.MetricSample(a, b, g))
            bc = MT.weighted_rmse(MT.MetricSample(b, c, g))
            assert np.all(ac <= ab + bc + 1e-12)

    def test_nan_reports_location(self):
        f = np.zeros((2, 4, 8))
        f[1, 2, 3] = np.nan
        s = MT.MetricSample(np.zeros((2, 4, 8)), np.zeros((2, 4, 8)), self.grid())
        bad = MT.MetricSample.__new__(MT.MetricSample)
        object.__setattr__(bad, "forecast", f)
        object.__setattr__(bad, "truth", np.zeros((2, 4, 8)))
        object.__setattr__(bad, "grid", self.grid())
        object.__setattr__(bad, "valid_date", 0.0)
        with pytest.raises(MT.MetricsError, match="channel 1, row 2, col 3"):
            MT.weighted_rmse(bad)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MT.MetricsError, match="disagree"):
            MT.MetricSample(np.zeros((2, 4, 8)), np.zeros((1, 4, 8)), self.grid())
        with pytest.raises(MT.MetricsError, match="match grid"):
            MT.MetricSample(np.zeros((3, 6)), np.zeros((3, 6)), self.grid())


class TestClimatology:
    def dates(self, n):
        return np.arange(n, dtype=np.float64)

    def test_constant_series_recovers_mean_only(self):
        series = np.full((800, 1, 2, 3), 4.25)
        table = MT.fit_climatology(series, self.dates(800))
        assert np.allclose(table.coeffs[0], 4.25, atol=1e-10)
        assert np.abs(table.coeffs[1:]).max() < 1e-10

    def test_first_harmonic_amplitude_recovered(self):
        n = 1096
        doy = self.dates(n)
        amp, phase = 2.5, 0.7
        signal = amp * np.cos(2 * np.pi * doy / 365.25 + phase)
        series = np.tile(signal[:, None, None, None], (1, 1, 2, 2))
        table = MT.fit_climatology(series, doy)
        a1, b1 = table.coeffs[1], table.coeffs[2]
        got = np.sqrt(a1 ** 2 + b1 ** 2)
        assert np.allclose(got, amp, atol=1e-6)

    def test_unmodeled_harmonic_stays_in_residual(self):
        n = 1096
        doy = self.dates(n)
        signal = np.sin(2 * np.pi * 4 * doy / 365.25)
        series = signal[:, None, None, None] * np.ones((1, 1, 1, 1))
        table = MT.fit_climatology(series, doy)
        fitted = np.stack([table.evaluate(d)[0, 0, 0] for d in doy])
        resid_var = np.var(series[:, 0, 0, 0] - fitted)
        assert resid_var == pytest.approx(np.var(signal), rel=0.05)

    def test_evaluate_reconstructs_fitted_harmonics(self):
        rng = np.random.default_rng(43)
        n = 1100
        doy = self.dates(n)
        series = rng.standard_normal((n, 2, 2, 2))
        table = MT.fit_climatology(series, doy)
        a = MT.harmonic_design(np.array([123.0]), 3)[0]
        want = np.tensordot(a, table.coeffs, axes=(0, 0))
        got = table.evaluate(123.0)
        assert np.allclose(got, want, rtol=1e-13)

    def test_residuals_orthogonal_to_basis(self):
        rng = np.random.default_rng(44)
        n = 900
        dates = self.dates(n)
        series = rng.standard_normal((n, 1, 2, 2))
        table = MT.fit_climatology(series, dates)
        a = MT.harmonic_design(dates, 3)
        flat = series.reshape(n, -1)
        resid = flat - a @ table.coeffs.reshape(7, -1)
        assert np.abs(a.T @ resid).max() < 1e-8

    def test_insufficient_coverage_rejected(self):
        series = np.zeros((700, 1, 2, 2))
        with pytest.raises(MT.MetricsError, match="annual cycles"):
            MT.fit_climatology(series, self.dates(700))

    def test_sparse_date_sampling_rejected(self):
        # long span but only two distinct dates cannot pin 7 coefficients
        dates = np.array([0.0, 800.0] * 10)
        series = np.zeros((20, 1, 2, 2))
        with pytest.raises(MT.MetricsError, match="rank"):
            MT.fit_climatology(series, dates)

    def test_non_finite_series_rejected(self):
        series = np.zeros((800, 1, 2, 2))
        series[3, 0, 0, 0] = np.nan
        with pytest.raises(MT.MetricsError, match="finite"):
            MT.fit_climatology(series, self.dates(800))

    def test_harmonic_count_configurable(self):
        series = np.zeros((800, 1, 2, 2))
        table = MT.fit_climatology(series, self.dates(800), n_harmonics=1)
        assert table.coeffs.shape[0] == 3

    def test_negative_harmonic_count_rejected(self):
        series = np.random.default_rng(46).standard_normal((800, 1, 2, 4))
        with pytest.raises(MT.MetricsError, match="n_harmonics"):
            MT.fit_climatology(series, self.dates(800), n_harmonics=-1)

    @pytest.mark.parametrize("shape", FIT_SHAPES)
    @pytest.mark.parametrize("n_harmonics", [0, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fit_bits_equal_loop_oracle(self, shape, n_harmonics, dtype):
        series, dates = fit_case(shape, dtype)
        table = MT.fit_climatology(series, dates, n_harmonics=n_harmonics)
        want = fit_oracle(series, dates, n_harmonics)
        assert table.coeffs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", FIT_SHAPES)
    @pytest.mark.parametrize("n_harmonics", [0, 3])
    def test_fit_near_whole_array_lstsq(self, shape, n_harmonics):
        series, dates = fit_case(shape, np.float32)
        want = np.linalg.lstsq(MT.harmonic_design(dates, n_harmonics),
                               series.astype(np.float64).reshape(shape[0], -1), rcond=None)[0]
        got = MT.fit_climatology(series, dates, n_harmonics=n_harmonics).coeffs
        gap = np.abs(got.reshape(want.shape) - want).max()
        assert gap <= 1e-12 * np.abs(want).max(), gap

    def test_ill_conditioned_dates_rejected(self):
        # ten consecutive days and one two years on: full rank, but cond(A)
        # is 1.1e10, so the fitted coefficients carry no correct digit
        dates = np.append(np.arange(10.0), 730.0)
        with pytest.raises(MT.MetricsError, match="rank"):
            MT.fit_climatology(np.ones((11, 1, 1, 2)), dates)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_date_rejected(self, bad):
        dates = np.arange(800.0)
        dates[400] = bad
        with pytest.raises(MT.MetricsError, match="non-finite"):
            MT.fit_climatology(np.ones((800, 1, 1, 2)), dates)

    def test_fit_keeps_lstsq_accuracy_on_clustered_dates(self):
        # thirty consecutive days and one two years on: cond(A) is 1.2e7,
        # just under MAX_DESIGN_COND, and normal equations (cond squared)
        # miss this exact fit by 2e-3
        dates = np.append(np.arange(30.0), 730.0)
        assert np.linalg.cond(MT.harmonic_design(dates, 3)) < MT.MAX_DESIGN_COND
        table = MT.fit_climatology(np.ones((31, 1, 1, 2)), dates)
        want = np.zeros_like(table.coeffs)
        want[0] = 1.0
        assert np.abs(table.coeffs - want).max() < 1e-5

    def test_fit_bits_equal_on_every_blas_kernel_and_thread_count(self):
        runs = run_per_core(FIT_PER_CORE)
        if not runs:
            pytest.skip("no OpenBLAS kernel of numpy's bundled library could be selected")
        hashes = {core: out.split() for core, out in runs.items()}
        assert len({h for both in hashes.values() for h in both}) == 1, hashes

    def test_float32_fit_holds_about_one_float64_channel(self):
        t, c, h, w = 740, 4, 16, 32
        series = np.random.default_rng(48).standard_normal((t, c, h, w)).astype(np.float32)
        channel = 8 * t * h * w
        _, peak = traced_peak(MT.fit_climatology, series, self.dates(t))
        assert peak < 3 * channel, (peak, channel)


class TestAcc:
    def setup_method(self):
        self.grid = GridSpec.from_shape(4, 8)
        rng = np.random.default_rng(45)
        n = 800
        self.series = rng.standard_normal((n, 2, 4, 8))
        self.table = MT.fit_climatology(self.series, np.arange(n, dtype=np.float64))

    def test_perfect_forecast_scores_exactly_one(self):
        truth = self.series[100]
        s = MT.MetricSample(truth, truth.copy(), self.grid, valid_date=100.0)
        got = MT.acc(s, self.table)
        assert np.all(got == 1.0)

    def test_mirrored_anomalies_score_minus_one(self):
        truth = self.series[50]
        ref = self.table.evaluate(50.0)
        forecast = 2.0 * ref - truth
        s = MT.MetricSample(forecast, truth, self.grid, valid_date=50.0)
        got = MT.acc(s, self.table)
        assert np.allclose(got, -1.0, rtol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(46)
        for _ in range(10):
            f = rng.standard_normal((2, 4, 8))
            t = rng.standard_normal((2, 4, 8))
            s = MT.MetricSample(f, t, self.grid, valid_date=17.0)
            ref = self.table.evaluate(17.0)
            for weighted in (True, False):
                got = MT.acc(s, self.table, weighted=weighted)
                want = acc_oracle(f, t, ref, self.grid, weighted=weighted)
                assert np.allclose(got, want, rtol=1e-12)

    def test_invariant_under_common_affine_map(self):
        rng = np.random.default_rng(47)
        f = rng.standard_normal((1, 4, 8))
        t = rng.standard_normal((1, 4, 8))
        ref = self.table.evaluate(5.0)[:1]
        base = MT.acc(MT.MetricSample(f, t, self.grid, valid_date=5.0),
                      MT.ClimatologyTable(self.table.coeffs[:, :1], 3, 0, 799))
        a, b = 3.0, -0.4
        f2 = ref[:1] + a * (f - ref[:1]) + b
        t2 = ref[:1] + a * (t - ref[:1]) + b
        # the added constant b shifts both anomaly means equally and the
        # centered fields scale by a, so the correlation is unchanged
        table1 = MT.ClimatologyTable(self.table.coeffs[:, :1], 3, 0, 799)
        moved = MT.acc(MT.MetricSample(f2, t2, self.grid, valid_date=5.0), table1)
        assert np.allclose(moved, base, rtol=1e-10)

    def test_zero_variance_rejected(self):
        ref = self.table.evaluate(3.0)
        s = MT.MetricSample(ref.copy(), self.series[3], self.grid, valid_date=3.0)
        with pytest.raises(MT.MetricsError, match="variance"):
            MT.acc(s, self.table)

    def test_coverage_mismatch_rejected(self):
        f = np.zeros((3, 4, 8))
        s = MT.MetricSample(f, f.copy(), self.grid, valid_date=0.0)
        with pytest.raises(MT.MetricsError, match="cover"):
            MT.acc(s, self.table)

    def test_two_by_two_toy_by_hand(self):
        # unweighted, zero climatology: plain spatial correlation
        grid = GridSpec.from_shape(2, 2)
        table = MT.ClimatologyTable(np.zeros((7, 1, 2, 2)), 3, 0, 800)
        f = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        t = np.array([[[1.0, 1.0], [4.0, 4.0]]])
        s = MT.MetricSample(f, t, grid, valid_date=0.0)
        got = MT.acc(s, table, weighted=False)
        df = f[0] - 2.5
        dt = t[0] - 2.5
        want = (df * dt).sum() / math.sqrt((df ** 2).sum() * (dt ** 2).sum())
        assert got[0] == pytest.approx(want, rel=1e-14)


class TestRegressionMap:
    def test_identity_member_fields(self):
        z = np.array([1.0, 2.0, 4.0, 7.0])
        x = np.tile(z[:, None, None], (1, 2, 3))
        dz = z - z.mean()
        want = math.sqrt((dz ** 2).sum())
        got = MT.regression_map(z, x)
        assert np.allclose(got, want, rtol=1e-13)

    def test_constant_fields_give_zero(self):
        z = np.array([1.0, 2.0, 3.0])
        x = np.full((3, 2, 2), 5.5)
        assert np.abs(MT.regression_map(z, x)).max() < 1e-12

    def test_five_member_brute_force(self):
        rng = np.random.default_rng(48)
        z = rng.standard_normal(5)
        x = rng.standard_normal((5, 3, 4))
        got = MT.regression_map(z, x)
        assert np.allclose(got, regression_oracle(z, x), rtol=1e-12)

    def test_linear_in_field_deviations(self):
        rng = np.random.default_rng(49)
        z = rng.standard_normal(6)
        x = rng.standard_normal((6, 2, 2))
        assert np.allclose(MT.regression_map(z, 2.0 * x), 2.0 * MT.regression_map(z, x),
                           rtol=1e-14)

    def test_too_few_members_rejected(self):
        with pytest.raises(MT.MetricsError, match="two members"):
            MT.regression_map(np.array([1.0]), np.zeros((1, 2, 2)))

    def test_zero_index_variance_rejected(self):
        with pytest.raises(MT.MetricsError, match="variance"):
            MT.regression_map(np.array([2.0, 2.0, 2.0]), np.zeros((3, 2, 2)))

    def test_member_count_mismatch_rejected(self):
        with pytest.raises(MT.MetricsError, match="member"):
            MT.regression_map(np.array([1.0, 2.0]), np.zeros((3, 2, 2)))


class TestMetricsCsv:
    def test_deterministic_bytes(self, tmp_path):
        rows = [("T850", 3, "rmse", 1.25), ("Z500", 3, "acc", 0.875)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        MT.metrics_to_csv(rows, p1)
        MT.metrics_to_csv(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "channel,lead_days,metric,value"
        assert lines[1] == "T850,3,rmse,1.25"
