"""File format, normalization, synthetic generator, and pair plumbing.

The generator checks pin the two properties the rest of the suite leans
on: exact zonal rolls at tilt 0 (padding equivariance oracles) and
pole-crossing trajectories at tilt 90 (the regime that separates
sphere-aware padding from flat padding).
"""

import math
import os
import struct
import tracemalloc

import numpy as np
import pytest

from karina import data as D
from karina import metrics as MT
from karina.model import ModelConfig, build
from karina.training import TrainConfig, train
from blas_helpers import openblas_core


def small_spec(**kw):
    base = dict(n_days=12, seed=3, n_blob_channels=2, tilt_deg=0.0,
                speed_deg_per_day=15.0, blob_width_deg=20.0, noise=0.0,
                n_lat=12, n_lon=24, start_day=0)
    base.update(kw)
    return D.SyntheticSpec(**base)


def zero_extent_grid(axis):
    """GFLD bytes whose header gives (time, channel, lat, lon) axis the
    extent 0, and so no payload; GridFile refuses that, so it is built
    by hand."""
    extents = [2, 1, 4, 8]
    extents[axis] = 0
    t, c = extents[:2]
    return (b"GFLD" + struct.pack("<5I", 1, *extents) + struct.pack(f"<{t}I", *range(1, t + 1))
            + b"".join(struct.pack("<I", 1) + b"T" for _ in range(c)))


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes tracemalloc saw during the call;
    numpy reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def stats_oracle(values):
    # per-channel mean/std over every sample, fsum accumulation
    t, c, h, w = values.shape
    mean = np.zeros(c)
    std = np.zeros(c)
    for ch in range(c):
        flat = values[:, ch].astype(np.float64).ravel()
        mean[ch] = math.fsum(flat) / flat.size
        std[ch] = math.sqrt(math.fsum((flat - mean[ch]) ** 2) / flat.size)
    return mean, std


class TestGridFileContainer:
    def make(self, t=3, c=2, h=4, w=8):
        rng = np.random.default_rng(60)
        return D.GridFile(
            channels=tuple(f"C{k}" for k in range(c)),
            dates=np.arange(t, dtype=np.uint32),
            values=rng.standard_normal((t, c, h, w)).astype(np.float32),
        )

    def test_basic_properties(self):
        gf = self.make()
        assert gf.n_time == 3
        assert gf.grid.n_lat == 4
        assert gf.channels == ("C0", "C1")

    def test_duplicate_channel_names_rejected(self):
        with pytest.raises(D.DataError, match="unique"):
            D.GridFile(("A", "A"), np.arange(2, dtype=np.uint32),
                       np.zeros((2, 2, 4, 8), np.float32))

    def test_empty_channel_name_rejected(self):
        with pytest.raises(D.DataError, match="nonempty"):
            D.GridFile(("A", ""), np.arange(1, dtype=np.uint32),
                       np.zeros((1, 2, 4, 8), np.float32))

    @pytest.mark.parametrize("name", ["a,b", "OR\nOG", "OR\rOG"])
    def test_csv_unsafe_channel_name_rejected(self, name):
        with pytest.raises(D.DataError, match="CSV cell"):
            D.GridFile(("A", name), np.arange(1, dtype=np.uint32),
                       np.zeros((1, 2, 4, 8), np.float32))

    def test_date_count_must_match(self):
        with pytest.raises(D.DataError, match="dates"):
            D.GridFile(("A",), np.arange(3, dtype=np.uint32),
                       np.zeros((2, 1, 4, 8), np.float32))

    def test_dates_must_increase(self):
        with pytest.raises(D.DataError, match="increasing"):
            D.GridFile(("A",), np.array([3, 3], dtype=np.uint32),
                       np.zeros((2, 1, 4, 8), np.float32))

    @pytest.mark.parametrize("dates", [[-1, 0], [D.MAX_DAY, D.MAX_DAY + 1], [0.0, np.nan]])
    def test_day_stamps_outside_u32_rejected(self, dates):
        # a u32 cast would wrap these, or make NaN a day
        with pytest.raises(D.DataError, match="day stamps must lie in 0..4294967295"):
            D.GridFile(("A",), np.array(dates), np.zeros((2, 1, 4, 8), np.float32))

    def test_last_u32_day_kept(self):
        gf = D.GridFile(("A",), np.array([D.MAX_DAY - 1, D.MAX_DAY], dtype=np.int64),
                        np.zeros((2, 1, 4, 8), np.float32))
        assert gf.dates.dtype == np.uint32
        assert gf.dates.tolist() == [D.MAX_DAY - 1, D.MAX_DAY]

    def test_rank_checked(self):
        with pytest.raises(D.DataError, match="time, channel"):
            D.GridFile(("A",), np.arange(2, dtype=np.uint32),
                       np.zeros((2, 4, 8), np.float32))


class TestGridFileIO:
    def make(self):
        rng = np.random.default_rng(61)
        return D.GridFile(
            channels=("T", "LONGNAME22", "Z"),
            dates=np.array([10, 11, 13], dtype=np.uint32),
            values=rng.standard_normal((3, 3, 4, 8)).astype(np.float32),
        )

    def test_round_trip_is_bit_exact(self, tmp_path):
        gf = self.make()
        path = tmp_path / "a.grid"
        D.write_grid(gf, path)
        back = D.read_grid(path)
        assert back.channels == gf.channels
        assert np.array_equal(back.dates, gf.dates)
        assert back.values.tobytes() == gf.values.tobytes()

    def test_file_size_matches_formula(self, tmp_path):
        gf = self.make()
        path = tmp_path / "a.grid"
        D.write_grid(gf, path)
        assert os.path.getsize(path) == D.grid_file_size(gf)
        # header fixed part + dates + (len word + bytes) per name + payload
        want = 24 + 4 * 3 + (4 + 1) + (4 + 10) + (4 + 1) + 4 * 3 * 3 * 4 * 8
        assert D.grid_file_size(gf) == want

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "a.grid"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(D.DataError, match="magic"):
            D.read_grid(path)

    def test_bad_version_rejected(self, tmp_path):
        gf = self.make()
        path = tmp_path / "a.grid"
        D.write_grid(gf, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(D.DataError, match="version 9"):
            D.read_grid(path)

    def test_truncation_reports_expected_and_actual(self, tmp_path):
        gf = self.make()
        path = tmp_path / "a.grid"
        D.write_grid(gf, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(D.DataError, match=f"expected {len(raw)} bytes, got {len(raw) - 10}"):
            D.read_grid(path)

    def test_deep_truncation_in_header(self, tmp_path):
        gf = self.make()
        path = tmp_path / "a.grid"
        D.write_grid(gf, path)
        path.write_bytes(path.read_bytes()[:14])
        with pytest.raises(D.DataError, match="truncated"):
            D.read_grid(path)

    def test_non_utf8_channel_name_rejected(self, tmp_path):
        gf = self.make()
        path = tmp_path / "a.grid"
        D.write_grid(gf, path)
        raw = bytearray(path.read_bytes())
        raw[24 + 4 * 3 + 4] ^= 0x80  # first byte of the first name
        path.write_bytes(bytes(raw))
        with pytest.raises(D.DataError, match="channel name 0 is not UTF-8"):
            D.read_grid(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        gf = self.make()
        path = tmp_path / "a.grid"
        D.write_grid(gf, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(D.DataError, match="trailing"):
            D.read_grid(path)

    @pytest.mark.parametrize("axis", range(4))
    def test_zero_extent_is_data_error(self, tmp_path, axis):
        path = tmp_path / "a.grid"
        path.write_bytes(zero_extent_grid(axis))
        with pytest.raises(D.DataError, match="degenerate extent"):
            D.read_grid(path)

    def test_written_bytes_deterministic(self, tmp_path):
        gf = self.make()
        p1, p2 = tmp_path / "a.grid", tmp_path / "b.grid"
        D.write_grid(gf, p1)
        D.write_grid(gf, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_extent_claiming_more_than_the_file_is_data_error(self, tmp_path):
        # n_lat = 2^32 - 1 claims about 1.2 TB of payload; the header
        # check must refuse it before anything that size is allocated
        gf = self.make()
        path = tmp_path / "a.grid"
        D.write_grid(gf, path)
        raw = bytearray(path.read_bytes())
        raw[16:20] = struct.pack("<I", 0xFFFFFFFF)
        path.write_bytes(bytes(raw))
        want = len(raw) - gf.values.nbytes + 4 * 3 * 3 * 0xFFFFFFFF * 8
        with pytest.raises(D.DataError, match=f"truncated file: expected {want} bytes"):
            D.read_grid(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_is_data_error(self, tmp_path, bad):
        gf = self.make()
        gf.values[2, 1, 3, 7] = bad
        path = tmp_path / "a.grid"
        D.write_grid(gf, path)
        with pytest.raises(D.DataError, match="payload holds a non-finite value"):
            D.read_grid(path)

    def test_directory_is_data_error_naming_the_path(self, tmp_path):
        with pytest.raises(D.DataError, match=f"cannot read grid file {tmp_path}"):
            D.read_grid(tmp_path)

    def test_read_holds_one_copy_of_the_payload(self, tmp_path):
        rng = np.random.default_rng(62)
        gf = D.GridFile(channels=("A", "B", "C"), dates=np.arange(40, dtype=np.uint32),
                        values=rng.standard_normal((40, 3, 32, 64)).astype(np.float32))
        path = tmp_path / "a.grid"
        D.write_grid(gf, path)
        back, peak = traced_peak(D.read_grid, path)
        assert back.values.tobytes() == gf.values.tobytes()
        assert peak < 1.1 * gf.values.nbytes, (peak, gf.values.nbytes)


class TestNormalization:
    def noisy_file(self):
        gf = D.generate_synthetic(small_spec(n_days=40, noise=0.05, seed=7))
        return gf

    def test_stats_match_loop_oracle(self):
        gf = self.noisy_file()
        stats = D.compute_norm_stats(gf)
        mean, std = stats_oracle(gf.values)
        free = gf.values.min(axis=(0, 2, 3)) < gf.values.max(axis=(0, 2, 3))
        assert np.allclose(stats.mean[free], mean[free], rtol=1e-12)
        assert np.allclose(stats.std[free], std[free], rtol=1e-12)

    def test_normalized_training_data_is_standard(self):
        gf = self.noisy_file()
        stats = D.compute_norm_stats(gf)
        z = D.normalize(gf.values, stats)
        for c in range(len(gf.channels)):
            if gf.values[:, c].min() == gf.values[:, c].max():
                continue
            flat = z[:, c].astype(np.float64).ravel()
            assert abs(flat.mean()) < 1e-5
            assert abs(flat.std() - 1.0) < 1e-4

    def test_constant_channel_flagged_and_exactly_zero(self):
        vals = np.zeros((5, 2, 4, 8), np.float32)
        vals[:, 0] = np.linspace(0, 1, 5 * 32, dtype=np.float32).reshape(5, 4, 8)
        vals[:, 1] = 3.25
        gf = D.GridFile(("A", "K"), np.arange(5, dtype=np.uint32), vals)
        stats = D.compute_norm_stats(gf)
        assert stats.std[0] != 1.0
        assert stats.mean[1] == 3.25 and stats.std[1] == 1.0
        z = D.normalize(gf.values, stats)
        assert np.all(z[:, 1] == 0.0)

    def test_round_trip_within_float32_rounding(self):
        gf = self.noisy_file()
        stats = D.compute_norm_stats(gf)
        back = D.denormalize(D.normalize(gf.values, stats), stats)
        assert np.abs(back - gf.values).max() < 1e-5

    def test_normalize_never_mutates_stats(self):
        gf = self.noisy_file()
        stats = D.compute_norm_stats(gf)

        def state(s):
            return s.mean.tobytes() + s.std.tobytes()

        before = state(stats)
        D.normalize(gf.values, stats)
        D.denormalize(gf.values[:2], stats)
        assert state(stats) == before

    def test_channel_count_mismatch_rejected(self):
        gf = self.noisy_file()
        stats = D.compute_norm_stats(gf)
        with pytest.raises(D.DataError, match="channels"):
            D.normalize(gf.values[:, :2], stats)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_training_data_rejected(self, bad):
        vals = np.zeros((2, 1, 4, 8), np.float32)
        vals[1, 0, 0, 0] = bad
        gf = D.GridFile(("A",), np.arange(2, dtype=np.uint32), vals)
        with pytest.raises(D.DataError, match="finite"):
            D.compute_norm_stats(gf)

    def test_preserves_dtype(self):
        gf = self.noisy_file()
        stats = D.compute_norm_stats(gf)
        assert D.normalize(gf.values, stats).dtype == np.float32
        assert D.normalize(gf.values.astype(np.float64), stats).dtype == np.float64

    @pytest.mark.parametrize("shape", [(40, 4, 12, 24), (7, 3, 5, 10), (731, 2, 3, 7), (1, 1, 1, 2),
                                       # T*H*W: one stats block, one more value, not a
                                       # multiple of 8, and many blocks
                                       (8, 2, 64, 64), (9, 2, 11, 331), (97, 2, 33, 65),
                                       (300, 2, 32, 64)])
    def test_stats_bits_equal_whole_array_formula(self, shape):
        # the formula per-channel reduction replaced: one float64
        # transpose of every channel, reduced along axis 1
        rng = np.random.default_rng(63)
        vals = (rng.standard_normal(shape) * 3.0 + 250.0).astype(np.float32)
        if shape[1] > 1:
            vals[:, -1] = 1.5   # a constant channel
        gf = D.GridFile(tuple(f"C{k}" for k in range(shape[1])),
                        np.arange(shape[0], dtype=np.uint32), vals)
        flat = vals.transpose(1, 0, 2, 3).reshape(shape[1], -1).astype(np.float64)
        lo, hi = flat.min(axis=1), flat.max(axis=1)
        constant = lo == hi
        mean, std = flat.mean(axis=1), flat.std(axis=1)
        mean[constant] = lo[constant]
        std[constant] = 1.0
        stats = D.compute_norm_stats(gf)
        core = f"OpenBLAS core {openblas_core()}"
        assert stats.mean.tobytes() == mean.tobytes(), core
        assert stats.std.tobytes() == std.tobytes(), core

    @pytest.mark.parametrize("block", [8, 128, 1000])
    @pytest.mark.parametrize("shape", [(7, 3, 5, 10), (731, 2, 3, 7), (97, 2, 33, 65)])
    def test_stats_bits_hold_at_any_block(self, monkeypatch, block, shape):
        monkeypatch.setattr(D, "_STATS_BLOCK", block)
        self.test_stats_bits_equal_whole_array_formula(shape)

    @pytest.mark.parametrize("block", [128, None])
    def test_pairwise_sum_is_numpys(self, monkeypatch, block):
        # a canary: if a numpy release changes how its float64 sum splits
        # a run, this fails before the stats' bits move
        if block:
            monkeypatch.setattr(D, "_STATS_BLOCK", block)
        a = np.random.default_rng(65).standard_normal(10**6) * 1e3
        for n in [*range(1, 301), 10**6]:
            got = D._pairwise_sum(lambda i, m: a[i:i + m], 0, n)
            assert got.tobytes() == np.add.reduce(a[:n]).tobytes(), \
                f"numpy's float64 pairwise split rule changed (n={n})"

    @pytest.mark.parametrize("t", [1, 8, 60, 200])
    def test_stats_peak_is_two_blocks_at_any_length(self, t):
        rng = np.random.default_rng(66)
        gf = D.GridFile(("A", "B"), np.arange(t, dtype=np.uint32),
                        rng.standard_normal((t, 2, 32, 64)).astype(np.float32))
        _, peak = traced_peak(D.compute_norm_stats, gf)
        assert peak < 2 * 8 * D._STATS_BLOCK + 64 * 1024, peak

    def test_stats_hold_about_one_float64_channel(self):
        rng = np.random.default_rng(64)
        t, c, h, w = 60, 4, 32, 64
        gf = D.GridFile(tuple(f"C{k}" for k in range(c)), np.arange(t, dtype=np.uint32),
                        rng.standard_normal((t, c, h, w)).astype(np.float32))
        channel = 8 * t * h * w
        _, peak = traced_peak(D.compute_norm_stats, gf)
        assert peak < 3 * channel, (peak, channel)


class TestSyntheticSpec:
    @pytest.mark.parametrize("kw,frag", [
        (dict(n_days=0), "n_days"),
        (dict(n_blob_channels=0), "advected"),
        (dict(speed_deg_per_day=0.0), "speed"),
        (dict(tilt_deg=-1.0), "tilt"),
        (dict(tilt_deg=90.5), "tilt"),
        (dict(blob_width_deg=0.0), "width"),
        (dict(noise=-0.1), "noise"),
        (dict(start_day=-1), "start_day"),
    ])
    def test_invalid_fields_rejected(self, kw, frag):
        with pytest.raises(D.DataError, match=frag):
            small_spec(**kw)

    @pytest.mark.parametrize("start_day,n_days", [(D.MAX_DAY + 1, 1), (D.MAX_DAY - 5, 30)])
    def test_days_past_the_last_stamp_rejected(self, start_day, n_days):
        with pytest.raises(D.DataError, match=f"start_day {start_day} with {n_days} days"):
            small_spec(start_day=start_day, n_days=n_days)

    def test_days_up_to_the_last_stamp_generate(self):
        gf = D.generate_synthetic(small_spec(start_day=D.MAX_DAY - 2, n_days=3))
        assert gf.dates.tolist() == [D.MAX_DAY - 2, D.MAX_DAY - 1, D.MAX_DAY]

    def test_channel_names(self):
        assert small_spec(n_blob_channels=3).channels == ("TR01", "TR02", "TR03", "SEAS", "OROG")


class TestSyntheticGenerator:
    def test_same_seed_same_bytes(self, tmp_path):
        spec = small_spec(noise=0.02)
        a = D.generate_synthetic(spec)
        b = D.generate_synthetic(spec)
        assert a.values.tobytes() == b.values.tobytes()
        p1, p2 = tmp_path / "a.grid", tmp_path / "b.grid"
        D.write_grid(a, p1)
        D.write_grid(b, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_changes_fields(self):
        a = D.generate_synthetic(small_spec(seed=1))
        b = D.generate_synthetic(small_spec(seed=2))
        assert not np.array_equal(a.values[:, 0], b.values[:, 0])

    def test_zonal_roll_is_exact_at_tilt_zero(self):
        # speed is two columns per day on this grid, so day k must equal
        # day 0 rolled by 2k columns, bit for bit, on advected channels
        spec = small_spec(n_days=8, speed_deg_per_day=30.0, n_lat=12, n_lon=24)
        fs = D.SyntheticField(spec)
        f0 = fs.frame(0)
        delta = 360.0 / spec.n_lon
        for k in (1, 2, 5, 7):
            fk = fs.frame(k)
            m = round(k * spec.speed_deg_per_day / delta)
            for c in range(spec.n_blob_channels):
                assert np.array_equal(fk[c], np.roll(f0[c], m, axis=-1)), (k, c)

    def test_tilt_ninety_crosses_both_poles(self):
        spec = small_spec(n_days=48, tilt_deg=90.0, speed_deg_per_day=15.0,
                          n_lat=24, n_lon=48)
        fs = D.SyntheticField(spec)
        rows = []
        for t in range(spec.n_days):
            f = fs.frame(t)[0]
            rows.append(int(np.unravel_index(np.argmax(f), f.shape)[0]))
        assert 0 in rows
        assert spec.n_lat - 1 in rows

    def test_weighted_mean_conserved_under_advection(self):
        for noise in (0.0, 0.05):
            spec = small_spec(n_days=60, tilt_deg=90.0, speed_deg_per_day=15.0,
                              n_lat=24, n_lon=48, noise=noise)
            gf = D.generate_synthetic(spec)
            w = MT.latitude_weights(gf.grid)[None, :, None]
            for c in range(spec.n_blob_channels):
                means = (w * gf.values[:, c].astype(np.float64)).sum(axis=(-2, -1))
                means /= spec.n_lat * spec.n_lon
                assert np.abs(means - means[0]).max() < 1e-3

    def test_seasonal_channel_is_uniform_and_matches_formula(self):
        spec = small_spec(n_days=5, start_day=40)
        fs = D.SyntheticField(spec)
        for t in (0, 2, 4.5):
            field = fs.frame(t)[spec.n_blob_channels]
            assert field.min() == field.max()
            doy = (40 + t) % 365.25
            want = 0.0
            for k, (a, b) in enumerate(D.SEAS_COEFFS, start=1):
                ang = 2 * math.pi * k * doy / 365.25
                want += a * math.cos(ang) + b * math.sin(ang)
            assert field[0, 0] == pytest.approx(want, rel=1e-12)

    def test_orography_static_and_seed_independent(self):
        a = D.generate_synthetic(small_spec(seed=1))
        b = D.generate_synthetic(small_spec(seed=9))
        oi = a.channels.index("OROG")
        assert np.array_equal(a.values[0, oi], a.values[-1, oi])
        assert np.array_equal(a.values[0, oi], b.values[0, oi])
        assert a.values[0, oi].std() > 0.1

    def test_noise_perturbs_blob_channels_only(self):
        quiet = D.generate_synthetic(small_spec(noise=0.0))
        loud = D.generate_synthetic(small_spec(noise=0.05))
        assert not np.array_equal(quiet.values[:, 0], loud.values[:, 0])
        si = quiet.channels.index("SEAS")
        oi = quiet.channels.index("OROG")
        assert np.array_equal(quiet.values[:, si], loud.values[:, si])
        assert np.array_equal(quiet.values[:, oi], loud.values[:, oi])

    def test_fractional_time_interpolates_motion(self):
        fs = D.SyntheticField(small_spec())
        f0, fh, f1 = fs.frame(0)[0], fs.frame(0.5)[0], fs.frame(1)[0]
        assert np.isfinite(fh).all()
        assert not np.array_equal(fh, f0)
        assert not np.array_equal(fh, f1)

    def test_dates_carry_start_day(self):
        gf = D.generate_synthetic(small_spec(n_days=4, start_day=100))
        assert list(gf.dates) == [100, 101, 102, 103]

    def test_static_channel_mask_finds_orography(self):
        gf = D.generate_synthetic(small_spec(noise=0.02))
        mask = D.static_channel_mask(gf)
        want = [c == "OROG" for c in gf.channels]
        assert list(mask) == want


class TestPairs:
    def sources(self, n_days=6, **kw):
        spec = small_spec(n_days=n_days, **kw)
        gf = D.generate_synthetic(spec)
        stats = D.compute_norm_stats(gf)
        return spec, gf, stats

    def test_pair_count_and_dates(self):
        spec, gf, stats = self.sources()
        ps = D.FileSource(gf, stats).pairs()
        assert ps.x.shape[0] == 5
        z = D.normalize(gf.values, stats)
        assert ps.x.tobytes() == z[:5].tobytes()   # input days 0..4
        assert ps.y.tobytes() == z[1:].tobytes()   # each the day after

    def test_lead_bounds_checked(self):
        spec, gf, stats = self.sources(n_days=1)
        with pytest.raises(D.DataError, match="one-day lead needs at least two records"):
            D.FileSource(gf, stats)
        with pytest.raises(D.DataError, match="one-day lead needs at least two records"):
            D.SyntheticSource(D.SyntheticField(spec), stats)

    def test_target_denormalizes_to_stored_day(self):
        spec, gf, stats = self.sources()
        ps = D.FileSource(gf, stats).pairs()
        for k in range(ps.x.shape[0]):
            back = D.denormalize(ps.y[k], stats)
            assert np.abs(back - gf.values[k + 1]).max() < 1e-5

    def test_file_source_refuses_sub_daily_lags(self):
        spec, gf, stats = self.sources()
        src = D.FileSource(gf, stats)
        with pytest.raises(D.DataError, match="lag 6 unavailable"):
            src.lag_pairs((0, 6))
        zero = src.lag_pairs((0,))
        plain = src.pairs()
        assert zero.x.tobytes() == plain.x.tobytes()

    def test_synthetic_lag_counts(self):
        spec, gf, stats = self.sources(n_days=5)
        src = D.SyntheticSource(D.SyntheticField(spec), stats)
        assert src.lag_pairs((0, 12)).x.shape[0] == 2 * 4
        assert src.lag_pairs((0, 6, 12, 18)).x.shape[0] == 4 * 4
        assert src.lag_pairs(tuple(range(24))).x.shape[0] == 24 * 4

    def test_synthetic_lag_zero_matches_file_source_exactly(self):
        spec, gf, stats = self.sources(n_days=7, noise=0.03)
        fsrc = D.FileSource(gf, stats)
        ssrc = D.SyntheticSource(D.SyntheticField(spec), stats)
        a = fsrc.pairs()
        b = ssrc.lag_pairs((0,))
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    def test_lag_pairs_equal_frame_by_frame(self):
        spec, gf, stats = self.sources(n_days=6, noise=0.03, start_day=40)
        src = D.SyntheticSource(D.SyntheticField(spec), stats)
        got = src.lag_pairs((0, 12, 23))
        want_x, want_y = [], []
        for lag in (0, 12, 23):
            for k in range(spec.n_days - 1):
                want_x.append(src._normalized_frame(k + lag / 24.0))
                want_y.append(src._normalized_frame(k + 1 + lag / 24.0))
        assert got.x.tobytes() == np.stack(want_x).tobytes()
        assert got.y.tobytes() == np.stack(want_y).tobytes()

    def test_nonzero_lag_shifts_inputs(self):
        spec, gf, stats = self.sources(n_days=4)
        src = D.SyntheticSource(D.SyntheticField(spec), stats)
        a = src.lag_pairs((0,))
        b = src.lag_pairs((12,))
        assert not np.array_equal(a.x, b.x)

    def test_lag_validation(self):
        spec, gf, stats = self.sources()
        src = D.SyntheticSource(D.SyntheticField(spec), stats)
        with pytest.raises(D.DataError, match="unique"):
            D.lag_augment(src, (0, 0))
        with pytest.raises(D.DataError, match=r"\[0, 23\]"):
            D.lag_augment(src, (24,))
        with pytest.raises(D.DataError, match="at least one"):
            D.lag_augment(src, ())

    def test_lag_augment_delegates_to_source(self):
        spec, gf, stats = self.sources(n_days=4)
        src = D.SyntheticSource(D.SyntheticField(spec), stats)
        got = D.lag_augment(src, (0, 12))
        assert got.x.shape[0] == 2 * 3

    def test_file_pairs_are_views_that_train_leaves_unchanged(self):
        spec, gf, stats = self.sources(n_days=12, n_lat=8, n_lon=16, noise=0.05)
        ps = D.FileSource(gf, stats).pairs()
        val = D.FileSource(D.GridFile(gf.channels, gf.dates[::2], gf.values[::2]), stats).pairs()
        assert np.shares_memory(ps.x, ps.y)
        before = [a.tobytes() for a in (ps.x, ps.y, val.x, val.y)]
        cfg = ModelConfig(in_channels=len(gf.channels), out_channels=len(gf.channels),
                          stage_dims=(4,), depths=(1,))
        train(build(cfg, seed=1), ps, TrainConfig(epochs=2, batch_size=4, lr=0.01),
              val_pairs=val)
        assert [a.tobytes() for a in (ps.x, ps.y, val.x, val.y)] == before

    def test_pair_set_shape_check(self):
        with pytest.raises(D.DataError, match="disagree"):
            D.PairSet(np.zeros((2, 1, 4, 8)), np.zeros((3, 1, 4, 8)))
