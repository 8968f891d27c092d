"""Gridded file I/O, z-score normalization, lag augmentation, and a
synthetic spherical-advection generator.

The generator moves Gaussian blobs by solid-body rotation about an axis
tilted away from the planetary axis.  Tilt 0 gives zonal flow; tilt 90
drives every blob straight across both poles, which is the regime that
separates sphere-aware padding from flat alternatives.  Fields are
analytic in time, so sub-daily lag offsets are sampled exactly rather
than interpolated.

Two exactness properties are load-bearing and intentional:
  - with tilt 0 and speeds that are integer multiples of the grid
    spacing per day, advected channels at day k are bit-identical to
    day 0 rolled along longitude (blob azimuths are snapped to 1/16
    degree and the azimuth difference is reduced mod 360 before any
    transcendental, so equal angles have equal bits);
  - the lag-0 analytic view normalizes to the same float32 values as
    the stored daily file, so a degenerate fine-tune phase reproduces
    plain training exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from karina.files import CSV_UNSAFE, RecordReader, atomic_open, write_str, write_u32
from karina.metrics import PERIOD_DAYS, spatial_mean
from karina.padding import GridSpec

GRID_MAGIC = b"GFLD"
GRID_VERSION = 1
# a .grid file stores each day stamp as a u32
MAX_DAY = 2**32 - 1


class DataError(Exception):
    """Malformed file, bad spec, or an unsatisfiable request."""


# ---------------------------------------------------------------------------
# gridded container


@dataclass
class GridFile:
    """In-memory gridded series: (time, channel, lat, lon) float32."""

    channels: tuple
    dates: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.channels = tuple(str(c) for c in self.channels)
        if len(set(self.channels)) != len(self.channels):
            raise DataError("channel names must be unique")
        if any(not c for c in self.channels):
            raise DataError("channel names must be nonempty")
        unsafe = [name for name in self.channels if any(ch in name for ch in CSV_UNSAFE)]
        if unsafe:
            raise DataError(f"channel name {unsafe[0]!r} holds a character a CSV cell may not hold")
        dates = np.asarray(self.dates)
        if dates.size and not (0 <= dates.min() and dates.max() <= MAX_DAY):
            raise DataError(f"day stamps must lie in 0..{MAX_DAY}, got {dates.min()}..{dates.max()}")
        self.dates = np.asarray(dates, dtype=np.uint32)
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        if self.values.ndim != 4:
            raise DataError(f"values must be (time, channel, lat, lon), got shape {self.values.shape}")
        t, c, h, w = self.values.shape
        if t < 1 or c < 1 or h < 1 or w < 1:
            raise DataError(f"degenerate extent in {self.values.shape}")
        if c != len(self.channels):
            raise DataError(f"{len(self.channels)} channel names for {c} channels")
        if self.dates.shape != (t,):
            raise DataError(f"{self.dates.shape[0] if self.dates.ndim else 0} dates for {t} records")
        if t > 1 and not np.all(np.diff(self.dates.astype(np.int64)) > 0):
            raise DataError("dates must be strictly increasing")

    @property
    def n_time(self):
        return self.values.shape[0]

    @property
    def grid(self):
        return GridSpec.from_shape(self.values.shape[2], self.values.shape[3])


def grid_file_size(gf):
    """Exact on-disk byte count for the binary layout."""
    t, c, h, w = gf.values.shape
    names = sum(4 + len(name.encode("utf-8")) for name in gf.channels)
    return 4 + 4 + 16 + 4 * t + names + 4 * t * c * h * w


def write_grid(gf, path):
    with atomic_open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        write_u32(fh, GRID_VERSION, *gf.values.shape)
        fh.write(gf.dates.astype("<u4").tobytes())
        for name in gf.channels:
            write_str(fh, name)
        fh.write(gf.values.astype("<f4").tobytes())


def read_grid(path):
    """Read a GFLD file into one (time, channel, lat, lon) float32 array.

    The header is checked against the file size before the payload is
    allocated, and the payload is read straight into that array, so a
    read holds one copy of the file.  An unreadable path raises
    DataError naming it.
    """
    try:
        with open(path, "rb") as fh:
            rec = RecordReader(fh, DataError)
            magic = rec.bytes(4, "magic")
            if magic != GRID_MAGIC:
                raise DataError(f"bad magic {magic!r}")
            version, t, c, h, w = rec.u32(5, "header")
            if version != GRID_VERSION:
                raise DataError(f"unsupported version {version}")
            dates = rec.u32(t, "dates")
            names = tuple(rec.text(f"channel name {i}") for i in range(c))
            values = rec.f32((t, c, h, w), "payload")
            rec.end()
    except OSError as err:
        raise DataError(f"cannot read grid file {path}: {err}") from None
    return GridFile(channels=names, dates=dates, values=values)


# ---------------------------------------------------------------------------
# z-score normalization


@dataclass(frozen=True)
class NormStats:
    """Per-channel mean and std from the training period.

    Constant channels get std 1, with the mean set to the exact constant
    so their normalized values are exactly zero.
    """

    channels: tuple
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if np.any(self.std <= 0):
            raise DataError("stats std must be positive")


# float64 values in compute_norm_stats' one buffer (256 KiB); numpy sums a
# run of at most _PAIRWISE_LEAF values with 8 accumulators, unsplit
_STATS_BLOCK, _PAIRWISE_LEAF = 1 << 15, 128


def _pairwise_sum(get, lo, n):
    """numpy's float64 sum of the n values get(lo, n) returns: a run longer
    than max(_STATS_BLOCK, _PAIRWISE_LEAF) splits as numpy's does, and a
    shorter one goes to np.add.reduce."""
    if n <= max(_STATS_BLOCK, _PAIRWISE_LEAF):
        return np.add.reduce(get(lo, n))
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(get, lo, half) + _pairwise_sum(get, lo + half, n - half)


def _channel_block(buf, rows, i, n, center=None):
    """Values i..i+n of the (t, h*w) float32 view `rows`, row-major, as
    float64 in buf[:n]; given a center, (x - center)² in place."""
    out, width = buf[:n], rows.shape[1]
    t, j = divmod(i, width)
    head = min(n, width - j)
    full, tail = divmod(n - head, width)
    out[:head] = rows[t, j:j + head]
    out[head:n - tail].reshape(full, width)[...] = rows[t + 1:t + 1 + full]
    if tail:
        out[n - tail:] = rows[t + 1 + full, :tail]
    if center is not None:
        np.subtract(out, center, out=out)
        np.multiply(out, out, out=out)
    return out


def compute_norm_stats(gf):
    """Per-channel stats: min and max of the float32 channel (NaN reaches
    both, an infinity one), then np.mean's and np.std's bits over the
    channel widened to float64, through one 256 KiB buffer.  The bits hold
    because numpy sums a contiguous float64 run pairwise: a run of more
    than 128 values splits at n // 2 rounded down to a multiple of 8, so
    `_pairwise_sum` follows those splits down to one block and sums each."""
    t, c, h, w = gf.values.shape
    n, buf = t * h * w, np.empty(max(_STATS_BLOCK, _PAIRWISE_LEAF))
    lo, hi, mean, std = (np.empty(c) for _ in range(4))
    for k in range(c):
        rows = gf.values.reshape(t, c, h * w)[:, k]
        lo[k], hi[k] = rows.min(), rows.max()
        if not (np.isfinite(lo[k]) and np.isfinite(hi[k])):
            raise DataError("training data contains non-finite values")
        mean[k] = _pairwise_sum(partial(_channel_block, buf, rows), 0, n) / n
        dev2 = partial(_channel_block, buf, rows, center=mean[k])
        std[k] = math.sqrt(_pairwise_sum(dev2, 0, n) / n)
    constant = lo == hi
    mean[constant] = lo[constant]
    std[constant] = 1.0
    return NormStats(channels=gf.channels, mean=mean, std=std)


def static_channel_mask(gf):
    """Channels whose field never changes across time (boundary
    conditions such as orography).  Distinct from the constant channels
    of NormStats, which are constant across time AND space."""
    if gf.n_time == 1:
        return np.ones(len(gf.channels), dtype=bool)
    return np.array([
        bool((gf.values[:, c] == gf.values[0, c]).all())
        for c in range(len(gf.channels))
    ])


def _channel_moments(values, stats):
    """values as an array, and the stats' mean and std in its dtype, shaped
    to broadcast over its (channel, lat, lon) axes."""
    values = np.asarray(values)
    if values.shape[-3] != len(stats.channels):
        raise DataError(f"{values.shape[-3]} channels in data, stats cover {len(stats.channels)}")
    cast = (s.astype(values.dtype)[:, None, None] for s in (stats.mean, stats.std))
    return values, *cast


def normalize(values, stats):
    """(x - mean) / std per channel, in the array's own dtype."""
    values, mu, sd = _channel_moments(values, stats)
    return (values - mu) / sd


def denormalize(values, stats):
    values, mu, sd = _channel_moments(values, stats)
    return values * sd + mu


# ---------------------------------------------------------------------------
# synthetic spherical advection


@dataclass(frozen=True)
class SyntheticSpec:
    n_days: int = 360
    seed: int = 0
    n_blob_channels: int = 2
    tilt_deg: float = 0.0
    speed_deg_per_day: float = 15.0
    blob_width_deg: float = 20.0
    noise: float = 0.0
    n_lat: int = 24
    n_lon: int = 48
    start_day: int = 0

    def __post_init__(self):
        if self.n_days < 1:
            raise DataError(f"n_days must be at least 1, got {self.n_days}")
        if self.n_blob_channels < 1:
            raise DataError(f"need at least one advected channel, got {self.n_blob_channels}")
        if self.n_blob_channels > 99:
            raise DataError("at most 99 advected channels supported")
        if self.speed_deg_per_day == 0:
            raise DataError("speed must be nonzero")
        if not 0.0 <= self.tilt_deg <= 90.0:
            raise DataError(f"tilt must sit in [0, 90] degrees, got {self.tilt_deg}")
        if self.blob_width_deg <= 0:
            raise DataError(f"blob width must be positive, got {self.blob_width_deg}")
        if self.noise < 0:
            raise DataError(f"noise amplitude must be nonnegative, got {self.noise}")
        if self.start_day < 0:
            raise DataError(f"start_day must be nonnegative, got {self.start_day}")
        if self.start_day + self.n_days - 1 > MAX_DAY:
            raise DataError(f"start_day {self.start_day} with {self.n_days} days passes day "
                            f"{MAX_DAY}, the last a .grid file can stamp")

    @property
    def channels(self):
        names = [f"TR{k + 1:02d}" for k in range(self.n_blob_channels)]
        return tuple(names) + ("SEAS", "OROG")


BLOBS_PER_CHANNEL = 2
NOISE_MODES = 6
SEAS_COEFFS = ((1.2, 0.5), (0.4, -0.3))  # (cos, sin) amplitude per harmonic


def _dyadic_degrees(x):
    # snap to 1/16 degree so azimuth arithmetic stays exact in binary
    return np.round(np.asarray(x, dtype=np.float64) * 16.0) / 16.0


class SyntheticField:
    """Analytic field set: evaluates any real day offset exactly once."""

    def __init__(self, spec):
        self.spec = spec
        self.grid = GridSpec.from_shape(spec.n_lat, spec.n_lon)
        h, w = spec.n_lat, spec.n_lon
        lat, lon = self.grid.lat_centers, self.grid.lon_centers

        tau = math.radians(spec.tilt_deg)
        if spec.tilt_deg == 0.0:
            # axis frame is the earth frame; keep row/col angles exact
            self._alpha = np.broadcast_to((90.0 - lat)[:, None], (h, w)).copy()
            self._beta = np.broadcast_to(lon[None, :], (h, w)).copy()
        else:
            phi = np.deg2rad(lat)[:, None]
            lam = np.deg2rad(lon)[None, :]
            x = np.cos(phi) * np.cos(lam)
            y = np.cos(phi) * np.sin(lam) + 0.0 * x
            z = np.sin(phi) + 0.0 * x
            xa = math.cos(tau) * x - math.sin(tau) * z
            za = math.sin(tau) * x + math.cos(tau) * z
            self._alpha = np.rad2deg(np.arccos(np.clip(za, -1.0, 1.0)))
            self._beta = np.rad2deg(np.arctan2(y, xa)) % 360.0
        self._cos_alpha = np.cos(np.deg2rad(self._alpha))
        self._sin_alpha = np.sin(np.deg2rad(self._alpha))

        n_blob = spec.n_blob_channels
        rng = np.random.default_rng([spec.seed, 3])
        total = n_blob * BLOBS_PER_CHANNEL
        self._blob_alpha = rng.uniform(35.0, 145.0, total)
        self._blob_beta0 = _dyadic_degrees(rng.uniform(0.0, 360.0, total))
        self._blob_amp = rng.uniform(0.8, 1.6, total)
        self._blob_width = spec.blob_width_deg * rng.uniform(0.8, 1.25, total)
        # first blob rides the rotation great circle so that with tilt 90
        # it passes through both poles; it is also the strongest blob, so
        # the field maximum tracks its trajectory
        self._blob_alpha[0] = 90.0
        self._blob_beta0[0] = 0.0
        self._blob_amp[0] = 1.8
        self._blob_width[0] = spec.blob_width_deg

        noise_rng = np.random.default_rng([spec.seed, 17])
        g = noise_rng.standard_normal((n_blob, NOISE_MODES, h, w))
        row_w = self.grid.row_weights[:, None]
        g -= spatial_mean(row_w * g)[..., None, None]
        self._noise_patterns = g
        self._noise_freq = noise_rng.uniform(0.3, 2.5, NOISE_MODES)
        self._noise_phase = noise_rng.uniform(0.0, 2.0 * math.pi, (n_blob, NOISE_MODES))

        osc_lat = np.deg2rad(lat)[:, None]
        osc_lon = np.deg2rad(lon)[None, :]
        self._orog = (
            0.9 * np.cos(osc_lat) ** 2 * np.sin(2.0 * osc_lon)
            + 0.5 * np.cos(osc_lat) * np.cos(osc_lon + 1.0)
            + 0.3 * np.sin(osc_lat) ** 2
        )

    @property
    def channels(self):
        return self.spec.channels

    def _blob_field(self, channel, t):
        spec = self.spec
        out = np.zeros((spec.n_lat, spec.n_lon))
        base = channel * BLOBS_PER_CHANNEL
        for b in range(base, base + BLOBS_PER_CHANNEL):
            beta_c = self._blob_beta0[b] + spec.speed_deg_per_day * t
            dbeta = np.mod(self._beta - beta_c, 360.0)
            alpha_c = math.radians(self._blob_alpha[b])
            cos_g = (
                self._cos_alpha * math.cos(alpha_c)
                + self._sin_alpha * math.sin(alpha_c) * np.cos(np.deg2rad(dbeta))
            )
            gamma = np.rad2deg(np.arccos(np.clip(cos_g, -1.0, 1.0)))
            out += self._blob_amp[b] * np.exp(-0.5 * (gamma / self._blob_width[b]) ** 2)
        if spec.noise:
            modes = np.cos(
                self._noise_freq[:, None, None] * t
                + self._noise_phase[channel][:, None, None]
            )
            out += spec.noise * (self._noise_patterns[channel] * modes).sum(axis=0)
        return out

    def seasonal_value(self, t):
        doy = (self.spec.start_day + t) % PERIOD_DAYS
        total = 0.0
        for k, (a, b) in enumerate(SEAS_COEFFS, start=1):
            ang = 2.0 * math.pi * k * doy / PERIOD_DAYS
            total += a * math.cos(ang) + b * math.sin(ang)
        return total

    def frame(self, t):
        """All channels at day offset t (fractional days allowed), float64."""
        spec = self.spec
        out = np.empty((len(self.channels), spec.n_lat, spec.n_lon))
        for c in range(spec.n_blob_channels):
            out[c] = self._blob_field(c, float(t))
        out[spec.n_blob_channels] = self.seasonal_value(float(t))
        out[spec.n_blob_channels + 1] = self._orog
        return out


def generate_synthetic(spec):
    """Daily GridFile sampled from the analytic fields."""
    field_set = SyntheticField(spec)
    # a finite setting can overflow float32; compute_norm_stats names the error
    with np.errstate(over="ignore"):
        values = np.stack([field_set.frame(t) for t in range(spec.n_days)]).astype(np.float32)
    dates = spec.start_day + np.arange(spec.n_days, dtype=np.int64)
    return GridFile(channels=field_set.channels, dates=dates, values=values)


# ---------------------------------------------------------------------------
# training pairs and lag augmentation


@dataclass
class PairSet:
    """Aligned (input, target) arrays in normalized space: y[k] is the
    day after x[k]."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.shape != self.y.shape:
            raise DataError(f"pair arrays disagree: {self.x.shape} vs {self.y.shape}")


def checked_lags(lags, error):
    """lags as a tuple of ints; an empty, repeated or out-of-range
    hour offset raises error."""
    lags = tuple(int(l) for l in lags)
    if not lags:
        raise error("need at least one lag")
    if len(set(lags)) != len(lags):
        raise error(f"lags must be unique, got {lags}")
    if any(not 0 <= l <= 23 for l in lags):
        raise error(f"lags must sit in [0, 23] hours, got {lags}")
    return lags


def require_daily_lags(lags):
    """A stored daily file realizes lag 0 only; any other lag raises."""
    bad = [l for l in lags if l != 0]
    if bad:
        raise DataError(f"lag {bad[0]} unavailable: the file holds daily records only")


def _check_two_records(n_time):
    if n_time < 2:
        raise DataError(f"a one-day lead needs at least two records, got {n_time}")


class FileSource:
    """One-day-ahead pairs from a stored daily file; only lag 0 is realizable."""

    def __init__(self, grid_file, stats):
        _check_two_records(grid_file.n_time)
        self.grid_file = grid_file
        self.stats = stats

    def pairs(self):
        z = normalize(self.grid_file.values, self.stats)
        return PairSet(x=z[:-1], y=z[1:])

    def lag_pairs(self, lags):
        require_daily_lags(lags)
        return self.pairs()


class SyntheticSource:
    """One-day-ahead pairs from the analytic generator; any hour lag is exact.

    Frames are cast to float32 before normalization, matching the
    stored file, so lag 0 reproduces FileSource.pairs() bit for bit.
    """

    def __init__(self, field_set, stats):
        _check_two_records(field_set.spec.n_days)
        self.field_set = field_set
        self.stats = stats

    def _normalized_frame(self, t):
        raw = self.field_set.frame(t).astype(np.float32)
        return normalize(raw, self.stats)

    def pairs(self):
        return self.lag_pairs((0,))

    def lag_pairs(self, lags):
        """Per lag, every day's frame is evaluated once: the target of
        day k is the input of day k + 1."""
        spec = self.field_set.spec
        n = spec.n_days - 1
        z = np.empty((spec.n_days, len(spec.channels), spec.n_lat, spec.n_lon), np.float32)
        x = np.empty((len(lags) * n,) + z.shape[1:], np.float32)
        y = np.empty_like(x)
        for i, lag in enumerate(lags):
            offset = lag / 24.0
            for t in range(spec.n_days):
                z[t] = self._normalized_frame(t + offset)
            x[i * n:(i + 1) * n] = z[:-1]
            y[i * n:(i + 1) * n] = z[1:]
        return PairSet(x=x, y=y)


def lag_augment(source, lags):
    """Augmented pair set over the given hour offsets, validated once
    here; the source decides which lags it can realize."""
    return source.lag_pairs(checked_lags(lags, DataError))
