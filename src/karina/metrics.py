"""Verification metrics on latitude-longitude grids.

Scores are latitude-weighted by default: each row is weighted by the
cosine of its center latitude, normalized so the weights average to 1
over rows.  An unweighted mode is kept for comparison against the plain
formulas.

Anomaly correlation scores against a harmonic climatology: per grid
point, a mean plus the first few annual harmonics fitted by least
squares on a training series.  Correlating a field with itself scores
exactly 1.0: both anomaly reductions run the same code path, so the
numerator and the two variances are the same float, and sqrt(v*v) == v
in round-to-nearest for any normal v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from karina.files import require_finite, write_csv
from karina.padding import GridSpec


PERIOD_DAYS = 365.25
# Largest condition number of the harmonic design accepted by
# fit_climatology.  Rounding a series to float32 moves it by up to 2^-24
# relative, and a least-squares fit can amplify that by cond(A); above
# 2^24 the coefficients may carry no correct digit.
MAX_DESIGN_COND = 2.0 ** 24


class MetricsError(Exception):
    """Invalid metric input or an undefined score."""


def latitude_weights(grid):
    """Per-row weights cos(lat) / mean(cos(lat)); they average to 1.
    The grid's own read-only array, not a copy."""
    return grid.row_weights


def row_weights(grid, weighted=True):
    """(1, lat, 1) weights to multiply fields by: latitude weights, or ones."""
    if weighted:
        return latitude_weights(grid)[None, :, None]
    return np.ones((1, 1, 1))


def spatial_mean(p):
    """Mean of p over its last two (lat, lon) axes: the one spatial
    reduction behind every score.  A latitude-weighted mean is
    spatial_mean(w * ...) with row weights w that average to 1."""
    return p.sum(axis=(-2, -1)) / (p.shape[-2] * p.shape[-1])


def weighted_moments(x, w):
    """Per-channel spatial mean, centered field and variance of a float64
    (channel, lat, lon) field under row weights w that average to 1."""
    mean = spatial_mean(w * x)
    centered = x - mean[:, None, None]
    var = spatial_mean(w * centered * centered)
    return mean, centered, var


# the axes of a (channel, lat, lon) field, as errors name them
FIELD_AXES = ("channel", "row", "col")


@dataclass(frozen=True)
class MetricSample:
    """One scored pair of (channel, lat, lon) forecast and truth fields."""

    forecast: np.ndarray
    truth: np.ndarray
    grid: GridSpec
    valid_date: float = 0.0

    def __post_init__(self):
        f, t = np.shape(self.forecast), np.shape(self.truth)
        if f != t:
            raise MetricsError(f"forecast {f} and truth {t} disagree")
        if len(f) != 3 or f[1:] != (self.grid.n_lat, self.grid.n_lon):
            raise MetricsError(
                f"fields {f} are not (channel, {self.grid.n_lat}, {self.grid.n_lon}) "
                f"to match grid"
            )


def _fields(sample):
    """The sample's forecast and truth as float64, both checked finite."""
    f = np.asarray(sample.forecast, dtype=np.float64)
    t = np.asarray(sample.truth, dtype=np.float64)
    require_finite(f, MetricsError, "forecast", FIELD_AXES)
    require_finite(t, MetricsError, "truth", FIELD_AXES)
    return f, t


def weighted_rmse(sample, weighted=True):
    """Root mean square error per channel, rows weighted by cos(lat)."""
    f, t = _fields(sample)
    w = row_weights(sample.grid, weighted)
    d = f - t
    return np.sqrt(spatial_mean(w * d * d))


@dataclass
class ClimatologyTable:
    """Per-point annual cycle: mean plus harmonic pairs.

    coeffs has shape (1 + 2*n_harmonics, channel, lat, lon) ordered
    [a0, a1, b1, a2, b2, ...]; evaluate() reconstructs the cycle at a
    fractional day-of-year.
    """

    coeffs: np.ndarray
    n_harmonics: int
    fit_start: float
    fit_end: float

    def evaluate(self, date):
        doy = float(date) % PERIOD_DAYS
        out = self.coeffs[0].copy()
        for k in range(1, self.n_harmonics + 1):
            ang = 2.0 * math.pi * k * doy / PERIOD_DAYS
            out += self.coeffs[2 * k - 1] * math.cos(ang)
            out += self.coeffs[2 * k] * math.sin(ang)
        return out


def harmonic_design(dates, n_harmonics):
    """Design matrix [1, cos(k*omega*doy), sin(k*omega*doy)] per date."""
    doy = np.mod(np.asarray(dates, dtype=np.float64), PERIOD_DAYS)
    cols = [np.ones_like(doy)]
    for k in range(1, n_harmonics + 1):
        ang = 2.0 * np.pi * k * doy / PERIOD_DAYS
        cols.append(np.cos(ang))
        cols.append(np.sin(ang))
    return np.stack(cols, axis=1)


def _projector(a):
    """P = R^-1 Q^T = (A^T A)^-1 A^T for a full-rank (time, m) design A.
    Modified Gram-Schmidt, run twice per column, keeps Q orthonormal to
    rounding (Cholesky of A^T A squares the condition number); each dot
    is math.fsum of the rounded products; back substitution runs along
    time from the last row, subtracting terms in index order."""
    m = a.shape[1]
    q = a.T.copy()
    r = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for k in [*range(i), *range(i)]:
            d = math.fsum(q[k] * q[i])
            r[k][i] += d
            q[i] -= d * q[k]
        r[i][i] = math.sqrt(math.fsum(q[i] * q[i]))
        q[i] /= r[i][i]
    for i in reversed(range(m)):
        for k in range(i + 1, m):
            q[i] -= r[i][k] * q[k]
        q[i] /= r[i][i]
    return q


def fit_climatology(series, dates, n_harmonics=3):
    """Least-squares harmonic fit of the annual cycle, per grid point.

    series is (time, channel, lat, lon), float32 or float64; dates are
    day numbers on any epoch.  Requires the dates to span at least two
    full annual cycles, and a design no worse conditioned than
    MAX_DESIGN_COND, so the harmonics are identifiable.  Only the condition
    check touches BLAS, so no kernel or thread count moves the bits: coeffs
    starts at 0.0 and adds P[:, t] * float64(series[t]) for t = 0..T-1 in
    order, each product and add rounded once, with P from _projector.
    """
    if n_harmonics < 0:
        raise MetricsError(f"n_harmonics must be non-negative, got {n_harmonics}")
    series = np.asarray(series)
    if series.ndim != 4:
        raise MetricsError(f"expected a (time, channel, lat, lon) series, got shape {series.shape}")
    dates = np.asarray(dates, dtype=np.float64)
    if dates.shape != (series.shape[0],):
        raise MetricsError(f"{dates.shape[0] if dates.ndim else 0} dates for {series.shape[0]} fields")
    require_finite(dates, MetricsError, "dates")
    require_finite(series, MetricsError, "series")
    t, c, h, w = series.shape
    span = float(dates.max() - dates.min()) + 1.0
    if span < 2.0 * PERIOD_DAYS:
        raise MetricsError(
            f"need at least two full annual cycles, got {span:.1f} days of coverage"
        )
    a = harmonic_design(dates, n_harmonics)
    cond = np.linalg.cond(a)
    if cond > MAX_DESIGN_COND:
        raise MetricsError(f"harmonic fit is numerically rank deficient (cond {cond:.3g}); "
                           f"dates sample the cycle too sparsely")
    p = _projector(a)
    flat = series.reshape(t, c * h * w)
    coeffs = np.zeros((a.shape[1], c * h * w))
    for k in range(t):
        row = flat[k].astype(np.float64)
        for i, coeff in enumerate(coeffs):
            coeff += p[i, k] * row
    return ClimatologyTable(
        coeffs=coeffs.reshape(1 + 2 * n_harmonics, c, h, w),
        n_harmonics=n_harmonics,
        fit_start=float(dates.min()),
        fit_end=float(dates.max()),
    )


def acc(sample, clim, weighted=True):
    """Anomaly correlation against the harmonic climatology.

    Anomalies are deviations from clim at the sample's valid date; the
    spatial means removed inside the correlation are latitude-weighted.
    Returns one value per channel.
    """
    f, t = _fields(sample)
    ref = clim.evaluate(sample.valid_date)
    if ref.shape != f.shape:
        raise MetricsError(f"climatology {ref.shape} does not cover fields {f.shape}")
    w = row_weights(sample.grid, weighted)
    _, fc, fv = weighted_moments(f - ref, w)
    _, tc, tv = weighted_moments(t - ref, w)
    if np.any(fv <= 0) or np.any(tv <= 0):
        raise MetricsError("zero anomaly variance; correlation undefined")
    return spatial_mean(w * fc * tc) / np.sqrt(fv * tv)


def regression_map(z_members, x_members):
    """Member-regression field: covariance of each point with a scalar
    index, normalized by the index standard deviation.

    z_members is (member,), x_members is (member, ...field).
    """
    z = np.asarray(z_members, dtype=np.float64)
    x = np.asarray(x_members, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] < 2:
        raise MetricsError("need at least two members")
    if x.shape[0] != z.shape[0]:
        raise MetricsError(f"{x.shape[0]} member fields for {z.shape[0]} index values")
    dz = z - z.mean()
    denom = math.sqrt(float((dz * dz).sum()))
    if denom == 0.0:
        raise MetricsError("index has zero variance across members")
    dx = x - x.mean(axis=0)
    return np.tensordot(dz, dx, axes=(0, 0)) / denom


def metrics_to_csv(rows, path, keys="channel"):
    """rows of (*key values, lead_days, metric, value) -> deterministic CSV;
    keys is the header of the key columns."""
    write_csv(path, (keys, "lead_days", "metric", "value"), rows)
