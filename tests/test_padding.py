"""Padding tables against a walk-the-sphere oracle, plus roll equivariance."""

import numpy as np
import pytest

from karina import engine as E
from karina.padding import (
    GridSpec,
    PaddingError,
    PaddingMode,
    index_map,
    pad,
    pad_geocyclic,
)


def continue_on_sphere(r, c, h, w):
    """Physical cell reached by walking to row r, col c of the extended plane.

    Rows past a pole reflect back (r -> -r-1 north, r -> 2h-r-1 south)
    and jump half a revolution in longitude; columns always wrap.
    """
    c = c % w
    if r < 0:
        return -r - 1, (c + w // 2) % w
    if r >= h:
        return 2 * h - r - 1, (c + w // 2) % w
    return r, c


def oracle_pad(field, p, mode):
    h, w = field.shape
    out = np.zeros((h + 2 * p, w + 2 * p), dtype=field.dtype)
    for i in range(h + 2 * p):
        for j in range(w + 2 * p):
            r, c = i - p, j - p
            if mode is PaddingMode.GEOCYCLIC:
                rr, cc = continue_on_sphere(r, c, h, w)
                out[i, j] = field[rr, cc]
            elif mode is PaddingMode.CIRCULAR_ZERO_POLE:
                if 0 <= r < h:
                    out[i, j] = field[r, c % w]
            else:
                if 0 <= r < h and 0 <= c < w:
                    out[i, j] = field[r, c]
    return out


def roll_lon_padded(a, s, p):
    """Roll only the W interior columns of a padded plane by s, wrapping.

    The p guard columns on each side are re-gathered from the rolled
    interior the same way the pad op built them, i.e. this is what
    padding a rolled field would produce if the pad were rebuilt, for
    the longitude-wrap part of the table.
    """
    w = a.shape[-1] - 2 * p
    j = np.arange(a.shape[-1])
    return a[..., p + (j - p - s) % w]


class TestGridSpec:
    def test_offset_centers(self):
        g = GridSpec.from_shape(4, 8)
        assert np.allclose(g.lat_centers, [67.5, 22.5, -22.5, -67.5])
        assert np.allclose(g.lon_centers, np.arange(8) * 45.0)

    def test_no_pole_rows_and_strictly_decreasing(self):
        g = GridSpec.from_shape(91, 180)
        assert np.all(np.abs(g.lat_centers) < 90)
        assert np.all(np.diff(g.lat_centers) < 0)

    def test_weights_average_to_one(self):
        for n in (3, 24, 91):
            g = GridSpec.from_shape(n, 12)
            assert abs(g.row_weights.mean() - 1.0) <= 1e-12
            assert np.all(g.row_weights > 0)

    def test_odd_lon_rejected(self):
        with pytest.raises(PaddingError):
            GridSpec.from_shape(4, 9)

    def test_tiny_extents_rejected(self):
        with pytest.raises(PaddingError):
            GridSpec.from_shape(0, 8)


class TestIndexMap:
    @pytest.mark.parametrize("h,w", [(4, 8), (5, 6), (8, 16)])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("mode", list(PaddingMode))
    def test_matches_sphere_walk_oracle(self, h, w, p, mode):
        if mode is PaddingMode.GEOCYCLIC and p > h:
            pytest.skip("pad wider than grid")
        field = np.arange(h * w, dtype=np.float64).reshape(h, w)
        table = index_map(p, (h, w), mode)
        got = np.where(table >= 0, field.reshape(-1)[np.maximum(table, 0)], 0.0)
        assert np.array_equal(got, oracle_pad(field, p, mode))

    def test_first_north_line_reads_row_zero_shifted_half(self):
        # H=4, W=8, p=1: the line above the grid at interior column 0
        # must source row 0, column 4
        table = index_map(1, (4, 8), PaddingMode.GEOCYCLIC)
        assert table[0, 1] == 0 * 8 + 4
        # and the matching south line reads the last row, also shifted
        assert table[5, 1] == 3 * 8 + 4

    def test_corner_follows_wrap_then_reflect(self):
        # north-west corner (0,0) of H=4, W=8, p=1: interior column -1
        # wraps to 7, reflection adds W/2 -> column 3 of row 0
        table = index_map(1, (4, 8), PaddingMode.GEOCYCLIC)
        assert table[0, 0] == 0 * 8 + 3

    def test_zero_mode_fills_every_guard_cell(self):
        table = index_map(2, (4, 8), PaddingMode.ZERO)
        inner = table[2:-2, 2:-2]
        assert np.all(inner >= 0)
        rim = table.copy()
        rim[2:-2, 2:-2] = -1
        assert np.all(rim == -1)

    def test_circular_zero_pole_wraps_lon_only(self):
        table = index_map(1, (3, 6), PaddingMode.CIRCULAR_ZERO_POLE)
        assert np.all(table[0] == -1)
        assert np.all(table[-1] == -1)
        assert table[1, 0] == 0 * 6 + 5
        assert table[1, 7] == 0 * 6 + 0

    def test_geocyclic_rejects_odd_lon(self):
        with pytest.raises(PaddingError):
            index_map(1, (4, 7), PaddingMode.GEOCYCLIC)

    def test_geocyclic_rejects_pad_wider_than_grid(self):
        with pytest.raises(PaddingError):
            index_map(5, (4, 8), PaddingMode.GEOCYCLIC)

    def test_rejects_zero_pad(self):
        with pytest.raises(PaddingError):
            index_map(0, (4, 8), PaddingMode.GEOCYCLIC)

    def test_mode_parse_round_trip(self):
        assert PaddingMode.parse("geocyclic") is PaddingMode.GEOCYCLIC
        with pytest.raises(PaddingError):
            PaddingMode.parse("wrap")


class TestPadOps:
    def setup_method(self):
        self.rng = np.random.default_rng(211)

    @pytest.mark.parametrize("mode", list(PaddingMode), ids=[
        "pad_zero-PaddingMode.ZERO",
        "pad_circular_zero_pole-PaddingMode.CIRCULAR_ZERO_POLE",
        "pad_geocyclic-PaddingMode.GEOCYCLIC",
    ])
    def test_forward_matches_oracle(self, mode):
        x = self.rng.standard_normal((2, 3, 4, 8))
        got = pad(E.Tensor(x), 2, mode).data
        for b in range(2):
            for c in range(3):
                assert np.array_equal(got[b, c], oracle_pad(x[b, c], 2, mode))

    def test_rank3_input(self):
        x = self.rng.standard_normal((3, 4, 8))
        got = pad_geocyclic(E.Tensor(x), 1).data
        assert got.shape == (3, 6, 10)
        assert np.array_equal(got[1], oracle_pad(x[1], 1, PaddingMode.GEOCYCLIC))

    def test_gradient_scatter(self):
        x = E.Parameter(self.rng.standard_normal((2, 4, 8)))
        c = E.Tensor(self.rng.standard_normal((2, 8, 12)))

        def fn():
            return E.sum_all(E.mul(pad_geocyclic(x, 2), c))

        E.zero_grads([x])
        E.backward(fn())
        g = x.grad.copy()
        h = 1e-6
        flat = x.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(0, flat.size, 7):
            keep = flat[i]
            flat[i] = keep + h
            fp = fn().item()
            flat[i] = keep - h
            fm = fn().item()
            flat[i] = keep
            num = (fp - fm) / (2 * h)
            assert abs(gflat[i] - num) / max(abs(num), 1e-8) < 1e-6

    @pytest.mark.parametrize("mode", [PaddingMode.GEOCYCLIC, PaddingMode.CIRCULAR_ZERO_POLE],
                             ids=["pad_geocyclic", "pad_circular_zero_pole"])
    def test_roll_equivariance_every_shift(self, mode):
        # padding commutes with longitude rolls, bit for bit
        x = self.rng.standard_normal((1, 2, 5, 8))
        p = 2
        padded = pad(E.Tensor(x), p, mode).data
        for s in range(8):
            a = pad(E.Tensor(np.roll(x, s, axis=-1)), p, mode).data
            b = roll_lon_padded(padded, s, p)
            assert np.array_equal(a, b), f"shift {s} broke equivariance"

    def test_zero_mode_is_not_roll_equivariant(self):
        x = self.rng.standard_normal((1, 1, 4, 8))
        p = 1
        padded = pad(E.Tensor(x), p, PaddingMode.ZERO).data
        hits = 0
        for s in range(1, 8):
            a = pad(E.Tensor(np.roll(x, s, axis=-1)), p, PaddingMode.ZERO).data
            hits += int(not np.array_equal(a, roll_lon_padded(padded, s, p)))
        assert hits > 0


class TestRollHelpers:
    def test_roll_lon_wraps_east(self):
        a = np.arange(6.0)[None, :]
        assert np.array_equal(np.roll(a, 2, axis=-1)[0], [4, 5, 0, 1, 2, 3])

    def test_roll_lon_padded_touches_all_columns(self):
        # padded plane with W=4 interior, p=1: shifting by 1 re-gathers
        # every column through the W-periodic rule
        a = np.arange(6.0)[None, :]
        got = roll_lon_padded(a, 1, 1)
        src = [1 + (j - 1 - 1) % 4 for j in range(6)]
        assert np.array_equal(got[0], a[0][src])
