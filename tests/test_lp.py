import math

import numpy as np
import pytest

from holoww.grid import Field, GridSpec
from holoww.lp import (
    SEPARATION,
    band_symbol,
    band_table,
    besov_inf2,
    block_range,
    lowpass_symbol,
    lp_blocks,
    partition_defect,
    ramp,
)

from conftest import full_spectrum_field, lp_project, scatter, smooth_field


def test_partition_of_unity(grid):
    assert partition_defect(grid) < 1e-12


def test_pure_mode_weight(grid):
    lo, hi = block_range(grid)
    m = (lo + hi) // 2
    target = 2.0**m
    idx = np.argmin(np.abs(np.abs(grid.k) - target))
    coef = np.zeros(grid.n, dtype=complex)
    coef[idx] = 1.0
    u = Field(grid, coef)
    w = abs(lp_project(u, m).coef[idx])
    assert 0.9 <= w <= 1.0
    neighbors = abs(lp_project(u, m - 1).coef[idx]) + abs(lp_project(u, m + 1).coef[idx])
    assert abs(w + neighbors - 1.0) < 1e-12


def test_zero_field_projects_to_zero(grid):
    z = Field.zero(grid)
    lo, _ = block_range(grid)
    assert lp_project(z, lo).l2() == 0.0


def test_reconstruction(grid):
    u = smooth_field(grid, seed=20).demean()
    lo, hi = block_range(grid)
    total = Field.zero(grid)
    for m in range(lo, hi + 1):
        total = total + lp_project(u, m)
    assert np.max(np.abs(total.coef - u.coef)) < 1e-12 * u.linf()


def test_almost_orthogonality(grid):
    u = smooth_field(grid, seed=21).demean()
    lo, hi = block_range(grid)
    total = sum(lp_project(u, m).l2() ** 2 for m in range(lo, hi + 1))
    assert u.l2() ** 2 / 2.0 <= total <= u.l2() ** 2 * (1.0 + 1e-12)


def test_besov_single_mode(grid):
    lo, hi = block_range(grid)
    m = (lo + hi) // 2
    idx = np.argmin(np.abs(np.abs(grid.k) - 2.0**m))
    coef = np.zeros(grid.n, dtype=complex)
    coef[idx] = 3.0
    u = Field(grid, coef)
    # block weights at the exact center give the clean single-block answer
    expect = 2.0 ** (m * 0.25) * 3.0
    assert abs(besov_inf2(u, 0.25) - expect) < 0.05 * expect


def test_besov_zero(grid):
    assert besov_inf2(Field.zero(grid), 0.25) == 0.0


def test_besov_two_separated_modes(grid):
    lo, hi = block_range(grid)
    m1, m2 = lo + 2, hi - 2
    i1 = np.argmin(np.abs(np.abs(grid.k) - 2.0**m1))
    i2 = np.argmin(np.abs(np.abs(grid.k) - 2.0**m2))
    c1 = np.zeros(grid.n, dtype=complex)
    c1[i1] = 1.0
    c2 = np.zeros(grid.n, dtype=complex)
    c2[i2] = 2.0
    u1, u2 = Field(grid, c1), Field(grid, c2)
    combined = besov_inf2(u1 + u2, 0.25) ** 2
    separate = besov_inf2(u1, 0.25) ** 2 + besov_inf2(u2, 0.25) ** 2
    assert abs(combined - separate) < 0.05 * separate


@pytest.mark.parametrize("s", [0.0, 0.25, 0.75])
def test_besov_one_row_per_call_equals_the_block_sum(s):
    # from n = 8192 on each block is transformed in its own call; the norm is
    # the sum over blocks formed one at a time, bit for bit (the property test
    # covers grids up to n = 2048, where several blocks share a call)
    grid = GridSpec(3200.0 * math.pi, 16384)
    u = full_spectrum_field(grid, 3)
    lo, hi = block_range(grid)
    total = sum(2.0 ** (2 * m * s) * lp_project(u, m).linf() ** 2 for m in range(lo, hi + 1))
    assert besov_inf2(u, s) == math.sqrt(total)


def test_window_trichotomy(grid):
    # the three windows tile every k != 0, the middle one is the raised-cosine
    # octave window bit for bit (also below the grid, where it is all 0), and
    # all three are 0 at k = 0
    nz = grid.k != 0
    for shift in (-8, 0, 0.37, 3):
        center = 2.0 ** ((sum(block_range(grid))) // 2 + shift)
        below, band, above = band_symbol(grid, center)
        assert np.max(np.abs(below + band + above - 1.0)[nz]) < 1e-12
        y = np.abs(np.log2(np.abs(grid.k[nz])) - math.log2(center))
        assert np.array_equal(band[nz], 1.0 - ramp(2.0 * (y - 0.5)))
        assert [w[~nz].tolist() for w in (below, band, above)] == [[0.0]] * 3


@pytest.mark.parametrize("length, n", [(64.0, 256), (64.0, 1000), (12800.0 * np.pi, 65536)])
def test_band_table_holds_the_nonzero_dense_entries(grid, length, n):
    # each symbol is evaluated on its window only; the stored runs are the
    # nonzero entries of the dense symbols, bit for bit (the fixture grid,
    # a grid with n not a power of two, the structure suite's grid)
    g = grid if (length, n) == (grid.length, grid.n) else GridSpec(length, n)
    for (m, halves), block in zip(band_table(g), lp_blocks(g)):
        low = halves[0].low
        for bands, dense in (([h.block for h in halves], block.symbol(g.k)),
                             ([low], lowpass_symbol(g.k, 2.0 ** (m - SEPARATION)))):
            assert all(np.all(band.values != 0) for band in bands)
            assert np.array_equal(sum(scatter(band, n) for band in bands), dense)
