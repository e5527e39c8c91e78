import math

import numpy as np
import pytest

from holoww.grid import Field, GridSpec, frac_deriv, project_neg
from holoww.lp import SEPARATION, band_table, block_range, lowpass_symbol, lp_blocks


@pytest.fixture(scope="session")
def grid():
    return GridSpec(length=64.0, n=256)


def smooth_field(grid, seed=0, center=2.0, sigma=None, amplitude=1.0, holo=False):
    """Random field with a Gaussian spectral envelope centered at |k| = center.

    Spectrally concentrated, so pointwise products are alias-free to roundoff;
    this is the profile every identity-level test relies on.
    """
    rng = np.random.default_rng(seed)
    sigma = sigma if sigma is not None else center / 4.0
    k = grid.k
    envelope = np.exp(-((np.abs(k) - center) ** 2) / (2.0 * sigma**2))
    envelope[k == 0] = 0.0
    phases = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    coef = envelope * phases
    if holo:
        coef[k >= 0] = 0.0
    u = Field(grid, coef).dealiased()
    scale = amplitude / max(u.linf(), 1e-300)
    u = scale * u
    return project_neg(u) if holo else u


def holo_field(grid, seed=0, center=2.0, amplitude=1.0, sigma=None):
    return smooth_field(grid, seed=seed, center=center, sigma=sigma,
                        amplitude=amplitude, holo=True)


def full_spectrum_field(grid, seed):
    """Random coefficients at every mode, the top ones included."""
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))


def transform_points(monkeypatch):
    """List that collects the points (rows times length) of every later
    `np.fft.fft` and `np.fft.ifft` call, for transform budgets."""
    points = []
    for name in ("fft", "ifft"):
        def counted(x, *args, _fn=getattr(np.fft, name), **kwargs):
            points.append(np.size(x))
            return _fn(x, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return points


def transform_calls(monkeypatch):
    """List that collects the rows of every later `np.fft.fft` and `np.fft.ifft`
    call, for call budgets: its length counts calls, its sum 1-D transforms."""
    rows = []
    for name in ("fft", "ifft"):
        def counted(x, *args, _fn=getattr(np.fft, name), **kwargs):
            rows.append(np.size(x) // np.shape(x)[-1])
            return _fn(x, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return rows


def lohi_oracle(a, b, separation=SEPARATION):
    """T_a b before the projection, as the full-grid formula: one dealiased
    product per block."""
    grid = a.grid
    out = Field.zero(grid)
    for block in lp_blocks(grid):
        hi = Field(grid, b.coef * block.symbol(grid.k))
        lo = Field(grid, a.coef * lowpass_symbol(grid.k, 2.0 ** (block.m - separation)))
        out = out + lo * hi
    return out


def lp_project(u, m):
    """The dyadic piece P_m u: u's coefficients times block m of the band
    table, its two halves placed on the grid by `scatter`."""
    halves = band_table(u.grid)[m - block_range(u.grid)[0]][1]
    return Field(u.grid, u.coef * sum(scatter(half.block, u.grid.n) for half in halves))


def besov_oracle(u, s):
    """sqrt( sum_m 2^(2 m s) |P_m u|_Linf^2 ) block by block, in the order of m."""
    lo, hi = block_range(u.grid)
    return math.sqrt(sum(2.0 ** (2 * m * s) * lp_project(u, m).linf() ** 2
                         for m in range(lo, hi + 1)))


def x_sup_oracle(w_alpha, r):
    """Sup part of the X norm of (w_alpha, r): | |D|^(-1/2) w_alpha |_Linf + |r|_Linf."""
    return frac_deriv(w_alpha.demean(), -0.5).linf() + r.linf()


def l4_oracle(u):
    """|u|_L4 from u's grid values."""
    return float((np.mean(np.abs(u.values) ** 4) * u.grid.length) ** 0.25)


def control_norms_oracle(wa, r, y):
    """(a0, a_quarter, a_half, a_sharp, x) of `diagnostics.control_norms`,
    one Field and one transform per sup or L^4 norm: the reference for the
    one-pass form."""
    half_r = frac_deriv(r, 0.5)
    a0 = wa.linf() + y.linf() + max(half_r.linf(), besov_oracle(half_r, 0.0))
    a_quarter = besov_oracle(wa, 0.25) + besov_oracle(r, 0.75)
    a_half = frac_deriv(wa, 0.5).linf() + r.deriv().linf()
    a_sharp = l4_oracle(frac_deriv(wa, 0.25)) + l4_oracle(frac_deriv(r, 0.75))
    return a0, a_quarter, a_half, a_sharp, x_sup_oracle(wa, r) + a_quarter


def scatter(band, n):
    """A `lp.Band` as a dense symbol on n modes, placed through its `parts`
    and checked against its start mode."""
    dense = np.zeros(n)
    for at, run in band.parts:
        dense[at] = band.values[run]
    by_start = np.zeros(n)
    by_start[(band.start + np.arange(len(band.values))) % n] = band.values
    assert np.array_equal(dense, by_start)
    return dense
