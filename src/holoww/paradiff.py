"""Paraproducts, balanced products, and the trichotomy they split off.

T_a b sums the dyadic pieces P_m b multiplied by the part of a lying at
least `lp.SEPARATION` octaves below 2^m.  The balanced product is defined
as the exact pointwise complement

    Pi(a, b) = a b - T_a b - T_b a,

so the trichotomy holds to machine precision by construction.  Both
operators return the negative-frequency projection P of that sum; the
unprojected low-high sum `_lohi` is what the trichotomy and commutator
measurements use, since P does not commute with multiplication.

Each block product is formed on a grid of its own length N (`lp.band_table`),
whose N/2 exceeds the largest |mode| the product of the two pieces reaches
(Bony's support property).  There its transform is their exact convolution,
as on the full grid when N < n; so scattering it into the grid, summing and
masking once gives the full-grid sum to rounding.  The top blocks have N = n
and alias as before.  A call transforms about 8n points, not 3n per block.
"""

import numpy as np

from .grid import Field, frac_deriv, project_neg
from .lp import band_table, spread

PROBES = 6  # probe fields of one `commutator_norm` measurement


def _lohi(a, b):
    """Unprojected low-high sum: P_m b times the part of a below 2^(m - SEPARATION)."""
    a._check(b)
    grid = a.grid
    coef = np.zeros(grid.n, dtype=complex)
    for _, block, low, size in band_table(grid):
        prod = np.fft.ifft(spread(a.coef, low, size), norm="forward")
        prod *= np.fft.ifft(spread(b.coef, block, size), norm="forward")
        prod = np.fft.fft(prod, norm="forward")  # the cyclic convolution of the pieces
        coef[: size // 2] += prod[: size // 2]
        coef[grid.n - size // 2:] += prod[size // 2:]
    return Field(grid, np.where(grid.dealias_mask, coef, 0.0))


def para(a, b):
    """Low-high paraproduct T_a b."""
    return project_neg(_lohi(a, b))


def balanced(a, b):
    """Balanced product Pi(a, b) = P[a b] - T_a b - T_b a."""
    return project_neg(a * b) - para(a, b) - para(b, a)


def trichotomy_residual(a, b):
    """L2 size of  a b - T_a b - T_b a - Pi(a, b)  with the projection off.

    The product is formed exactly as the operators form it (dealiased), and
    the residual is zero up to roundoff.
    """
    prod = a * b
    t_ab, t_ba = _lohi(a, b), _lohi(b, a)
    pi = a * b - t_ab - t_ba  # Pi(a, b) before the projection
    return (prod - t_ab - t_ba - pi).l2()


def commutator_norm(a, chi, band_m, seed=0):
    """Empirical norm of u -> [chi, T_a] d(alpha) u on probe fields at one band.

    Measured as the worst ratio of homogeneous H^(1/4) norms over a seeded
    probe set; a reported figure for scaling studies, not an assertion.  The
    unprojected sum is used because P does not commute with chi.
    """
    grid = a.grid
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(PROBES):
        coef = np.zeros(grid.n, dtype=complex)
        sel = (np.abs(grid.abs_k / 2.0**band_m) > 0.5) & (np.abs(grid.abs_k / 2.0**band_m) < 2.0)
        idx = np.where(sel)[0]
        coef[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        u = Field(grid, coef).dealiased()
        du = u.deriv()
        comm = chi * _lohi(a, du) - _lohi(a, chi * du)
        denom = frac_deriv(u.demean(), 0.25).l2()
        if denom > 0:
            worst = max(worst, frac_deriv(comm.demean(), 0.25).l2() / denom)
    return worst
