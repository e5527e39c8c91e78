"""Littlewood-Paley blocks and the frequency windows built from them.

All cutoffs are raised cosines in log2|k| with a one-octave transition, so
the dyadic family telescopes to an exact partition of unity on the nonzero
frequencies of the grid.  The lowest and highest blocks are clamped (they
absorb everything below / above the dyadic range), which keeps

    sum_m block_m(k) = 1   for every k != 0

to machine precision and makes `sum_m lp_project(u, m) = u - mean(u)` exact.
"""

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import OutOfBand
from .grid import Field, frac_deriv

SEPARATION = 4  # octaves between a paraproduct's symbol and its argument
_BANDS = weakref.WeakKeyDictionary()  # grid -> `band_table`, dropped with the grid


def ramp(x):
    """Smooth step: 0 for x <= 0, 1 for x >= 1, raised cosine in between."""
    x = np.clip(x, 0.0, 1.0)
    return 0.5 * (1.0 - np.cos(np.pi * x))


def _log2_abs(k):
    out = np.full(np.shape(k), -np.inf)
    nz = np.asarray(k) != 0
    out[nz] = np.log2(np.abs(np.asarray(k)[nz]))
    return out


def block_range(grid):
    """Dyadic indices m with 2^m inside the resolvable band [dk, pi n / L]."""
    lo = math.ceil(math.log2(grid.dk))
    hi = math.floor(math.log2(grid.k_max))
    return lo, hi


@dataclass(frozen=True)
class LPBlock:
    """One dyadic block: center 2^m, raised-cosine profile in log2|k|."""

    m: int
    lo_clamped: bool = False
    hi_clamped: bool = False

    def symbol(self, grid):
        y = _log2_abs(grid.k) - self.m
        sym = ramp(y + 1.0) - ramp(y)
        if self.lo_clamped:
            sym = np.where(_log2_abs(grid.k) <= self.m, 1.0 - ramp(y), sym)
        if self.hi_clamped:
            sym = np.where(_log2_abs(grid.k) >= self.m, ramp(y + 1.0), sym)
        return np.where(grid.k == 0, 0.0, sym)


def lp_blocks(grid):
    lo, hi = block_range(grid)
    return [LPBlock(m, lo_clamped=(m == lo), hi_clamped=(m == hi)) for m in range(lo, hi + 1)]


def lp_project(u, m):
    lo, hi = block_range(u.grid)
    if m < lo or m > hi:
        raise OutOfBand(f"2^{m} outside the resolvable band [2^{lo}, 2^{hi}]")
    return Field(u.grid, spread(u.coef, band_table(u.grid)[m - lo][1], u.grid.n))


def partition_defect(grid):
    """max_k |sum_m symbol_m(k) - 1| over nonzero resolvable frequencies."""
    total = np.zeros(grid.n)
    for block in lp_blocks(grid):
        total += block.symbol(grid)
    nz = grid.k != 0
    return float(np.max(np.abs(total[nz] - 1.0)))


def _fft_size(size):
    """Smallest even 2^i 3^j >= size (lengths with a large prime factor are slow)."""
    return min(3**j << max(1, (-(-size // 3**j) - 1).bit_length())
               for j in range(int(math.log(size, 3)) + 1))


def band_table(grid):
    """(m, block, low, size) for every LP block m of `grid`, built once per grid:
    the nonzero supports, as (int32 modes, values), of `LPBlock.symbol` and of
    the low-pass symbol of cut 2^(m - SEPARATION), and the shortest fast grid
    length N <= n with N/2 above the sum of their largest |mode|, which is
    where the product of the two pieces can reach."""
    if grid not in _BANDS:
        table = []
        for block in lp_blocks(grid):
            syms = block.symbol(grid), lowpass_symbol(grid, 2.0 ** (block.m - SEPARATION))
            supports = [(grid.modes[sym != 0].astype(np.int32), sym[sym != 0]) for sym in syms]
            reach = sum(int(np.max(np.abs(modes), initial=0)) for modes, _ in supports)
            table.append((block.m, *supports, min(grid.n, _fft_size(max(16, 2 * reach + 2)))))
        _BANDS[grid] = tuple(table)
    return _BANDS[grid]


def spread(coef, support, size):
    """`coef` times a `band_table` support, as fft-order coefficients on `size` modes."""
    modes, sym = support
    out = np.zeros(size, dtype=complex)
    out[modes] = coef[modes] * sym
    return out


def besov_inf2(u, s):
    """Homogeneous Besov norm: sqrt( sum_m 2^(2 m s) |P_m u|_Linf^2 )."""
    total = 0.0
    for m, block, _, _ in band_table(u.grid):
        total += 2.0 ** (2 * m * s) * Field(u.grid, spread(u.coef, block, u.grid.n)).linf() ** 2
    return math.sqrt(total)


# smooth one-sided windows keyed to an arbitrary (non-dyadic) center --------

def lowpass_symbol(grid, cut):
    """1 for |k| <= cut, raised-cosine decay to 0 at 2*cut; passes k = 0."""
    if cut <= 0:
        return np.where(grid.k == 0, 1.0, 0.0)
    y = _log2_abs(grid.k) - math.log2(cut)
    return np.where(grid.k == 0, 1.0, 1.0 - ramp(y))


def highpass_symbol(grid, cut):
    if cut <= 0:
        return np.where(grid.k == 0, 0.0, 1.0)
    y = _log2_abs(grid.k) - math.log2(cut)
    return np.where(grid.k == 0, 0.0, ramp(y))


def band_symbol(grid, center):
    """Window on |k| in (center/2, 2*center): flat within half an octave of
    the center, cosine ramps to zero at the octave edges."""
    if center <= 0 or 2.0 * center < grid.dk:
        return np.zeros(grid.n)
    y = np.abs(_log2_abs(grid.k) - math.log2(center))
    sym = 1.0 - ramp(2.0 * (y - 0.5))
    return np.where(grid.k == 0, 0.0, sym)


def band_low_symbol(grid, center):
    """Complement of `band_symbol` on the low-frequency side; together with
    the band and the high complement the three tile every k != 0."""
    if center <= 0:
        return np.zeros(grid.n)
    y = _log2_abs(grid.k) - math.log2(center)
    sym = ramp(-2.0 * y - 1.0)
    return np.where(grid.k == 0, 0.0, sym)


def band_high_symbol(grid, center):
    if center <= 0:
        return np.where(grid.k == 0, 0.0, 1.0)
    y = _log2_abs(grid.k) - math.log2(center)
    sym = ramp(2.0 * y - 1.0)
    return np.where(grid.k == 0, 0.0, sym)


def x_zero_norm(w_alpha, q_alpha):
    """Besov pair  |w_a|_{B^(1/4)inf2} + |q_a|_{B^(3/4)inf2}."""
    return besov_inf2(w_alpha, 0.25) + besov_inf2(q_alpha, 0.75)


def x_norm(w_alpha, r):
    """Pointwise control norm of the differentiated pair (w_alpha, r)."""
    return (
        frac_deriv(w_alpha.demean(), -0.5).linf()
        + r.linf()
        + besov_inf2(w_alpha, 0.25)
        + besov_inf2(r, 0.75)
    )
