"""Littlewood-Paley blocks and the frequency windows built from them.

All cutoffs are raised cosines in log2|k| with a one-octave transition, so
the dyadic family telescopes to an exact partition of unity on the nonzero
frequencies of the grid.  The lowest and highest blocks are clamped (they
absorb everything below / above the dyadic range), which keeps

    sum_m block_m(k) = 1   for every k != 0

to machine precision and makes the blocks of a field sum to u - mean(u).
"""

import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import _fft, _rows_per_call, frac_deriv

SEPARATION = 4  # octaves between a paraproduct's symbol and its argument
_BANDS = weakref.WeakKeyDictionary()  # grid -> `band_table`, dropped with the grid


def ramp(x):
    """Smooth step: 0 for x <= 0, 1 for x >= 1, raised cosine in between."""
    x = np.clip(x, 0.0, 1.0)
    return 0.5 * (1.0 - np.cos(np.pi * x))


def plateau(x, center, halfwidth, width):
    """Smooth plateau: 1 for |x - center| <= halfwidth, raised cosine down to
    0 over `width` more, 0 beyond."""
    y = (np.abs(x - center) - halfwidth) / width
    return np.where(y <= 0.0, 1.0, 0.5 * (1.0 + np.cos(np.pi * np.clip(y, 0.0, 1.0))))


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

    def symbol(self, k):
        """The profile at the wavenumbers `k` (an array, e.g. `grid.k`)."""
        y = _log2_abs(k) - self.m
        sym = ramp(y + 1.0) - ramp(y)
        if self.lo_clamped:
            sym = np.where(_log2_abs(k) <= self.m, 1.0 - ramp(y), sym)
        if self.hi_clamped:
            sym = np.where(_log2_abs(k) >= self.m, ramp(y + 1.0), sym)
        return np.where(k == 0, 0.0, sym)


def lp_blocks(grid):
    lo, hi = block_range(grid)
    return [LPBlock(m, lo_clamped=(m == lo), hi_clamped=(m == hi)) for m in range(lo, hi + 1)]


def partition_defect(grid):
    """max_k |sum_m symbol_m(k) - 1| over nonzero resolvable frequencies."""
    total = np.zeros(grid.n)
    for block in lp_blocks(grid):
        total += block.symbol(grid.k)
    nz = grid.k != 0
    return float(np.max(np.abs(total[nz] - 1.0)))


def _fft_size(size):
    """Smallest even 2^i 3^j >= size (lengths with a large prime factor are slow)."""
    return min(3**j << max(1, (-(-size // 3**j) - 1).bit_length())
               for j in range(int(math.log(size, 3)) + 1))


class Band(NamedTuple):
    """A symbol's nonzero run on the consecutive modes start, start + 1, ...:
    `values[run]` belongs at the fft-order slice `at` of a grid array, for
    each (at, run) in `parts` (two parts where the run wraps past index 0)."""

    start: int
    values: np.ndarray
    parts: tuple


class HalfBlock(NamedTuple):
    """One half (k < 0 or k > 0) of an LP block, with what its product needs."""

    block: Band  # the half's support
    low: Band  # the low-pass support of cut 2^(m - SEPARATION)
    size: int  # fast length N' >= the product band's width
    out: tuple  # (at, run) parts of the product band, its modes taken mod n
    neg: bool  # the product reaches a kept mode with k < 0


def _parts(n, start, size):
    """(at, run) slice pairs of the modes start .. start + size - 1 (size <= n)."""
    lo = start % n
    if lo + size <= n:
        return ((slice(lo, lo + size), slice(0, size)),)
    return ((slice(lo, n), slice(0, n - lo)), (slice(0, lo + size - n), slice(n - lo, size)))


def _band(n, start, sym):
    """The nonzero run of `sym`, a symbol on the modes start, start + 1, ..."""
    nz = np.flatnonzero(sym)
    first, stop = int(nz[0]), int(nz[-1]) + 1
    return Band(start + first, sym[first:stop], _parts(n, start + first, stop - first))


def _window(grid, inner, outer):
    """Wavenumbers of the modes -outer .. -inner, then inner .. outer (below n/2)."""
    n = grid.n
    return np.concatenate((grid.k[n - outer: n - inner + 1],
                           grid.k[inner: min(outer, n // 2 - 1) + 1]))


def band_table(grid):
    """(m, halves) for every LP block m of `grid`, built once per grid.

    `LPBlock.symbol` is evaluated on its window 2^(m-1) < |k| < 2^(m+1) only
    (open at a clamped end), and the low-pass symbol of cut 2^(m - SEPARATION)
    on |k| < 2^(m + 1 - SEPARATION); each is stored as its nonzero run on
    consecutive modes (`Band`), the block split at k = 0 into two
    `HalfBlock`s.  A half times the low piece lies in a band of width
    len(half) + len(low) - 1, which is formed on the shortest fast length N'
    that holds it and added back at its modes mod n, so the top blocks alias
    as on the full grid.  Only the k < 0 halves reach a kept k < 0 mode,
    unless the dealias cut lies within the low reach of n/2, where the top
    k > 0 half wraps there too.  Table build and storage are O(n)."""
    if grid not in _BANDS:
        n, top = grid.n, grid.n // 2
        kept_neg = grid.dealias_mask & (grid.modes < 0)
        table = []
        for block in lp_blocks(grid):
            m = block.m
            inner = 1 if block.lo_clamped else max(1, math.floor(2.0 ** (m - 1) / grid.dk))
            outer = top if block.hi_clamped else min(top, math.ceil(2.0 ** (m + 1) / grid.dk))
            sym = block.symbol(_window(grid, inner, outer))
            split = outer - inner + 1
            reach = min(top - 1, math.ceil(2.0 ** (m + 1 - SEPARATION) / grid.dk))
            low = _band(n, -reach, lowpass_symbol(_window(grid, 0, reach), 2.0 ** (m - SEPARATION)))
            halves = []
            for half in (_band(n, -outer, sym[:split]), _band(n, inner, sym[split:])):
                width = len(half.values) + len(low.values) - 1
                out = _parts(n, half.start + low.start, width)
                neg = any(kept_neg[at].any() for at, _ in out)
                halves.append(HalfBlock(half, low, _fft_size(width), out, neg))
            table.append((m, tuple(halves)))
        _BANDS[grid] = tuple(table)
    return _BANDS[grid]


def spread(coef, halves, out):
    """Write `coef` times the block symbol made of `halves` into the
    fft-order row `out`, zero off the block."""
    out.fill(0.0)
    for half in halves:
        for at, run in half.block.parts:
            out[at] = coef[at] * half.block.values[run]


def gather(coef, band, size):
    """`coef` times the symbol of `band`, its mode `band.start` at index 0 of `size`."""
    out = np.zeros(size, dtype=complex)
    for at, run in band.parts:
        out[run] = coef[at] * band.values[run]
    return out


def besov_inf2(u, s):
    """Homogeneous Besov norm: sqrt( sum_m 2^(2 m s) |P_m u|_Linf^2 ).

    The blocks P_m u go, times the centring phase, into the rows of one
    reused buffer of `grid._rows_per_call` rows (no more than there are
    blocks); each fill is transformed in place in one call, and the sup of
    every row is read from it.  The terms are summed in the order of m."""
    grid = u.grid
    table = band_table(grid)
    rows = np.empty((min(_rows_per_call(grid.n), len(table)), grid.n), dtype=complex)
    total = 0.0
    for lo in range(0, len(table), len(rows)):
        part = table[lo:lo + len(rows)]
        buf = rows[:len(part)]
        for row, (_, halves) in zip(buf, part):
            spread(u.coef, halves, row)
        buf *= grid.center_phase
        sups = np.max(np.abs(_fft("ifft", buf, out=buf)), axis=1)
        for (m, _), sup in zip(part, sups):
            total += 2.0 ** (2 * m * s) * sup ** 2
    return math.sqrt(total)


# smooth one-sided windows keyed to an arbitrary (non-dyadic) center --------

def lowpass_symbol(k, cut):
    """1 for |k| <= cut, raised-cosine decay to 0 at 2*cut; passes k = 0."""
    y = _log2_abs(k) - math.log2(cut)
    return np.where(k == 0, 1.0, 1.0 - ramp(y))


def band_symbol(grid, center):
    """Window on |k| in (center/2, 2*center): flat within half an octave of
    the center, cosine ramps to zero at the octave edges."""
    if 2.0 * center < grid.dk:
        return np.zeros(grid.n)
    y = np.abs(_log2_abs(grid.k) - math.log2(center))
    sym = 1.0 - ramp(2.0 * (y - 0.5))
    return np.where(grid.k == 0, 0.0, sym)


def band_low_symbol(grid, center):
    """Complement of `band_symbol` on the low-frequency side; together with
    the band and the high complement the three tile every k != 0."""
    y = _log2_abs(grid.k) - math.log2(center)
    sym = ramp(-2.0 * y - 1.0)
    return np.where(grid.k == 0, 0.0, sym)


def band_high_symbol(grid, center):
    y = _log2_abs(grid.k) - math.log2(center)
    sym = ramp(2.0 * y - 1.0)
    return np.where(grid.k == 0, 0.0, sym)


def x_zero_norm(w_alpha, q_alpha):
    """Besov pair  |w_a|_{B^(1/4)inf2} + |q_a|_{B^(3/4)inf2}."""
    return besov_inf2(w_alpha, 0.25) + besov_inf2(q_alpha, 0.75)


def x_sup_norm(w_alpha, r):
    """Sup-norm part of `x_norm`:  | |D|^(-1/2) w_alpha |_Linf + | r |_Linf."""
    return frac_deriv(w_alpha.demean(), -0.5).linf() + r.linf()


def x_norm(w_alpha, r):
    """Pointwise control norm of the differentiated pair (w_alpha, r):
    `x_sup_norm` plus the Besov pair `x_zero_norm`."""
    return x_sup_norm(w_alpha, r) + x_zero_norm(w_alpha, r)
