"""Paraproducts, balanced products, and the trichotomy they split off.

T_a b sums the dyadic pieces P_m b multiplied by the part of a lying at
least `lp.SEPARATION` octaves below 2^m.  The balanced product is defined
as the exact pointwise complement

    Pi(a, b) = a b - T_a b - T_b a,

so the trichotomy holds to machine precision by construction.  Both
operators return the negative-frequency projection P of that sum; the
unprojected low-high sum `_lohi` is what the trichotomy residual uses, since
P does not commute with multiplication.

Each LP block's support is split at k = 0 (`lp.band_table`).  One half of
P_m b spans 2^(m-1) < |k| < 2^(m+1) on one side of 0, and the low piece of a
reaches |k| < 2^(m-3), so their product lies in a band about 1.75 2^m wide
on that side (Bony's support property); only the half's run within the low
reach of the dealias cut reaches a kept mode.  The product of that run is
formed on the shortest fast length N' that holds its band, the run placed
at the band's offset, and added back at its modes mod n: its transform is
the exact convolution, so the sum is the full-grid one to rounding,
aliasing of the top blocks included.  `_lohi` sums both halves of every
block; `para` only the halves whose product reaches a kept k < 0 mode, the
k < 0 ones.

The sub-grid transform of each piece, the low piece of a and the run of
P_m b, is kept on its field (`Field._pieces`) the first time a product
needs it, keyed by the run's first mode, length and N', so both halves of
a block that share N' share the low piece, and a field read again as an
operand is not transformed again.

The pairings give <X, d> for X = T_a b, Pi(a, b) or P[a b] without forming
X, from a dual row d (`dual`) cut to the modes X has, k < 0 inside the dealias
cut.  By Parseval on each sub-grid, half h adds length (1/N') sum conj(D_h)
low(a) block(b), D_h the inverse transform of length N' of d on the band
`out`; P[a b] adds length (1/n) sum conj(d) a b over the grid values.
"""

import numpy as np

from .grid import Field, project_neg
from .lp import band_table, gather


def _piece(u, kind, band, size):
    """Values of `u` times the symbol of `band` on the sub-grid of length
    `size`, kept on `u` under (kind, first mode, run length, size) and
    read-only."""
    if u._pieces is None:
        u._pieces = {}
    key = (kind, band.start, len(band.values), size)
    piece = u._pieces.get(key)
    if piece is None:
        piece = u._pieces[key] = np.fft.ifft(gather(u.coef, band, size), norm="forward")
        piece.flags.writeable = False
    return piece


def _half_sum(pairs, halves):
    """Sum over `halves` and over the (a, b) in `pairs` of the read run of
    one half of P_m b times the part of a below 2^(m - SEPARATION),
    unprojected: the pairs' products are summed before the one transform."""
    grid = pairs[0][0].grid
    for a, b in pairs:
        a._check(b)
    coef = np.zeros(grid.n, dtype=complex)
    for half in halves:
        prod = sum(_piece(a, "low", half.low, half.size) * _piece(b, "block", half.read, half.size)
                   for a, b in pairs)
        prod = np.fft.fft(prod, norm="forward")  # the linear convolution of the pieces
        for at, run in half.out.parts:
            coef[at] += prod[run]
    return Field(grid, np.where(grid.dealias_mask, coef, 0.0))


def _halves(grid, flag):  # the block halves whose `flag`, "read" or "neg", is set
    return [half for _, pair in band_table(grid) for half in pair if getattr(half, flag)]


def _lohi(a, b):
    """Unprojected low-high sum: P_m b times the part of a below 2^(m - SEPARATION)."""
    return _half_sum([(a, b)], _halves(a.grid, "read"))


def _para(*pairs):
    """Sum of T_a b over the (a, b) in `pairs`, from the halves whose product reaches k < 0."""
    return project_neg(_half_sum(pairs, _halves(pairs[0][0].grid, "neg")))


def para(a, b):
    """Low-high paraproduct T_a b."""
    return _para((a, b))


def balanced(a, b):
    """Balanced product Pi(a, b) = P[a b] - T_a b - T_b a, the two
    paraproducts summed on each sub-grid before one transform."""
    return project_neg(a * b) - _para((a, b), (b, a))


def dual(u):
    """The dual row d of u that the pairings <., u> read, as (values, [D_h]):
    the grid values of u's modes with k < 0 inside the dealias cut, and D_h
    for each half that reaches k < 0.  Its coefficients are not kept."""
    d = project_neg(u.dealiased())
    return d.values, [np.fft.ifft(gather(d.coef, half.out, half.size), norm="forward")
                      for half in _halves(u.grid, "neg")]


def pair_product(a, b, d):
    """<P[a b], d> for a dual row d, summed over the grid values."""
    a._check(b)
    return a.grid.length / a.grid.n * complex(np.vdot(d[0], a.values * b.values))


def pair_para(a, b, d):
    """<T_a b, d> for a dual row d: the loop of `_half_sum`, each product
    paired with D_h on its sub-grid in place of its transform."""
    a._check(b)
    total = 0j
    for half, row in zip(_halves(a.grid, "neg"), d[1]):
        prod = _piece(a, "low", half.low, half.size) * _piece(b, "block", half.read, half.size)
        total += np.vdot(row, prod) / half.size
    return a.grid.length * complex(total)


def pair_balanced(a, b, d):
    """<Pi(a, b), d> for a dual row d: <P[a b], d> less both paraproducts."""
    return pair_product(a, b, d) - pair_para(a, b, d) - pair_para(b, a, d)


def trichotomy_residual(a, b):
    """L2 size of  a b - T_a b - T_b a - Pi(a, b)  with the projection off.

    The product is formed exactly as the operators form it (dealiased), and
    the residual is zero up to roundoff.
    """
    prod = a * b
    t_ab, t_ba = _lohi(a, b), _lohi(b, a)
    pi = a * b - t_ab - t_ba  # Pi(a, b) before the projection
    return (prod - t_ab - t_ba - pi).l2()

