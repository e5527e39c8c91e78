"""Paraproducts, balanced products, and the trichotomy they split off.

T_a b sums the dyadic pieces P_m b multiplied by the part of a lying at
least `lp.SEPARATION` octaves below 2^m.  The balanced product is the
complement Pi(a, b) = P[a b] - T_a b - T_b a, P the negative-frequency
projection that both operators apply; `trichotomy_residual` compares it with
the sum of comparable block pairs.

Each LP block's support is split at k = 0 (`lp.band_table`).  One half of
P_m b spans 2^(m-1) < |k| < 2^(m+1) on one side of 0, and the low piece of a
reaches |k| < 2^(m-3), so their product lies in a band about 1.75 2^m wide
on that side (Bony's support property); only the half's run within the low
reach of the dealias cut reaches a kept mode.  The product of that run is
formed on the shortest fast length N' that holds its band, the run placed
at the band's offset, and added back at its modes mod n: its transform is
the exact convolution, so the sum is the full-grid one to rounding,
aliasing of the top blocks included.  Only the halves whose product reaches
a kept k < 0 mode are formed.

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
from .lp import SEPARATION, band_table, block_range, gather, lowpass_symbol, lp_blocks


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


def _halves(grid):  # the block halves whose product reaches a kept k < 0 mode
    return [half for _, pair in band_table(grid) for half in pair if half.neg]


def _products(pairs):
    """(half, product) for each half of `_halves`: the read run of P_m b times
    the part of a below 2^(m - SEPARATION) on the half's sub-grid, summed
    over the (a, b) in `pairs`."""
    for a, b in pairs:
        a._check(b)
    for half in _halves(pairs[0][0].grid):
        yield half, sum(_piece(a, "low", half.low, half.size)
                        * _piece(b, "block", half.read, half.size) for a, b in pairs)


def _para(*pairs):
    """Sum of T_a b over the (a, b) in `pairs`: each half's product transformed
    once (the linear convolution of its pieces) and added at its modes mod n."""
    grid = pairs[0][0].grid
    coef = np.zeros(grid.n, dtype=complex)
    for half, prod in _products(pairs):
        prod = np.fft.fft(prod, norm="forward")
        for at, run in half.out.parts:
            coef[at] += prod[run]
    return project_neg(Field(grid, np.where(grid.dealias_mask, coef, 0.0)))


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
                      for half in _halves(u.grid)]


def pair_product(a, b, d):
    """<P[a b], d> for a dual row d, summed over the grid values."""
    a._check(b)
    return a.grid.length / a.grid.n * complex(np.vdot(d[0], a.values * b.values))


def pair_para(a, b, d):
    """<T_a b, d> for a dual row d: each product of `_products` paired with
    D_h on its sub-grid in place of its transform."""
    total = sum(np.vdot(row, prod) / half.size
                for (half, prod), row in zip(_products([(a, b)]), d[1]))
    return a.grid.length * complex(total)


def pair_balanced(a, b, d):
    """<Pi(a, b), d> for a dual row d: <P[a b], d> less both paraproducts."""
    return pair_product(a, b, d) - pair_para(a, b, d) - pair_para(b, a, d)


def trichotomy_residual(a, b):
    """L2 size of Pi(a, b) - P[Pi_pairs(a, b)], Pi_pairs the sum of
    comparable block pairs (Bony 1981) in full-grid dealiased products: the
    product of the means, plus P_j a times the blocks of b within SEPARATION
    octaves of j, less the part of a below 2^(lo - 1) off k = 0 times block
    lo + SEPARATION - 1 of b (and the mirror term), which T_a b holds and no
    block pair does."""
    grid = a.grid
    nz = grid.k != 0
    sym = {block.m: block.symbol(grid.k) for block in lp_blocks(grid)}
    pairs = Field(grid, np.where(nz, 0.0, a.coef)) * Field(grid, np.where(nz, 0.0, b.coef))
    for j, s in sym.items():
        near = sum(s_m for m, s_m in sym.items() if abs(j - m) < SEPARATION)
        pairs = pairs + Field(grid, a.coef * s) * Field(grid, b.coef * near)
    lo, _ = block_range(grid)
    edge = np.where(nz, lowpass_symbol(grid.k, 2.0 ** (lo - 1)), 0.0)
    top = sym.get(lo + SEPARATION - 1, 0.0)  # none on a grid of fewer blocks
    for u, v in ((a, b), (b, a)):
        pairs = pairs - Field(grid, u.coef * edge) * Field(grid, v.coef * top)
    return (balanced(a, b) - project_neg(pairs)).l2()
