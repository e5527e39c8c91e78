"""Paraproducts, balanced products, and the trichotomy they split off.

T_a b sums the dyadic pieces P_m b multiplied by the part of a lying at
least `separation` octaves below 2^m.  The balanced product is defined as
the exact pointwise complement

    Pi(a, b) = a b - T_a b - T_b a,

so the trichotomy holds to machine precision by construction.  Both
operators optionally carry an implicit negative-frequency projection, and
the paraproduct can be symmetrized with its adjoint, which makes it a
self-adjoint operator for real symbols.
"""

from dataclasses import dataclass

import numpy as np

from .grid import Field, frac_deriv, project_neg
from .lp import lp_blocks, lowpass_symbol, apply_symbol


@dataclass(frozen=True)
class ParaConfig:
    separation: int = 4        # octaves between symbol and argument
    symmetric: bool = False    # average with the adjoint
    implicit_p: bool = True    # project output to negative frequencies

    def __post_init__(self):
        if self.separation < 2:
            raise ValueError("separation must be at least 2 octaves")


DEFAULT = ParaConfig()


def _para_plain(a, b, cfg):
    a._check(b)
    grid = a.grid
    out = Field.zero(grid)
    for block in lp_blocks(grid):
        hi = apply_symbol(b, block.symbol(grid))
        lo = apply_symbol(a, lowpass_symbol(grid, 2.0 ** (block.m - cfg.separation)))
        out = out + lo * hi
    return out


def _para_adjoint(a, v, cfg):
    a._check(v)
    grid = a.grid
    out = Field.zero(grid)
    for block in lp_blocks(grid):
        lo = apply_symbol(a, lowpass_symbol(grid, 2.0 ** (block.m - cfg.separation)))
        out = out + apply_symbol(lo.conj() * v, block.symbol(grid))
    return out


def para(a, b, cfg=DEFAULT):
    """Low-high paraproduct T_a b."""
    out = _para_plain(a, b, cfg)
    if cfg.symmetric:
        out = 0.5 * (out + _para_adjoint(a, b, cfg))
    return project_neg(out) if cfg.implicit_p else out


def para_adjoint(a, v, cfg=DEFAULT):
    """Adjoint of `para` for the complex L2 pairing."""
    out = _para_adjoint(a, v, cfg)
    if cfg.symmetric:
        out = 0.5 * (out + _para_plain(a, v, cfg))
    return project_neg(out) if cfg.implicit_p else out


def balanced(a, b, cfg=DEFAULT):
    """Balanced product Pi(a, b) = a b - T_a b - T_b a (then implicit P)."""
    raw = cfg if not cfg.implicit_p else ParaConfig(cfg.separation, cfg.symmetric, False)
    out = a * b - para(a, b, raw) - para(b, a, raw)
    return project_neg(out) if cfg.implicit_p else out


def trichotomy_residual(a, b, cfg=DEFAULT, consistent=True):
    """L2 size of  a b - T_a b - T_b a - Pi(a, b)  with the projection off.

    With `consistent` the product is formed exactly as the operators form it
    (dealiased), and the residual is zero up to roundoff.  With
    `consistent=False` the raw, undealiased product is used instead, which
    reports how much aliased content the mask is discarding.
    """
    raw = ParaConfig(cfg.separation, cfg.symmetric, False)
    if consistent:
        prod = a * b
    else:
        prod = Field.from_values(a.grid, a.values * b.values)
    resid = prod - para(a, b, raw) - para(b, a, raw) - balanced(a, b, raw)
    return resid.l2()


def commutator_norm(a, chi, band_m, cfg=DEFAULT, probes=6, seed=0):
    """Empirical norm of u -> [chi, T_a] d(alpha) u on probe fields at one band.

    Measured as the worst ratio of homogeneous H^(1/4) norms over a seeded
    probe set; a reported figure for scaling studies, not an assertion.
    """
    grid = a.grid
    cfg = ParaConfig(cfg.separation, cfg.symmetric, False)  # P does not commute with chi
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(probes):
        coef = np.zeros(grid.n, dtype=complex)
        sel = (np.abs(grid.abs_k / 2.0**band_m) > 0.5) & (np.abs(grid.abs_k / 2.0**band_m) < 2.0)
        idx = np.where(sel)[0]
        coef[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        u = Field(grid, coef).dealiased()
        du = u.deriv()
        comm = chi * para(a, du, cfg) - para(a, chi * du, cfg)
        denom = frac_deriv(u.demean(), 0.25).l2()
        if denom > 0:
            worst = max(worst, frac_deriv(comm.demean(), 0.25).l2() / denom)
    return worst
