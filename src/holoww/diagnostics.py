"""Control norms, the space-frequency decomposition, and decay fitting.

The pointwise control norm of the differentiated pair is

    X(bW, R) = ||D|^(-1/2) bW|_inf + |R|_inf
               + |bW|_{B^(1/4)inf2} + |R|_{B^(3/4)inf2},

and the scale-graded family A0, A_(1/4), A_(1/2), A# accompanies it.  Sup
norms are grid maxima; BMO entries are evaluated as L-inf (a documented
approximation: BMO <= L-inf and the two are interchangeable here up to
constants).  `control_norms` reads them from 3B + 8 n-point rows (B blocks of
`lp.band_table`) through one buffer of `grid._rows_per_call` rows and its |.|.

The space-frequency split localizes a pair (w, q) with the dyadic bumps of
`lp.LPBlock` taken in alpha, chi_m = `LPBlock(m).symbol(alpha)` on
|alpha| ~ 2^m between alpha_lo = t^(3/4) and alpha_hi = t^2, closed by a low
bump (1 at alpha = 0) and a high bump into a partition of unity (the
localizer acts on w and on q_alpha).  It then selects per block the
hyperbolic frequency band around xi_0 = t^2 / (4 alpha_0^2); everything
else, w - hyp_w, is elliptic.  The X-sharp norm weights these pieces with
the exponents a = 5/4 below unit frequency and b = (sigma - 11/4)/4 above
it.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import scaling_pair
from .errors import InsufficientSamples, TimeTooSmall
from .grid import Field, frac_deriv, pair_sobolev
from .lp import (
    LPBlock,
    _besov_sum,
    _log2_abs,
    _moduli,
    _project,
    band_symbol,
    band_table,
    ramp,
    x_zero_norm,
)

SIGMA_DEFAULT = 3.0  # Sobolev exponent; any value above 11/4 is admissible


def xsharp_exponents(sigma=SIGMA_DEFAULT):
    return 1.25, 0.25 * (sigma - 2.75)


def hs_exponents(sigma):
    """Exponents s of the pair norms |(bW, R)|_{H^s} of a `NormRecord`, in column order."""
    return 0.25, sigma - 1.0


# control norms ---------------------------------------------------------------

@dataclass
class NormRecord:
    t: float
    a0: float
    a_quarter: float
    a_half: float
    a_sharp: float
    x: float
    hs: dict  # H^s pair norm per exponent of `hs_exponents`, in that order


def control_norms(state, sigma=SIGMA_DEFAULT):
    """Scale-graded norms of one snapshot (sup norms as grid maxima), read in
    one pass of `lp._moduli` (a reused row buffer and its |.|) over the
    `lp.band_table` blocks of |D|^(1/2) R, W_a, R, then R_a, |D|^s W_a (s = 1/2,
    -1/2, 1/4), |D|^(3/4) R, |D|^(1/2) R, Y, R; Y's and R's values are kept."""
    wa, r, y = state.wa, state.r, state.y
    grid, table = wa.grid, band_table(wa.grid)
    cp, b = grid.center_phase, len(table)
    # times the centring phase once per field: the sign commutes exactly with each row's multiplier
    hc, wc, rc = frac_deriv(r, 0.5).coef * cp, Field(grid, wa.coef * cp), r.coef * cp
    fills = [partial(_project, c, halves) for c in (hc, wc.coef, rc) for _, halves in table]
    fills += [lambda row: np.multiply(rc, 1j * grid.k, out=row)]
    fills += [lambda row, u=u, s=s: np.copyto(row, frac_deriv(u, s).coef) for u, s in (
        (wc, 0.5), (wc, -0.5), (wc, 0.25), (Field(grid, rc), 0.75))]
    fills += [lambda row: np.copyto(row, hc), partial(np.multiply, y.coef, cp),  # (y, cp, out)
              lambda row: np.copyto(row, rc)]

    def read(i, values, mag):  # the views die with the comprehension below
        if i >= len(fills) - 2:  # Y and R, whose values a later rate reads
            (y, r)[i - len(fills) + 2]._values = values.copy()
        return (np.mean(mag ** 4) * grid.length) ** 0.25 if i - 3 * b in (3, 4) else mag.max()

    out = [read(i, *item) for i, item in enumerate(_moduli(grid, fills))]
    half_r_b, wa_b, r_b = (_besov_sum(table, s, out[i * b:(i + 1) * b])
                           for i, s in enumerate((0.0, 0.25, 0.75)))
    r_a_sup, half_wa_sup, wa_x_sup, wa_l4, r_l4, half_r_sup, y_sup, r_sup = out[3 * b:]
    a_quarter = wa_b + r_b  # the Besov pair of X, `lp.x_zero_norm`
    return NormRecord(
        t=state.t,
        a0=float(wa.linf() + y_sup + max(half_r_sup, half_r_b)),
        a_quarter=a_quarter,
        a_half=float(half_wa_sup + r_a_sup),
        a_sharp=float(wa_l4 + r_l4),
        x=float(wa_x_sup + r_sup + a_quarter),
        hs={s: pair_sobolev((wa, r), s) for s in hs_exponents(sigma)},
    )


def weighted_energy(state, sigma=SIGMA_DEFAULT):
    """Low norm of (W, Q), high norm of (bW, R), plus the generator pair of
    the scaling field (`scaling_pair`), all in the same pair norm."""
    return (
        pair_sobolev((state.w, state.q), 0.25)
        + pair_sobolev((state.wa, state.r), sigma - 1.0)
        + pair_sobolev(scaling_pair(state), 0.25)
    )


# spatial localization ----------------------------------------------------------

def alpha_partition(grid, t):
    """Telescoping cover: low bump, dyadic blocks on [t^(3/4), t^2], high bump;
    the blocks stop at a quarter of the period."""
    if t < 1.0:
        raise TimeTooSmall("the space-frequency split needs t >= 1")
    m_lo = round(math.log2(t**0.75))
    m_hi = max(m_lo, round(math.log2(min(t**2, grid.length / 4.0))))
    y = _log2_abs(grid.alpha)
    lo = 1.0 - ramp(y - m_lo + 1.0)  # 1 at alpha = 0, where `LPBlock.symbol` is 0
    hi = ramp(y - m_hi)
    blocks = [(m, LPBlock(m).symbol(grid.alpha)) for m in range(m_lo, m_hi + 1)]
    return lo, blocks, hi


@dataclass
class EllHypSplit:
    """Elliptic/hyperbolic decomposition of a pair (w, q).

    q is carried through its derivative everywhere.  `blocks` holds, per
    dyadic center alpha_0 = 2^m, the localized pair (w, qa), the hyperbolic
    window center xi_0 = t^2/(4 alpha_0^2), and the hyperbolic parts
    (w_hyp, qa_hyp) of the pair; `hyp_w` sums the blocks' w_hyp.
    """

    t: float
    grid: object
    w_lo: object
    qa_lo: object
    w_hi: object
    qa_hi: object
    blocks: list
    hyp_w: object


def ell_hyp_split(pair, t):
    """Split (w, q) into elliptic and hyperbolic parts at the ray frequency."""
    w, q = pair
    grid = w.grid
    qa = q.deriv()
    lo_sym, block_syms, hi_sym = alpha_partition(grid, t)

    def localize(sym):
        return (
            Field.from_values(grid, sym * w.values),
            Field.from_values(grid, sym * qa.values),
        )

    w_lo, qa_lo = localize(lo_sym)
    w_hi, qa_hi = localize(hi_sym)
    blocks = []
    hyp_w = Field.zero(grid)
    for m, sym in block_syms:
        alpha0 = 2.0**m
        xi0 = t**2 / (4.0 * alpha0**2)
        wm, qam = localize(sym)
        _, window, _ = band_symbol(grid, xi0)
        wm_hyp = Field(grid, wm.coef * window)
        qam_hyp = Field(grid, qam.coef * window)
        blocks.append(
            {
                "m": m,
                "xi0": xi0,
                "w": wm,
                "qa": qam,
                "w_hyp": wm_hyp,
                "qa_hyp": qam_hyp,
            }
        )
        hyp_w = hyp_w + wm_hyp
    return EllHypSplit(t, grid, w_lo, qa_lo, w_hi, qa_hi, blocks, hyp_w)


def hyp_band_mass_fraction(block):
    """Share of a hyperbolic block's L2 mass within one octave of xi_0."""
    grid = block["w_hyp"].grid
    inside = (grid.abs_k > block["xi0"] / 2.0) & (grid.abs_k < block["xi0"] * 2.0)
    total = float(np.sum(np.abs(block["w_hyp"].coef) ** 2 + np.abs(block["qa_hyp"].coef) ** 2))
    kept = float(
        np.sum(np.abs(block["w_hyp"].coef[inside]) ** 2)
        + np.sum(np.abs(block["qa_hyp"].coef[inside]) ** 2)
    )
    return kept / total if total > 0 else 1.0


# the X-sharp norms --------------------------------------------------------------

def xsharp_norm(split, sigma=SIGMA_DEFAULT):
    """The strengthened pointwise-control norm of a split pair and its
    elliptic counterpart: (total, ell_total), each the low and high bump
    parts plus the largest block (0 without blocks)."""
    t = split.t
    grid = split.grid
    a_exp, b_exp = xsharp_exponents(sigma)

    lo = t**0.5 * math.sqrt(
        frac_deriv(split.w_lo.demean(), 0.75).l2() ** 2
        + frac_deriv(split.qa_lo.demean(), 0.25).l2() ** 2
    )
    hi = t**1.5 * pair_sobolev((split.w_hi.deriv(), split.qa_hi), 0.25)

    sup_blocks = sup_ell = 0.0
    for blk in split.blocks:
        xi0 = blk["xi0"]
        w_a = blk["w"].deriv()
        qa_a = blk["qa"]
        below, _, above = band_symbol(grid, xi0)
        hi_part = t**0.5 * xi0**-0.5 * pair_sobolev(
            (Field(grid, w_a.coef * above), Field(grid, qa_a.coef * above)), 0.25
        )
        lo_part = t**0.5 * pair_sobolev(
            (Field(grid, w_a.coef * below), Field(grid, qa_a.coef * below)), -0.25
        )
        weight = xi0**-a_exp if xi0 < 1.0 else xi0**b_exp
        band = weight * x_zero_norm(blk["w_hyp"].deriv(), blk["qa_hyp"])
        sup_blocks = max(sup_blocks, hi_part + lo_part + band)
        sup_ell = max(sup_ell, t**0.5 * xi0**-0.5 * pair_sobolev((w_a, qa_a), 0.25)
                      + t**0.5 * pair_sobolev((w_a, qa_a), -0.25))
    return lo + hi + sup_blocks, lo + hi + sup_ell


# decay fitting -------------------------------------------------------------------

def decay_fit(ts, values, min_samples=8):
    """Least-squares slope of log(value) against log(t), with its stderr."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = (ts > 0) & (values > 0)
    ts, values = ts[keep], values[keep]
    if ts.size < min_samples:
        raise InsufficientSamples(f"need at least {min_samples} positive samples")
    if ts.max() / ts.min() < 10.0:
        raise InsufficientSamples("samples must span at least one decade of t")
    x, y = np.log(ts), np.log(values)
    x, y = x - x.mean(), y - y.mean()
    sxx = float(np.sum(x * x))
    slope = float(np.sum(x * y)) / sxx
    return slope, math.sqrt(float(np.sum((y - slope * x) ** 2)) / ((ts.size - 2) * sxx))
