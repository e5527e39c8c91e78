"""Wave packets and the asymptotic profile gamma(t, v).

A packet riding the ray alpha = v t carries the stationary phase
phi = t^2/(4 alpha) (`phase`) and frequency xi_v = -1/(4 v^2):

    u(t, alpha) = v^(-3/2) chi(y) exp(i phi),   y = (alpha - v t) / (t^(1/2) v^(3/2)),

with chi a smooth compactly supported bump of unit integral (`bump_jet`
gives chi, chi' and chi'' from one exponential), for t >= PACKET_T_MIN.
The pair (w, q) = (-i v d_t u, v u) solves the linear system up to the defect

    g = d_t w + d_a q = v (d_a - i d_t^2) u,

whose closed form splits into a leading piece of relative size 1/t and a
subleading piece smaller by another t^(1/2).  That split, the expansion of w
and the symmetrized form of gamma below are closed-form oracles, kept in
`tests/test_packets.py` next to the checks that compare them with this module.

Testing a normal-form pair against the packet in the energy pairing yields

    gamma(t, v) = <(Wt, Qt), (w, q)>   (L2 x H^(1/2), complex pairing),

which along rays obeys  d(gamma)/dt = i gamma |gamma|^2 / (2 t (2v)^5) + e.
All time derivatives of gamma used in assertions are assembled analytically:
the packet side satisfies d_t w = -d_a q + g and d_t q = i w exactly.

`build_packet` evaluates the closed form once per velocity, and only on the
support |y| < 1 of the bump (a dozen of the 2048 points of the desk grid at
t = 10), zero elsewhere, and gamma pairs it there: <a, b> = (length/n) sum
a conj(b) over grid points (Parseval on the grid), with the values of Wt and
|D|Qt that `pairing_fields` forms once for all rays.  `monochrome_ansatz`
rides the same ray with the flat profile of `lp.plateau` in alpha.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain, WrapAround
from .diagnostics import ell_hyp_split
from .grid import Field, frac_deriv
from .lp import plateau

PACKET_T_MIN = 4.0  # earliest time of a packet, and so of a gamma sample


# integral of exp(1 - 1/(1 - y^2)) over |y| < 1: the 20001-point trapezoid
# value, 1 ulp from the exact 1.2069003224378761753
BUMP_NORM = 1.206900322437876


def bump_jet(y):
    """The C-infinity bump chi = exp(1 - 1/(1 - y^2)) on |y| < 1, scaled to
    unit integral, and its derivatives: (chi, chi', chi'')."""
    y = np.asarray(y, dtype=float)
    inside = np.abs(y) < 1.0
    yy = np.where(inside, y, 0.0)
    s = 1.0 - yy**2
    chi = np.where(inside, np.exp(1.0 - 1.0 / s), 0.0) / BUMP_NORM
    g = -2.0 * yy / s**2  # chi' / chi
    gp = -2.0 / s**2 - 8.0 * yy**2 / s**3
    return chi, np.where(inside, chi * g, 0.0), np.where(inside, chi * (g**2 + gp), 0.0)


def omega0_band(t):
    """Admissible velocity window around |v| = 1 at time t."""
    return t ** (-0.01), t ** (0.01)


def omega0_grid(t, count=33):
    lo, hi = omega0_band(t)
    return np.exp(np.linspace(math.log(lo), math.log(hi), count))


@dataclass
class PacketFrame:
    """One wave packet: its geometry and closed-form rows on `support`, the
    grid points where the bump is nonzero.  The Fields u, w and q = v u are
    formed on first read, the u and w rows in one forward call."""

    grid: object
    t: float
    v: float
    width: float      # t^(1/2) v^(3/2)
    xi_v: float       # -1/(4 v^2)
    support: slice
    rows: np.ndarray    # u, w and d_t w on the support
    defect: np.ndarray  # g on the support

    @functools.cached_property
    def _fields(self):
        rows = np.zeros((2, self.grid.n), dtype=complex)
        rows[:, self.support] = self.rows[:2]
        u, w = (Field(self.grid, c, r) for c, r in zip(self.grid.coef_from_values(rows), rows))
        return u, w, self.v * u

    u, w, q = (property(lambda f, i=i: f._fields[i]) for i in range(3))


def phase(t, alpha):
    return t**2 / (4.0 * alpha)


def phase_t(t, alpha):
    return t / (2.0 * alpha)


def phase_alpha(t, alpha):
    return -(t**2) / (4.0 * alpha**2)


def _geometry(grid, t, v):
    """Width, the support |y| < 1 as a slice of grid points, and on it y,
    alpha (0 set to 1: phases divide by it) and exp(i phi)."""
    if t < PACKET_T_MIN:
        raise OutOfDomain(f"packets need t >= {PACKET_T_MIN:g}")
    lo, hi = omega0_band(t)
    if not lo <= v <= hi:
        raise OutOfDomain(f"velocity {v} outside [{lo:.4f}, {hi:.4f}]")
    width = math.sqrt(t) * v**1.5
    center = v * t
    if center + 6.0 * width > grid.length / 2.0 or center - 6.0 * width < -grid.length / 2.0:
        raise WrapAround("packet support must sit 5 widths inside the torus")
    y = (grid.alpha - center) / width
    inside = np.flatnonzero(np.abs(y) < 1.0)  # one run: y grows with alpha
    span = slice(inside[0], inside[-1] + 1) if inside.size else slice(0, 0)
    alpha = np.where(grid.alpha[span] != 0, grid.alpha[span], 1.0)
    return width, span, y[span], alpha, np.exp(1j * phase(t, alpha))


def build_packet(grid, t, v):
    """The packet of velocity v at time t.

    The closed form is evaluated once, on the support of the bump: u, w =
    -i v d_t u, and the rows `gamma_rate` and `packet_defect` read, d_t w =
    -i v d_t^2 u and g = v (d_a - i d_t^2) u.  Nothing is transformed."""
    width, span, y, alpha, carrier = _geometry(grid, t, v)
    chi, chi1, chi2 = bump_jet(y)
    y_a = 1.0 / width
    y_t = -(v**-0.5) * t**-0.5 - y / (2.0 * t)
    y_tt = 0.5 * v**-0.5 * t**-1.5 - y_t / (2.0 * t) + y / (2.0 * t**2)
    phi_t = phase_t(t, alpha)
    phi_tt = 1.0 / (2.0 * alpha)
    phi_a = phase_alpha(t, alpha)
    du_t = v**-1.5 * carrier * (chi1 * y_t + 1j * phi_t * chi)
    du_a = v**-1.5 * carrier * (chi1 * y_a + 1j * phi_a * chi)
    du_tt = v**-1.5 * carrier * (
        -(phi_t**2) * chi
        + 2j * phi_t * y_t * chi1
        + 1j * phi_tt * chi
        + y_tt * chi1
        + y_t**2 * chi2
    )
    rows = np.array([v**-1.5 * chi * carrier,
                     -1j * v * du_t,    # w = -i v d_t u
                     -1j * v * du_tt])  # d_t w
    return PacketFrame(grid, t, v, width, -1.0 / (4.0 * v**2), span, rows,
                       v * (du_a - 1j * du_tt))


def packet_defect(frame):
    """The linear-system defect g = v (d_a - i d_t^2) u, exactly."""
    values = np.zeros(frame.grid.n, dtype=complex)
    values[frame.support] = frame.defect
    return Field.from_values(frame.grid, values)


# the asymptotic profile -------------------------------------------------------

def pairing_fields(*pairs):
    """(w, |D|q) for each pair (w, q), the fields the gamma pairings read,
    with their grid values formed in one stacked inverse call."""
    fields = [f for w, q in pairs for f in (w, frac_deriv(q, 1.0))]
    values = fields[0].grid.values_from_coef(np.stack([f.coef for f in fields]))
    return [Field(f.grid, f.coef, x) for f, x in zip(fields, values)]


def gamma_value(wt, kqt, frame):
    """gamma = <(Wt, Qt), (w, q)> in L2 x H^(1/2): the sum over the support
    of Wt conj(w) + |D|Qt conj(q), from the values of Wt and kqt = |D|Qt."""
    s, (u, w, _) = frame.support, frame.rows
    return frame.grid.length / frame.grid.n * complex(
        np.vdot(w, wt.values[s]) + frame.v * np.vdot(u, kqt.values[s]))


def gamma_rate(wt, kqt, dwt, kdqt, frame):
    """Analytic time derivative of gamma along the flow, paired with the
    rates dWt and kdqt = |D|dQt too.  The packet side is (d_t w, d_t q) =
    (-i v d_t^2 u, i w) from the closed form: the exact rate of the profile."""
    s, (u, w, dt_w) = frame.support, frame.rows
    return frame.grid.length / frame.grid.n * complex(
        np.vdot(w, dwt.values[s]) + frame.v * np.vdot(u, kdqt.values[s])
        + np.vdot(dt_w, wt.values[s]) - 1j * np.vdot(w, kqt.values[s]))


def cubic_coefficient(gamma, t, v):
    """The asymptotic equation's cubic term  i gamma |gamma|^2 / (2 t (2v)^5)."""
    return 1j * gamma * np.abs(gamma) ** 2 / (2.0 * t * (2.0 * v) ** 5)


# ray reconstruction -------------------------------------------------------------

def packet_reconstruction_error(wt, qt, t, vs):
    """Compare the hyperbolic part of w on rays with its gamma representation.

    Returns (err_w, gammas): per velocity v, err_w is the mean-free
    hyperbolic part of w at alpha = v t less the main term
    t^(-1/2) e^{i phi(t, vt)} gamma(t, v), and gammas holds gamma(t, v).

    The main term is the chi-weighted mean of the profile over a packet of
    width t^(1/2) v^(3/2), so the error is small only for profiles that vary
    slowly on that scale; a single packet as data keeps a gap of
    1 - int chi^2 / chi(0) ~ 18.5% at every t.  The hyperbolic part comes
    from `ell_hyp_split`, whose per-block window is keyed to the ray
    frequency of the block centre 2^m: rays near alpha = 2^(m+1/2) fall
    outside the windows of both neighbouring blocks, and the profile there
    is counted as elliptic.
    """
    hyp_w = ell_hyp_split((wt, qt), t).hyp_w.demean()
    wt, kqt = pairing_fields((wt, qt))
    err_w = np.zeros(len(vs), dtype=complex)
    gammas = np.zeros(len(vs), dtype=complex)
    for i, v in enumerate(vs):
        gammas[i] = gamma_value(wt, kqt, build_packet(wt.grid, t, v))
        main = t**-0.5 * np.exp(1j * phase(t, v * t)) * gammas[i]
        err_w[i] = hyp_w.evaluate_at(v * t) - main
    return err_w, gammas


def weighted_l2_v(vs, err, weight_power):
    vs = np.asarray(vs, dtype=float)
    vals = np.abs(np.asarray(err)) ** 2 * vs ** (2.0 * weight_power)
    return math.sqrt(float(np.trapezoid(vals, vs)))


def spectral_profile(frame, s_grid):
    """Carrier-flattened spectrum on the scaled frequency axis.

    Removes exp(-i t sqrt|xi|) from the packet coefficients and resamples on
    s = (xi - xi_v) / (t^(-1/2) v^(-3/2)); by the stationary-phase form of
    the packet this profile is t-independent up to O(v^(1/2) t^(-1/2)).
    """
    grid = frame.grid
    order = np.argsort(grid.k)
    ks = grid.k[order]
    flat = frame.u.coef[order] * np.exp(-1j * frame.t * np.sqrt(np.abs(ks))) * frame.t**-0.5
    s = (ks - frame.xi_v) / (frame.t**-0.5 * frame.v**-1.5)
    return np.interp(s_grid, s, flat.real) + 1j * np.interp(s_grid, s, flat.imag)


# monochromatic test profiles ------------------------------------------------------

# plateau half-width and ramp width of `monochrome_ansatz`, in packet widths
MONOCHROME_HALFWIDTH = 3.0
MONOCHROME_RAMP = 2.0


def monochrome_ansatz(grid, t, v):
    """Idealized single-frequency profile riding the packet ray.

    Carries (Wt, Qt) plus independently supplied derivative fields in which
    d_alpha acts as multiplication by i xi_v; null-structure cancellations
    are exact in this idealization.  The profile is flat within
    MONOCHROME_HALFWIDTH packet widths t^(1/2) v^(3/2) of v t and falls to
    zero over MONOCHROME_RAMP more.
    """
    width = math.sqrt(t) * v**1.5
    center = v * t
    mask = plateau(grid.alpha, center, MONOCHROME_HALFWIDTH * width, MONOCHROME_RAMP * width)
    alpha = np.where(grid.alpha != 0, grid.alpha, 1.0)
    phi = np.where(mask > 0, phase(t, alpha), 0.0)
    xi = -1.0 / (4.0 * v**2)
    base = t**-0.5 * mask * np.exp(1j * phi)
    coef = grid.coef_from_values(base)  # the other three are fixed multiples of Wt
    q = abs(xi) ** -0.5 * math.copysign(1.0, v)
    wt_a, qt_a = (Field(grid, c * coef, c * base) for c in (1j * xi, 1j * xi * q))
    return Field(grid, coef, base), wt_a, Field(grid, q * coef), qt_a
