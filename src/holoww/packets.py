"""Wave packets, the asymptotic profile gamma(t, v), and its residuals.

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
t = 10), zero elsewhere.  Its three grid rows u, w and d_t w go through one
forward call; `gamma_rate` and `packet_defect` read the frame, and a gamma
sample builds and pairs one velocity at a time.  `monochrome_ansatz` rides
the same ray with the flat profile of `lp.plateau` in alpha.
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


@functools.cache
def _bump_norm():
    y = np.linspace(-1.0, 1.0, 20001)
    return float(np.trapezoid(np.exp(1.0 - 1.0 / (1.0 - y**2 + 1e-300)) * (np.abs(y) < 1), y))


def bump_jet(y):
    """The C-infinity bump chi = exp(1 - 1/(1 - y^2)) on |y| < 1, scaled to
    unit integral, and its derivatives: (chi, chi', chi'')."""
    y = np.asarray(y, dtype=float)
    inside = np.abs(y) < 1.0
    yy = np.where(inside, y, 0.0)
    s = 1.0 - yy**2
    chi = np.where(inside, np.exp(1.0 - 1.0 / s), 0.0) / _bump_norm()
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
    """One wave packet: the carrier u, the pair (w, q), and its geometry.

    u, w and dt_w = d_t w keep the grid values they were transformed from.
    `defect` holds the closed-form g on `support`, the grid points where the
    bump is nonzero."""

    grid: object
    t: float
    v: float
    width: float      # t^(1/2) v^(3/2)
    xi_v: float       # -1/(4 v^2)
    u: object
    w: object
    q: object
    dt_w: object
    support: slice
    defect: np.ndarray  # g on the support


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
    -i v d_t^2 u and g = v (d_a - i d_t^2) u.  The grid rows u, w and d_t w
    are transformed in one forward call."""
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
    rows = np.zeros((3, grid.n), dtype=complex)
    rows[0, span] = v**-1.5 * chi * carrier
    rows[1, span] = -1j * v * du_t  # w = -i v d_t u
    rows[2, span] = -1j * v * du_tt  # d_t w
    u, w, dt_w = (Field(grid, c, r) for c, r in zip(grid.coef_from_values(rows), rows))
    return PacketFrame(grid, t, v, width, -1.0 / (4.0 * v**2), u, w, v * u, dt_w, span,
                       v * (du_a - 1j * du_tt))


def packet_defect(frame):
    """The linear-system defect g = v (d_a - i d_t^2) u, exactly."""
    values = np.zeros(frame.grid.n, dtype=complex)
    values[frame.support] = frame.defect
    return Field.from_values(frame.grid, values)


# the asymptotic profile -------------------------------------------------------

def pair_energy_product(pair, frame_pair):
    """Complex pairing in L2 x H^(1/2): int a conj(b) + <|D|^(1/2)., .>."""
    (wt, qt), (pw, pq) = pair, frame_pair
    first = wt.inner(pw)
    k = wt.grid.abs_k
    second = wt.grid.length * complex(np.sum(k * qt.coef * np.conj(pq.coef)))
    return first + second


def gamma_value(wt, qt, frame):
    return pair_energy_product((wt, qt), (frame.w, frame.q))


def gamma_rate(wt, qt, dwt, dqt, frame):
    """Analytic time derivative of gamma along the flow.  The packet side is
    (d_t w, d_t q) = (-i v d_t^2 u, i w) from the closed form, so the pairing
    rate is the exact time derivative of the gridded profile."""
    return pair_energy_product((dwt, dqt), (frame.w, frame.q)) + pair_energy_product(
        (wt, qt), (frame.dt_w, 1j * frame.w)
    )


@dataclass
class GammaProfile:
    """Samples of gamma(t, v) on a velocity grid, with their analytic rates."""

    ts: np.ndarray
    vs: np.ndarray
    gamma: np.ndarray            # shape (len(ts), len(vs))
    rate_analytic: np.ndarray


def cubic_coefficient(gamma, t, v):
    """The asymptotic equation's cubic term  i gamma |gamma|^2 / (2 t (2v)^5)."""
    return 1j * gamma * np.abs(gamma) ** 2 / (2.0 * t * (2.0 * v) ** 5)


def asymptotic_residual(profile):
    """e = d(gamma)/dt - cubic term, per (t, v) sample."""
    ts = np.asarray(profile.ts, dtype=float)[:, None]
    vs = np.asarray(profile.vs, dtype=float)[None, :]
    return profile.rate_analytic - cubic_coefficient(profile.gamma, ts, vs)


# ray reconstruction -------------------------------------------------------------

def packet_reconstruction_error(wt, qt, t, vs, s=0.0):
    """Compare the hyperbolic part on rays with its gamma representation.

    Returns per-velocity errors for both slots together with gamma; the main
    term is |xi_v|^s t^(-1/2) e^{i phi(t, vt)} gamma(t, v) (1, sgn v).

    The main term is the chi-weighted mean of the profile over a packet of
    width t^(1/2) v^(3/2), so the error is small only for profiles that vary
    slowly on that scale; a single packet as data keeps a gap of
    1 - int chi^2 / chi(0) ~ 18.5% at every t.  The hyperbolic part comes
    from `ell_hyp_split`, whose per-block window is keyed to the ray
    frequency of the block centre 2^m: rays near alpha = 2^(m+1/2) fall
    outside the windows of both neighbouring blocks, and the profile there
    is counted as elliptic.
    """
    split = ell_hyp_split((wt, qt), t)
    grid = wt.grid
    hyp_w = split.hyp_w
    hyp_q = split.hyp_qa.antideriv()
    err_w = np.zeros(len(vs), dtype=complex)
    err_q = np.zeros(len(vs), dtype=complex)
    gammas = np.zeros(len(vs), dtype=complex)
    for i, v in enumerate(vs):
        frame = build_packet(grid, t, v)
        gam = gamma_value(wt, qt, frame)
        gammas[i] = gam
        ray = v * t
        xi = abs(frame.xi_v)
        main = xi**s * t**-0.5 * np.exp(1j * phase(t, ray)) * gam
        lhs_w = frac_deriv(hyp_w, s).evaluate_at(ray)
        lhs_q = frac_deriv(hyp_q, s + 0.5).evaluate_at(ray)
        err_w[i] = lhs_w - main
        err_q[i] = lhs_q - main * math.copysign(1.0, v)
    return err_w, err_q, gammas


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


def monochrome_ansatz(grid, t, v, gamma0=1.0):
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
    base = gamma0 * t**-0.5 * mask * np.exp(1j * phi)
    wt = Field.from_values(grid, base)
    wt_a = Field.from_values(grid, 1j * xi * base)
    sgn = math.copysign(1.0, v)
    qt = Field.from_values(grid, abs(xi) ** -0.5 * sgn * base)
    qt_a = Field.from_values(grid, 1j * xi * abs(xi) ** -0.5 * sgn * base)
    return wt, wt_a, qt, qt_a
