"""The gravity water-wave system in holomorphic coordinates.

State is the holomorphic pair (W, Q): W parametrizes the free surface as
alpha -> alpha + W(alpha) and Q is the complex velocity potential trace.
The evolution is

    W_t + F (1 + W_a) = 0,
    Q_t + F Q_a - i W + P[conj(R) R] = 0,

with the diagonal variables bW = W_a, R = Q_a / (1 + W_a) and
Y = bW / (1 + bW), which every state holds (checking J = |1 + W_a|^2
against `JACOBIAN_FLOOR`).  `flux` forms the velocity F for `rhs_full`, and
`diff_coefficients` the transport speed b, the Taylor coefficient
perturbation a (1 + a is the normal pressure derivative) and the M of the
differentiated system:

    F = R + P[conj(R) Y - R conj(Y)],     b = 2 Re P[R (1 - conj Y)],
    a = 2 Im P[R conj(R)_a],     M = 2 Re P[R conj(Y)_a - conj(R)_a Y].

`rational_forms` gives the reference spellings of the identity checks,
F = P[(Q_a - conj Q_a) / J] and M = R_a (1 - conj Y) + conj(R)_a (1 - Y) - b_a;
on a torus the two M forms differ by a constant of size O(|data|^2 / length)
(a wrap-around artifact of splitting the k = 0 mode between the projectors),
so the rational M is reported with its mean removed.

One kernel on coefficient arrays forms a state and its rate, in the
conformal-variable layout of Dyachenko, Kuznetsov, Spector and Zakharov
(1996): products are pointwise in value space, and one call transforms a
(2, m) stack where two fields need it (`grid._rows_per_call`).
A state (`WaveState`, an RK stage) takes inverse (W_a, Q_a), forward
(Q_a, W_a) / (1 + W_a) = (R, Y); its rate (`rhs_full`, `flux`, a stage)
inverse (R, Y), forward conj(R) Y - R conj(Y) for F, inverse F, forward
(F W_a, F Q_a + |R|^2): 10 transforms in 6 calls, one multiply each.  The
rates and `step`'s stacks live on the kept band of K modes (k < 0 inside the
dealias cut, the last ~n/3 in fft order).  The kernel runs on two tables
(`_tables`): analysis on the grid's n ~ 3K points, whose values it reads,
and both steps (40 transforms each) on the least even 2.3.5.7-smooth
M >= 2K + 2, at most n, uncentred, with (R, Y) masked to k <= 0 inside the
cut.  Every product in the rate is then of two fields at k <= 0, or of one at
k <= 0 and one at k >= 0: on M points it aliases only into k > 0, which the
band drops.

The differentiated system evolves (bW, R):

    D_t bW + (1 + bW) R_a / (1 + conj bW) = (1 + bW) M,
    D_t R = i (bW - a) / (1 + bW),        D_t = d_t + b d_a,

and is self-contained, which `DiffState`/`rhs_diff` exploit.

`step` is the one integrator, RK4 in the integrating-factor form of Lawson
(1967): the diagonal pair W +- |D|^(1/2) Q turns by its exact linear phases
exp(i omega dt), omega = sqrt|k|.  Classical RK4 (`_classical_step`) is kept
only as the reference flow of one consistency check.

All right-hand sides are projected onto the holomorphic class; for
holomorphic input the projection only pins the k >= 0 modes that the torus
discretization would otherwise populate at O(1/length).
"""

import json
import math
import weakref
from collections import namedtuple
from types import SimpleNamespace

import numpy as np

from . import lp
from .errors import DegenerateJacobian, StabilityViolation
from .grid import (
    Field,
    _fft,
    frac_deriv,
    project_neg,
    read_field,
    write_field,
)

JACOBIAN_FLOOR = 0.25
_TABLES = weakref.WeakKeyDictionary()  # grid -> `_tables`, dropped with the grid

_Arrays = namedtuple("_Arrays", "w da va ry")  # see `_state_arrays`


def _tables(grid):
    """Per-grid arrays of the kernel and the stepper, built once, on the grid's
    n points and, as `kernel`, on M (module notes): the kept band, the centring
    phase cp (None on M), 1j k, cp times the (R, Y) mask, sqrt|k| and
    0.5 / sqrt|k| on k < 0, and the integrating-factor phases on the band."""
    if grid not in _TABLES:
        kept = np.count_nonzero(grid.neg & grid.dealias_mask)
        # a length below 2**41 divides 210**40 exactly when it is 2.3.5.7-smooth
        m = next((m for m in range(2 * kept + 2, grid.n, 2) if 210**40 % m == 0), grid.n)

        def table(n, k, cp, ry_mask):
            root = np.sqrt(np.abs(k))
            return SimpleNamespace(
                n=n, band=slice(n - kept, n), cp=cp, ik=1j * k,
                ry_phase=ry_mask if cp is None else cp * ry_mask, root=root,
                half_root=np.divide(0.5, root, where=k < 0, out=np.zeros(n)), phases={})

        modes = np.rint(np.fft.fftfreq(m) * m)
        _TABLES[grid] = tab = table(grid.n, grid.k, grid.center_phase, grid.dealias_mask)
        tab.kernel = table(m, grid.dk * modes, None, (modes <= 0) & (modes >= -kept))
    return _TABLES[grid]


def _floor(onewa):
    """Raises where J = |1 + W_a|^2 drops below `JACOBIAN_FLOOR` or is NaN."""
    if not float(np.min(np.abs(onewa))) ** 2 >= JACOBIAN_FLOOR:
        raise DegenerateJacobian("min J dropped below 1/4")


def _values(tab, coef):
    """Values on the table's points of a stack of its coefficients."""
    return _fft("ifft", coef if tab.cp is None else coef * tab.cp)


def _state_arrays(tab, wq):
    """The kernel's state half of projected (W, Q) coefficients `wq` on the
    table's points or on its kept band: W on the band, (2, n) stacks of the
    coefficients and values of (W_a, Q_a), masked coefficients of (R, Y)."""
    part = tab.band if len(wq[0]) < tab.n else slice(None)
    da = np.zeros((2, tab.n), dtype=complex)
    np.multiply(wq, tab.ik[part], out=da[:, part])
    va = _values(tab, da)
    onewa = 1.0 + va[0]
    _floor(onewa)
    ry = _fft("fft", va[::-1] / onewa)
    ry *= tab.ry_phase
    return _Arrays(wq[0] if part is tab.band else wq[0][tab.band], da, va, ry)


def _rate_arrays(tab, s, ryv):
    """The kernel's rate half: the coefficients of F and the (2, band) stack
    of (dW/dt, dQ/dt) of the state half `s`, given the values `ryv` of s.ry."""
    (rv, yv), band = ryv, tab.band
    cp = 1.0 if tab.cp is None else tab.cp[band]
    fc = s.ry[0].copy()  # F = R + P[conj(R) Y - R conj(Y)], 2i Im(conj(R) Y) inside P
    fc[band] += _fft("fft", 2j * (np.conj(rv) * yv).imag)[band] * cp
    prod = s.va * _values(tab, fc)
    prod[1] += np.square(rv.real) + np.square(rv.imag)
    rates = _fft("fft", prod)[:, band]
    rates *= cp
    rates[0] = -(fc[band] + rates[0])
    rates[1] = 1j * s.w - rates[1]
    return fc, rates


def _band_rates(tab, s):
    """The (2, band) rate stack of the state half `s` on the table `tab`."""
    return _rate_arrays(tab, s, _values(tab, s.ry))[1]


def _embed(grid, z):
    """(W, Q) Fields of a (2, band) stack, +0.0 off the kept band."""
    out = np.zeros((2, grid.n), dtype=complex)
    out[:, _tables(grid).band] = z
    return Field(grid, out[0]), Field(grid, out[1])


def _one_minus(u):
    """1 - u, with 1 as the unit coefficient vector (1 at k = 0)."""
    one = np.zeros(u.grid.n, dtype=complex)
    one[0] = 1.0
    return Field(u.grid, one) - u


class WaveState:
    """Snapshot of the full system at time t, with W_a, Q_a, R and Y.  A state
    on the kept band (every stepped, loaded and data-built one) forms the
    kernel's arrays on M points when built, checking J there, and the n-point
    fields, checking J again, on first read; any other state, when built."""

    __slots__ = ("t", "w", "q", "_first", "_full")

    def __init__(self, t, w, q):
        self.t, self.w, self.q = t, project_neg(w), project_neg(q)
        tab, self._full, wc, qc = _tables(self.grid), None, self.w.coef, self.q.coef
        if wc[:tab.band.start].any() or qc[:tab.band.start].any():
            self._first = tab, self._fields()[0]  # the table and arrays `step` starts from
        else:
            self._first = tab.kernel, _state_arrays(tab.kernel, (wc[tab.band], qc[tab.band]))

    def _fields(self):
        """The n-point state arrays and the Fields W_a, Q_a, R, Y, built once."""
        if self._full is None:
            grid = self.grid
            s = _state_arrays(_tables(grid), (self.w.coef, self.q.coef))
            self._full = (s, *(Field(grid, c, v) for c, v in zip(s.da, s.va)),
                          *(Field(grid, c) for c in s.ry))
        return self._full

    grid = property(lambda st: st.w.grid)
    wa, qa, r, y = (property(lambda st, i=i: st._fields()[i]) for i in range(1, 5))


def _rates(state):
    """The kernel's rate half at a state's n-point arrays, whose (R, Y) values it keeps."""
    tab, (s, _, _, r, y) = _tables(state.grid), state._fields()
    if r._values is None or y._values is None:
        r._values, y._values = _values(tab, s.ry)
    return _rate_arrays(tab, s, (r._values, y._values))


class DiffState:
    """Snapshot of the self-contained differentiated system (bW, R), with Y."""

    __slots__ = ("t", "wa", "r", "y")

    def __init__(self, t, wa, r):
        self.t = t
        self.wa = project_neg(wa)
        self.r = project_neg(r)
        onewa = 1.0 + self.wa.values
        _floor(onewa)
        self.y = Field.from_values(self.grid, self.wa.values / onewa, dealias=True)

    @property
    def grid(self):
        return self.wa.grid


def flux(state):
    """F = R + P[conj(R) Y - R conj(Y)], as the kernel forms it."""
    return Field(state.grid, _rates(state)[0])


def diff_coefficients(state):
    """The real coefficients (b, a, M) of the differentiated system."""
    r, y = state.r, state.y
    rbar, ybar = r.conj(), y.conj()
    b = project_neg(r * _one_minus(ybar)).two_re()
    za = project_neg(r * rbar.deriv())
    a = Field.from_values(state.grid, 2.0 * np.imag(za.values))
    m = project_neg(r * ybar.deriv() - rbar.deriv() * y).two_re()
    return b, a, m


def rational_forms(state):
    """F and M by their rational spellings (see the module notes), M mean-free:
    what the identity checks compare `flux` and `diff_coefficients` with."""
    grid, r, y = state.grid, state.r, state.y
    onewa = 1.0 + state.wa.values
    qa = Field.from_values(grid, r.values * onewa, dealias=True)
    f = project_neg(Field.from_values(grid, (qa - qa.conj()).values / np.abs(onewa) ** 2,
                                      dealias=True))
    b, _, _ = diff_coefficients(state)
    m = r.deriv() * _one_minus(y.conj()) + r.conj().deriv() * _one_minus(y) - b.deriv()
    return f, m.demean()


def rhs_full(state):
    """Projected time derivatives (dW/dt, dQ/dt), zero off the kept band."""
    return _embed(state.grid, _rates(state)[1])


def scaling_pair(state):
    """Generator pair of the scaling field S = t d_t + 2 alpha d_alpha:
    frak_w = S W - 2 W and frak_r = S Q - 3 Q - R frak_w.  t d_t is taken
    analytically through the flow, never by differencing stored snapshots."""
    t = state.t
    dw, dq = rhs_full(state)
    frak_w = t * dw + 2.0 * state.wa.alpha_times() - 2.0 * state.w
    frak_q = t * dq + 2.0 * state.qa.alpha_times() - 3.0 * state.q
    return frak_w, frak_q - state.r * frak_w


def r_rate(state, dw, dq):
    """Rate of R = Q_a / (1 + W_a) under the rates (dw, dq) of (W, Q):
    (dq' - R dw') (1 - Y)."""
    return (dq.deriv() - state.r * dw.deriv()) * _one_minus(state.y)


def rhs_diff(state):
    """Projected time derivatives (d(bW)/dt, dR/dt) of the diagonal pair."""
    wa, r, y = state.wa, state.r, state.y
    b, a, m = diff_coefficients(state)
    onewa = 1.0 + wa.values
    dwa = (
        -1.0 * (b * wa.deriv())
        - Field.from_values(state.grid, onewa * r.deriv().values, dealias=True)
        * _one_minus(y.conj())
        + Field.from_values(state.grid, onewa * m.values, dealias=True)
    )
    dr = -1.0 * (b * r.deriv()) + 1j * ((wa - a) * _one_minus(y))
    return project_neg(dwa), project_neg(dr)


def hamiltonian(state):
    """Conserved energy, the integral of the density
    |W|^2 + Im(Q conj(Q_a)) - Re(conj(W)^2 W_a); the imaginary part is a
    roundoff diagnostic.

    Equal weights on the |W|^2 and Q terms are forced by invariance of the
    linear flow (a mixed-branch term |k| Im(w conj q) survives otherwise),
    and the cubic coefficient then follows from the conformal potential
    energy (1/2) int (Im W)^2 (1 + Re W_a); the whole expression is four
    times the physical energy and is exactly conserved.
    """
    wv, qv, wav, qav = state.w.values, state.q.values, state.wa.values, state.qa.values
    dens = (
        np.abs(wv) ** 2
        + (qv * np.conj(qav) - np.conj(qv) * qav) / 2j
        - 0.5 * (np.conj(wv) ** 2 * wav + wv**2 * np.conj(wav))
    )
    return complex(Field.from_values(state.grid, dens).integral())


# time stepping --------------------------------------------------------------

RK4_PHASE_MARGIN = 2.8  # |dt * omega| bound, at classical RK4's stability edge
TIME_TOL = 1e-9  # times closer than this count as equal


def _check_dt(grid, dt):
    """`ValueError` unless dt > 0, `StabilityViolation` unless dt max(omega) < RK4_PHASE_MARGIN."""
    if not dt > 0:  # NaN included
        raise ValueError("dt must be positive")
    omega_max = math.sqrt(grid.k_max)
    if dt * omega_max >= RK4_PHASE_MARGIN:
        raise StabilityViolation(f"dt*max(omega) = {dt * omega_max:.3f} >= {RK4_PHASE_MARGIN}")


def _to_diag(root, wc, qc):
    """Stack of the diagonal pair (W + |D|^(1/2) Q, conj(W - |D|^(1/2) Q)),
    `root` = |D|^(1/2) on the modes of wc and qc; the conjugate makes both
    rows turn with the same phase exp(i omega t)."""
    rq = root * qc
    return np.array([wc + rq, np.conj(wc - rq)])


def _from_diag(half_root, z):
    """(W, Q) stack of the diagonal pair z, `half_root` = 0.5 / sqrt|k| on
    its modes."""
    zm = np.conj(z[1])
    return np.array([(z[0] + zm) * 0.5, (z[0] - zm) * half_root])


def _rk4(y, a, rates, dt, half, full):
    """One fourth-order Runge-Kutta step of  y' = L y + N(y)  on a stack of
    coefficient arrays; returns the new stack.  The system is autonomous,
    so no stage reads a time.

    `a` is N(y), so stage 1 reuses the caller's state, and `rates(z)` is N
    at a stage value z.  `half` and `full` hold the phases exp(L dt/2) and
    exp(L dt) of every row: `step`'s make this the integrating-factor
    (Lawson) scheme, exact on the linear part; unit phases give classical RK4.
    """
    h = dt / 2
    b = rates(half * (y + h * a))
    c = rates(half * y + h * b)
    acc = b + c  # full a + 2 half (b + c), formed before the last stage
    acc *= 2.0 * half
    acc += full * a
    del a, b
    z = c * (dt * half)
    z += full * y
    del c
    out = rates(z)
    out += acc
    out *= dt / 6
    out += full * y
    return out


def step(state, dt):
    """One integrating-factor (Lawson) RK4 step of size dt, exact on the
    dispersive linear part.  The stages run the kernel on coefficient stacks
    of the kept band, the only modes a step keeps, on M points, where they
    check J (`DegenerateJacobian`); stage 1 reads the state's arrays, on n
    points for a state with content off the band."""
    _check_dt(state.grid, dt)
    tab = _tables(state.grid)
    ker = tab.kernel
    root, half_root = ker.root[ker.band], ker.half_root[ker.band]

    def rates(t, s):  # the phases carry the linear part (-Q_a, iW)
        d = _band_rates(t, s)
        d[0] += s.da[1, t.band]
        d[1] -= 1j * s.w
        return _to_diag(root, *d)

    def stage(z):
        return rates(ker, _state_arrays(ker, _from_diag(half_root, z)))

    if dt not in ker.phases:
        ker.phases[dt] = np.exp(1j * root * (dt / 2)), np.exp(1j * root * dt)
    y = _to_diag(root, state.w.coef[tab.band], state.q.coef[tab.band])
    z = _rk4(y, rates(*state._first), stage, dt, *ker.phases[dt])
    return WaveState(state.t + dt, *_embed(state.grid, _from_diag(half_root, z)))


def _classical_step(state, dt):
    """Classical RK4, `_rk4` with unit phases on the kept-band (W, Q) stack,
    stages as in `step`: the flow `suites`' dual-dt-estimator-order check is
    pinned on, deleted when ROADMAP item 1 lets that check move to `step`."""
    tab = _tables(state.grid)
    y = np.array([state.w.coef[tab.band], state.q.coef[tab.band]])
    z = _rk4(y, _band_rates(*state._first),
             lambda z: _band_rates(tab.kernel, _state_arrays(tab.kernel, z)), dt, 1.0, 1.0)
    return WaveState(state.t + dt, *_embed(state.grid, z))


def evolve(state, dt, t_end, observer=None):
    """The march loop: `step` by dt while t < t_end - TIME_TOL, calling
    observer(state) after each step; returns the last state."""
    while state.t < t_end - TIME_TOL:
        state = step(state, dt)
        if observer is not None:
            observer(state)
    return state


def linear_propagate(state, t_target):
    """Exact solution of the linearized system W_t = -Q_a, Q_t = iW."""
    grid, tab, t = state.grid, _tables(state.grid), t_target - state.t
    z = np.exp(1j * tab.root * t) * _to_diag(tab.root, state.w.coef, state.q.coef)
    return WaveState(t_target, *(Field(grid, c) for c in _from_diag(tab.half_root, z)))


# initial data ---------------------------------------------------------------

def packet_data(grid, eps, width, velocity=1.0, center=0.0):
    """Right-moving localized data: a Gaussian spectral bump for W_a, of
    standard deviation 1/width, at the group-velocity frequency -1/(4 v^2),
    with Q = |D|^(-1/2) W so the pair rides the right-moving branch of the
    dispersion relation."""
    k0 = -1.0 / (4.0 * velocity**2)
    sigma = 1.0 / width
    k = grid.k
    envelope = np.exp(-((k - k0) ** 2) / (2.0 * sigma**2))
    envelope[k >= 0] = 0.0
    wa = Field(grid, envelope * np.exp(-1j * k * center)).dealiased()
    scale = eps / max(wa.linf(), 1e-300)
    wa = project_neg(scale * wa)
    w = project_neg(wa.antideriv())
    q = project_neg(frac_deriv(w, -0.5))
    return WaveState(0.0, w, q)


def plateau_data(grid, eps, center=-0.25, plateau=0.15, ramp=0.05):
    """Right-moving data with a flat spectral shelf around `center`.

    The flat-top profile makes ray functionals sample a locally constant
    spectral density, which is what long-time packet diagnostics assume.
    """
    prof = np.where(grid.neg, lp.plateau(grid.k, center, plateau, ramp), 0.0)
    w = project_neg(Field(grid, prof.astype(complex)).dealiased())
    w = project_neg((eps / max(w.linf(), 1e-300)) * w)
    q = project_neg(frac_deriv(w, -0.5))
    return WaveState(0.0, w, q)


# checkpoints ----------------------------------------------------------------

def save_state(path, state, extra=None):
    """A JSON line of t and `extra`, then W and Q as `write_field` spells them:
    a row of two hex words of IEEE-754 bits per mode, in fft order."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"t": state.t, **(extra or {})}) + "\n")
        write_field(fh, state.w)
        write_field(fh, state.q)


def load_state(path):
    """The state and metadata `save_state` wrote; `ValueError` if cut short or garbled."""
    with open(path) as fh:
        meta = json.loads(fh.readline())
        t = meta.get("t") if isinstance(meta, dict) else None
        if type(t) not in (int, float) or not math.isfinite(t):
            raise ValueError("metadata line holds no finite time t")
        w = read_field(fh)
        q = read_field(fh, grid=w.grid)
    return WaveState(t, w, q), meta

