import math
from types import SimpleNamespace

import numpy as np
import pytest

from holoww import dynamics
from holoww.errors import DegenerateJacobian, StabilityViolation
from holoww.grid import Field, GridSpec, frac_deriv, project_neg, pos_leakage
from holoww.dynamics import (
    DiffState,
    WaveState,
    _classical_step,
    _rate_arrays,
    _rk4,
    _state_arrays,
    _tables,
    _values,
    diff_coefficients,
    evolve,
    flux,
    hamiltonian,
    linear_propagate,
    load_state,
    packet_data,
    plateau_data,
    r_rate,
    rational_forms,
    rhs_diff,
    rhs_full,
    save_state,
    step,
)

from conftest import holo_field


def state_from_wa(grid, wa_values, q_mode="ride"):
    wa = project_neg(Field.from_values(grid, wa_values))
    w = project_neg(wa.antideriv())
    q = project_neg(frac_deriv(w, -0.5)) if q_mode == "ride" else Field.zero(grid)
    return WaveState(0.0, w, q)


def random_state(grid, eps, seed=0, center=0.6):
    wa = holo_field(grid, seed=seed, center=center, sigma=0.2, amplitude=eps)
    w = project_neg(wa.antideriv())
    q = project_neg(frac_deriv(w, -0.5))
    return WaveState(0.0, w, q)


# auxiliaries ----------------------------------------------------------------

def test_zero_state_aux(grid):
    z = Field.zero(grid)
    st = WaveState(0.0, z, z)
    b, a, m = diff_coefficients(st)
    assert st.y.l2() == 0.0
    assert flux(st).l2() == 0.0
    assert b.l2() == 0.0
    assert a.l2() == 0.0
    assert m.l2() == 0.0


def test_y_geometric_series(grid):
    eps = 5e-4
    kk = grid.k[np.argmin(np.abs(grid.k + 0.5))]
    st = state_from_wa(grid, eps * np.exp(1j * kk * grid.alpha))
    series = eps * np.exp(1j * kk * grid.alpha) - eps**2 * np.exp(2j * kk * grid.alpha)
    assert np.max(np.abs(st.y.values - series)) < 1e-9


@pytest.mark.parametrize("seed", [1, 2])
def test_f_and_m_identities(grid, seed):
    # moderate amplitude: the identity residuals must stay at roundoff
    st = random_state(grid, 0.05, seed=seed)
    assert st.wa.linf() < 0.1
    f_rational, m_rational = rational_forms(st)
    _, _, m = diff_coefficients(st)
    assert (flux(st) - f_rational).l2() < 1e-10
    assert (m - m_rational).l2() < 1e-10


def test_taylor_term_and_transport_are_real(grid):
    st = random_state(grid, 0.05, seed=3)
    b, a, _ = diff_coefficients(st)
    assert np.max(np.abs(np.imag(a.values))) < 1e-10
    assert np.max(np.abs(np.imag(b.values))) < 1e-10


def test_degenerate_jacobian(grid):
    steep = 0.9
    kk = grid.k[np.argmin(np.abs(grid.k + 0.5))]
    with pytest.raises(DegenerateJacobian):
        state_from_wa(grid, steep * np.exp(1j * kk * grid.alpha))


def test_nan_state_fails_the_jacobian_guard(grid):
    # one NaN coefficient makes J NaN everywhere, and NaN never clears the floor
    st = random_state(grid, 1e-3, seed=16)
    w = st.w.coef.copy()
    w[np.flatnonzero(grid.k < 0)[0]] = np.nan
    with pytest.raises(DegenerateJacobian):
        WaveState(0.0, Field(grid, w), st.q)
    with pytest.raises(DegenerateJacobian):
        DiffState(0.0, Field(grid, w), st.r)


# rhs_full -------------------------------------------------------------------

def test_rhs_zero(grid):
    z = Field.zero(grid)
    dw, dq = rhs_full(WaveState(0.0, z, z))
    assert dw.l2() == 0.0 and dq.l2() == 0.0


def test_rhs_linearization_scaling(grid):
    resids = []
    for eps in (1e-3, 5e-4):
        st = packet_data(grid, eps, velocity=1.4, width=8.0)
        dw, dq = rhs_full(st)
        rw = dw + st.q.deriv()
        rq = dq - 1j * st.w
        resids.append(math.sqrt(rw.l2() ** 2 + rq.l2() ** 2))
    ratio = resids[0] / resids[1]
    assert 3.5 <= ratio <= 4.5


def test_single_mode_period_return(grid):
    # harmonic content scales as eps^2 absolute, so the relative deviation
    # after one period is ~2 eps; eps = 1e-9 puts it well under the bound
    k_idx = np.argmin(np.abs(grid.k + 1.0))
    coef = np.zeros(grid.n, dtype=complex)
    coef[k_idx] = 1e-9
    w0 = Field(grid, coef)
    q0 = project_neg(frac_deriv(w0, -0.5))
    st = WaveState(0.0, w0, q0)
    omega = math.sqrt(abs(grid.k[k_idx]))
    period = 2 * math.pi / omega
    out = evolve(st, period / 128, period)
    assert (out.w - w0).l2() / w0.l2() < 1e-8


def rhs_full_oracle(w, q):
    """`rhs_full` as Field operations: each product dealiased on its own,
    one transform per field."""
    grid = w.grid
    wa, qa = w.deriv(), q.deriv()
    onewa = 1.0 + wa.values
    r = Field.from_values(grid, qa.values / onewa, dealias=True)
    y = Field.from_values(grid, wa.values / onewa, dealias=True)
    rbar = r.conj()
    f = r + project_neg(rbar * y - r * y.conj())
    dw = project_neg(-1.0 * (f + f * wa))
    dq = project_neg(-1.0 * (f * qa) - rbar * r) + 1j * w
    return dw, project_neg(dq)


def field_step_oracle(w, q, dt, integrating):
    """`step` (`integrating`) or `_classical_step` on Fields with
    `rhs_full_oracle`: RK4 on slot lists, in the diagonal variables with
    exact phases for the integrating-factor scheme."""
    grid, h = w.grid, dt / 2
    neg, root = grid.k < 0, np.sqrt(grid.abs_k)

    def fields(z):
        if integrating:
            z = (0.5 * (z[0] + z[1]), np.where(neg, 0.5 * (z[0] - z[1]) / np.where(neg, root, 1.0), 0.0))
        return [project_neg(Field(grid, c).dealiased()) for c in z]

    def rates(w, q):
        dw, dq = rhs_full_oracle(w, q)
        if not integrating:
            return [dw.coef, dq.coef]
        nw, nq = (dw + q.deriv()).coef, (dq - 1j * w).coef
        return [nw + root * nq, nw - root * nq]

    if integrating:
        y = [w.coef + root * q.coef, w.coef - root * q.coef]
        ph = np.exp(1j * root * h), np.exp(1j * root * dt)
        half, full = (ph[0], np.conj(ph[0])), (ph[1], np.conj(ph[1]))
    else:
        y, half, full = [w.coef, q.coef], (1.0, 1.0), (1.0, 1.0)
    a = rates(w, q)
    b = rates(*fields([eh * (y0 + h * a0) for y0, a0, eh in zip(y, a, half)]))
    c = rates(*fields([eh * y0 + h * b0 for y0, b0, eh in zip(y, b, half)]))
    d = rates(*fields([ef * y0 + dt * eh * c0 for y0, c0, eh, ef in zip(y, c, half, full)]))
    return fields([ef * y0 + dt / 6 * (ef * a0 + 2.0 * eh * (b0 + c0) + d0)
                   for y0, a0, b0, c0, d0, eh, ef in zip(y, a, b, c, d, half, full)])


def step_oracle(grid, w, q, dt, integrating, m):
    """`step` (`integrating`) or `_classical_step` on (W, Q) coefficient
    arrays as the kernel takes them, with every array as long as the
    transforms that read it: the stages on m points (the kernel length M for
    either step), and stage 1 on n for a state with content off the kept
    band.  The masks k < 0 (`neg`), k < 0 inside the cut (`keep`) and that of
    (R, Y) are applied by multiplies, the transforms scale as the kernel's do
    (norm="forward"), and only the n-point table of stage 1 is centred.
    Returns the new (W, Q) coefficients."""
    n = grid.n
    kept = np.count_nonzero((grid.k < 0) & grid.dealias_mask)

    def table(length, centred):
        modes = np.rint(np.fft.fftfreq(length) * length)
        k = 2.0 * np.pi / grid.length * modes
        root = np.sqrt(np.abs(k))
        return SimpleNamespace(
            length=length, k=k, neg=k < 0, keep=(k < 0) & (modes >= -kept), root=root,
            half_root=np.divide(0.5, root, where=k < 0, out=np.zeros(length)),
            cp=grid.center_phase if centred else 1.0,
            ry_mask=grid.dealias_mask if centred else (modes <= 0) & (modes >= -kept))

    def on(length, c):  # the kept band of the stack c, on `length` points
        out = np.zeros((len(c), length), dtype=complex)
        out[:, length - kept:] = np.asarray(c)[:, -kept:]
        return out

    def coef(tab, values):
        return np.fft.fft(values, norm="forward") * tab.cp

    def vals(tab, c):
        return np.fft.ifft(c * tab.cp, norm="forward")

    def state_arrays(tab, wc, qc):
        da = np.empty((2, tab.length), dtype=complex)
        np.multiply(wc, tab.k, out=da[0])
        np.multiply(qc, tab.k, out=da[1])
        da *= 1j
        va = vals(tab, da)
        ry = coef(tab, va[::-1] / (1.0 + va[0]))
        ry *= tab.ry_mask
        return wc, da, va, ry

    def rate_arrays(tab, s):
        wc, _, va, ry = s
        rv, yv = vals(tab, ry)
        fc = coef(tab, 2j * (np.conj(rv) * yv).imag) * tab.keep + ry[0]
        prod = va * vals(tab, fc)
        prod[1] += np.square(rv.real) + np.square(rv.imag)
        rates = coef(tab, prod)
        rates *= tab.keep
        rates[0] = -(fc + rates[0]) * tab.neg
        rates[1] = 1j * wc - rates[1]
        return rates

    def to_diag(tab, wc, qc):
        rq = tab.root * qc
        return np.stack([wc + rq, np.conj(wc - rq)])

    def coefs(tab, z):
        if not integrating:
            return z * tab.keep
        zm = np.conj(z[1])
        return (z[0] + zm) * (0.5 * tab.keep), (z[0] - zm) * (tab.keep * tab.half_root)

    def rates(tab, s):
        d = rate_arrays(tab, s)
        if integrating:
            d[0] += s[1][1]
            d[1] -= 1j * s[0]
            d = to_diag(tab, *d)
        return d

    stages = table(m, centred=False)
    off = np.any(w[:n - kept]) or np.any(q[:n - kept])
    first = table(n, centred=True) if off else stages
    a = on(m, rates(first, state_arrays(first, *((w, q) if off else on(m, [w, q])))))
    y, phases = on(m, [w, q]), (1.0, 1.0)
    if integrating:
        y, phases = to_diag(stages, *y), (np.exp(1j * stages.root * (dt / 2)),
                                          np.exp(1j * stages.root * dt))
    z = _rk4(y, a, lambda z: rates(stages, state_arrays(stages, *coefs(stages, z))), dt, *phases)
    return on(n, coefs(stages, z))


# the step each scheme names and the `integrating` flag of its oracles
SCHEMES = {"rk4_integrating_factor": (step, True), "rk4": (_classical_step, False)}


def march_both(st, dt, scheme, steps):
    """The step of `scheme` and its `step_oracle` from st, the stages on the
    kernel's M points: the two (W, Q) coefficient pairs."""
    stepper, integrating = SCHEMES[scheme]
    m = _tables(st.grid).kernel.n
    got, (w, q) = st, (st.w.coef, st.q.coef)
    for _ in range(steps):
        new = step_oracle(st.grid, w, q, dt, integrating, m)
        w, q = (project_neg(Field(st.grid, c)).coef for c in new)
        got = stepper(got, dt)
    return (got.w.coef, got.q.coef), (w, q)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n", [64, 2048])
def test_step_on_the_kept_band_matches_the_full_length_oracle(n, scheme):
    # bit for bit: the band holds every mode a step keeps, and with n a power
    # of two folding 1/n into the transform is exact
    grid = GridSpec(length=64.0 * n / 64, n=n)
    got, want = march_both(random_state(grid, 0.05, seed=17), 0.1, scheme, 20)
    assert all(np.array_equal(g, o) for g, o in zip(got, want))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_step_reads_content_outside_the_dealias_cut_as_before(scheme):
    # stage 1 reads the whole state: every k < 0 mode, inside the cut or not
    grid = GridSpec(length=64.0, n=64)
    rng = np.random.default_rng(18)
    w, q = (Field(grid, 1e-3 * (rng.standard_normal(64) + 1j * rng.standard_normal(64)))
            for _ in range(2))
    st = WaveState(0.0, project_neg(w), project_neg(q))
    assert np.any(st.w.coef[(grid.k < 0) & ~grid.dealias_mask] != 0)
    got, want = march_both(st, 0.1, scheme, 20)
    assert all(np.array_equal(g, o) for g, o in zip(got, want))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n, dealias, tol", [(64, 1.0, 0.0), (1000, 2.0 / 3.0, 0.0)])
def test_step_matches_the_oracle_without_a_cut_and_off_powers_of_two(n, dealias, tol, scheme):
    # dealias = 1.0 keeps every k < 0 mode but the unpaired Nyquist one, and
    # M = n = 64; n = 1000 (M = 672) is exact too, the oracle scaling its
    # transforms by 1/length as the kernel does
    grid = GridSpec(length=64.0, n=n, dealias=dealias)
    got, want = march_both(random_state(grid, 0.05, seed=19), 0.1, scheme, 20)
    gap = max(np.max(np.abs(g - o)) for g, o in zip(got, want))
    assert gap <= tol * max(np.max(np.abs(o)) for o in want)


def seven_smooth(m):
    for p in (2, 3, 5, 7):
        while m % p == 0:
            m //= p
    return m == 1


@pytest.mark.parametrize("n, dealias, m", [
    (2048, 2.0 / 3.0, 1372), (8192, 2.0 / 3.0, 5488), (16384, 2.0 / 3.0, 10976),
    (65536, 2.0 / 3.0, 43740), (64, 1.0, 64), (64, 2.0 / 3.0, 48), (256, 2.0 / 3.0, 180),
    (1000, 2.0 / 3.0, 672)])
def test_kernel_length_is_the_least_even_seven_smooth_one_past_twice_the_band(n, dealias, m):
    # the grids of the runner, suites and perfbench, and those of the tests:
    # 1372 = 2^2 7^3 where 2K + 2 = 1366 = 2 * 683 transforms 3x slower
    grid = GridSpec(n=n, dealias=dealias)
    kept = np.count_nonzero(grid.neg & grid.dealias_mask)
    assert _tables(grid).kernel.n == m
    assert m % 2 == 0 and seven_smooth(m) and 2 * kept + 2 <= m <= n
    assert not any(seven_smooth(j) for j in range(2 * kept + 2, m, 2))


def test_kernel_products_on_m_points_match_the_n_point_products():
    # (W_a, Q_a) on the kept band and (R, Y) on k <= 0 inside the cut, the
    # same coefficients on both tables: every product of the rate half (the
    # flux bracket, F W_a, F Q_a and |R|^2) is alias-free on the band at M
    # points as at n, so F and the rates agree to roundoff
    grid = GridSpec(length=64.0, n=256)
    tab = _tables(grid)
    kept = tab.n - tab.band.start
    rng = np.random.default_rng(21)
    wq, ry = (1e-3 * (rng.standard_normal((2, j)) + 1j * rng.standard_normal((2, j)))
              for j in (kept, kept + 1))

    def rate(t):
        coef = np.zeros((2, t.n), dtype=complex)
        coef[:, t.band], coef[:, 0] = ry[:, 1:], ry[:, 0]
        s = _state_arrays(t, wq)._replace(ry=coef)
        fc, rates = _rate_arrays(t, s, _values(t, coef))
        return np.concatenate([fc[t.band], fc[:1]]), rates

    (fn, rn), (fm, rm) = rate(tab), rate(tab.kernel)
    assert tab.kernel.n < tab.n
    assert np.max(np.abs(fm - fn)) <= 1e-14 * np.max(np.abs(fn))
    assert np.max(np.abs(rm - rn)) <= 1e-14 * np.max(np.abs(rn))


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.15])
def test_kernel_truncation_error_at_equal_band(eps):
    # packet data on n = 256 against a fine reference on n = 768 (same period),
    # at t = 20: stepping on M = 180 points errs by at most 2.5x the 2/3-rule
    # step (the n-point `step_oracle`) at the same kept band; the errors are
    # about 6e-10, 1.4e-6 and 1.4e-4
    grid, fine = GridSpec(64.0 * math.pi, 256), GridSpec(64.0 * math.pi, 768)
    ref, st = packet_data(fine, eps, 24.0), packet_data(grid, eps, 24.0)
    w, q = st.w.coef, st.q.coef
    for _ in range(100):
        ref, st = step(ref, 0.2), step(st, 0.2)
        w, q = (project_neg(Field(grid, c)).coef for c in step_oracle(grid, w, q, 0.2, True, 256))

    def error(wc, qc):  # relative, over every mode of the reference, by mode number
        gap = np.array([ref.w.coef, ref.q.coef])
        gap[:, -128:] -= [wc[-128:], qc[-128:]]
        return np.linalg.norm(gap) / np.linalg.norm([ref.w.coef, ref.q.coef])

    kernel, two_thirds = error(st.w.coef, st.q.coef), error(w, q)
    assert 0.0 < kernel <= 2.5 * two_thirds


def relative_gap(got, want):
    """Largest coefficient gap over the largest coefficient of `want`."""
    gap = max(np.max(np.abs(g.coef - o.coef)) for g, o in zip(got, want))
    return gap / max(np.max(np.abs(o.coef)) for o in want)


@pytest.mark.parametrize("n", [256, 1000])
def test_rhs_full_matches_field_oracle(n):
    grid = GridSpec(length=64.0, n=n)
    st = random_state(grid, 0.05, seed=15)
    assert relative_gap(rhs_full(st), rhs_full_oracle(st.w, st.q)) <= 1e-14
    for stepper, integrating in SCHEMES.values():
        got, w, q = st, st.w, st.q
        for _ in range(20):
            got = stepper(got, 0.1)
            w, q = field_step_oracle(w, q, 0.1, integrating)
        assert relative_gap((got.w, got.q), (w, q)) <= 1e-13


# rhs_diff -------------------------------------------------------------------

def test_rhs_diff_zero(grid):
    z = Field.zero(grid)
    dwa, dr = rhs_diff(DiffState(0.0, z, z))
    assert dwa.l2() == 0.0 and dr.l2() == 0.0


def test_rhs_diff_matches_derivative_of_rhs_full(grid):
    st = random_state(grid, 1e-3, seed=4)
    dw, _ = rhs_full(st)
    dwa, _ = rhs_diff(DiffState(st.t, st.wa, st.r))
    assert (dw.deriv() - dwa).l2() < 1e-9


def test_dr_series_with_zero_velocity(grid):
    # Q = 0 makes R, a, b vanish, so dR/dt = i bW (1 - Y) = i(bW - bW^2) + O(bW^3)
    eps = 1e-2
    kk = grid.k[np.argmin(np.abs(grid.k + 0.5))]
    st = state_from_wa(grid, eps * np.exp(1j * kk * grid.alpha), q_mode="zero")
    _, dr = rhs_diff(DiffState(st.t, st.wa, st.r))
    wa_v = st.wa.values
    series = 1j * (wa_v - wa_v**2)
    assert np.max(np.abs(dr.values - series)) < 10.0 * eps**3


# hamiltonian ----------------------------------------------------------------

def test_hamiltonian_zero(grid):
    z = Field.zero(grid)
    assert hamiltonian(WaveState(0.0, z, z)) == 0.0


def test_hamiltonian_single_mode_quadrature(grid):
    amp = 1e-2
    k_idx = np.argmin(np.abs(grid.k + 1.0))
    coef = np.zeros(grid.n, dtype=complex)
    coef[k_idx] = amp
    st = WaveState(0.0, Field(grid, coef), Field.zero(grid))
    e = hamiltonian(st)
    # pure-W single mode: |W|^2 integrates to amp^2 * length, cubic term averages out
    assert abs(e.real - amp**2 * grid.length) < 1e-10
    assert abs(e.imag) < 1e-12 * max(abs(e.real), 1e-30)
    wv = st.w.values
    wav = st.wa.values
    qv = st.q.values
    qav = st.q.deriv().values
    dens = (
        np.abs(wv) ** 2
        + (qv * np.conj(qav) - np.conj(qv) * qav) / 2j
        - 0.5 * (np.conj(wv) ** 2 * wav + wv**2 * np.conj(wav))
    )
    trapezoid = float(np.real(np.mean(dens))) * grid.length
    assert abs(e.real - trapezoid) < 1e-10


def test_hamiltonian_drift_short_run(grid):
    st = packet_data(grid, 1e-3, velocity=1.4, width=8.0)
    e0 = hamiltonian(st).real
    out = evolve(st, 0.1, 5.0)
    assert abs((hamiltonian(out).real - e0) / e0) < 1e-8


# stepping -------------------------------------------------------------------

def test_stability_guard(grid):
    st = packet_data(grid, 1e-3, velocity=1.4, width=8.0)
    with pytest.raises(StabilityViolation):
        step(st, 10.0)
    for dt in (0.0, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            step(st, dt)


def test_stage_below_jacobian_floor_raises(grid):
    # the input state clears the floor (min J = 0.55^2); the second stage of a
    # classical step, W + dt/2 dW/dt, does not, and `_classical_step` raises from it
    kk = grid.k[np.argmin(np.abs(grid.k + 1.0))]
    st = state_from_wa(grid, 0.45 * np.exp(1j * kk * grid.alpha), q_mode="zero")
    st = WaveState(0.0, st.w, 0.6j / kk * st.w)
    dw, dq = rhs_full(st)
    with pytest.raises(DegenerateJacobian):
        WaveState(0.0, st.w + 0.2 * dw, st.q + 0.2 * dq)
    with pytest.raises(DegenerateJacobian):
        _classical_step(st, 0.4)


def test_step_stage_below_jacobian_floor_raises_on_the_kernel_points(grid, monkeypatch):
    # the state above on the kept band clears the floor (min J = 0.55^2) on the
    # M points it is built on; `step` checks J on M points at stages 2 to 4,
    # and the last of these (min J = 0.233) raises
    kk = grid.k[np.argmin(np.abs(grid.k + 1.0))]
    w = state_from_wa(grid, 0.45 * np.exp(1j * kk * grid.alpha), q_mode="zero").w.dealiased()
    checked = []

    def floor(onewa, _floor=dynamics._floor):
        checked.append(len(onewa))
        _floor(onewa)
    monkeypatch.setattr(dynamics, "_floor", floor)
    st = WaveState(0.0, w, 0.6j / kk * w)
    with pytest.raises(DegenerateJacobian):
        step(st, 0.4)
    m = _tables(grid).kernel.n
    assert m < grid.n and checked == [m] * 4


def test_integrating_factor_exact_linear_phase(grid):
    k_idx = np.argmin(np.abs(grid.k + 1.0))
    coef = np.zeros(grid.n, dtype=complex)
    coef[k_idx] = 1e-9
    w0 = Field(grid, coef)
    st = WaveState(0.0, w0, project_neg(frac_deriv(w0, -0.5)))
    out = step(st, 0.5)
    exact = linear_propagate(st, 0.5)
    phase_err = np.angle(out.w.coef[k_idx] / exact.w.coef[k_idx])
    assert abs(phase_err) < 1e-12


def test_rk4_order(grid):
    st = packet_data(grid, 1e-2, velocity=1.4, width=8.0)
    dt = 0.2

    def advance(n, delta):
        s = st
        for _ in range(n):
            s = _classical_step(s, delta)
        return s

    a = advance(1, dt)
    b = advance(2, dt / 2)
    c = advance(4, dt / 4)
    e1 = (a.w - b.w).l2() + (a.q - b.q).l2()
    e2 = (b.w - c.w).l2() + (b.q - c.q).l2()
    assert 14.0 <= e1 / e2 <= 18.0


def test_holomorphy_preserved_many_steps():
    grid = GridSpec(length=64.0, n=64)
    st = packet_data(grid, 1e-3, velocity=1.4, width=8.0)
    for _ in range(10_000):
        st = step(st, 0.2)
    assert pos_leakage(st.w) < 1e-12
    assert pos_leakage(st.q) < 1e-12


def step_diff(state, dt):
    """Classical RK4 step of the self-contained differentiated system, each
    stage masked to the dealias band."""
    grid, t = state.grid, state.t + dt  # no rate reads the time

    def make(z):
        return DiffState(t, *(Field(grid, np.where(grid.dealias_mask, c, 0.0)) for c in z))

    def rates(s):
        return np.stack([u.coef for u in rhs_diff(s)])

    z = _rk4(np.stack([state.wa.coef, state.r.coef]), rates(state),
             lambda z: rates(make(z)), dt, 1.0, 1.0)
    return make(z)


def test_diff_system_trajectory_matches_differentiated_full(grid):
    st = packet_data(grid, 1e-3, velocity=1.4, width=8.0)
    ds = DiffState(0.0, st.wa, st.r)
    full, diff = st, ds
    while full.t < 1.0 - 1e-12:
        full = _classical_step(full, 0.05)
        diff = step_diff(diff, 0.05)
    assert (full.wa - diff.wa).l2() < 1e-8
    assert (full.r - diff.r).l2() < 1e-8


def test_evolve_stops_at_first_step_past_t_end(grid):
    st = packet_data(grid, 1e-3, velocity=1.4, width=8.0)
    seen = []
    out = evolve(st, 0.2, 0.5, seen.append)
    assert [s.t for s in seen] == pytest.approx([0.2, 0.4, 0.6])
    assert seen[-1] is out
    # on the dt grid, roundoff in the accumulated time adds no step
    seen.clear()
    assert evolve(st, 0.1, 1.0, seen.append).t == pytest.approx(1.0)
    assert len(seen) == 10
    assert evolve(st, 0.1, 0.0, seen.append) is st
    assert len(seen) == 10


def test_transform_budget(grid, monkeypatch):
    # counted as (calls, 1-D transforms, lengths).  A state on the kept band
    # makes one inverse call for (W_a, Q_a) and one forward call for (R, Y) on
    # the kernel's M points, and the same two on the grid's n points at the
    # first read of an n-point field.  A rate makes four calls of six rows:
    # inverse (R, Y), the flux product, inverse F and the (F W_a, F Q_a + |R|^2)
    # stack.  A step makes four rates, three of which first form their stage
    # state, and builds the state it returns, all on M.  From n = 8192 on each
    # row of a stack is one call, so a step makes its 40 in 40.  The classical
    # step does the same without its phases.  r_rate forms two products of
    # three transforms and reads the kept values of R.  rhs_diff and
    # rational_forms transform no 1 + W_a or J, and conjugates and real parts
    # make no forward transform
    st = packet_data(grid, 1e-3, velocity=1.4, width=8.0)
    calls = []
    for name in ("fft", "ifft"):
        def counted(x, *args, _fn=getattr(np.fft, name), **kwargs):
            calls.append((np.size(x) // np.shape(x)[-1], np.shape(x)[-1]))
            return _fn(x, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)

    def budget(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls), sum(rows for rows, _ in calls), {length for _, length in calls}

    m = _tables(grid).kernel.n
    assert budget(WaveState, st.t, st.w, st.q) == (2, 4, {m})
    assert budget(step, st, 0.05) == (24, 40, {m})
    out = step(st, 0.05)
    assert budget(lambda: out.wa) == (2, 4, {grid.n})
    assert budget(lambda: (out.wa, out.qa, out.r, out.y)) == (0, 0, set())
    assert budget(_classical_step, st, 0.05) == (24, 40, {m})
    assert budget(rhs_full, WaveState(st.t, st.w, st.q)) == (6, 10, {grid.n})
    dw, dq = rhs_full(st)
    assert budget(r_rate, st, dw, dq) == (5, 5, {grid.n})
    ds = DiffState(st.t, st.wa, st.r)
    assert budget(rhs_diff, ds) == (27, 27, {grid.n})
    assert budget(rational_forms, st) == (22, 22, {grid.n})
    long = packet_data(GridSpec(length=4096.0, n=16384), 1e-3, velocity=1.4, width=8.0)
    assert budget(step, long, 0.05) == (40, 40, {_tables(long.grid).kernel.n})


def test_checkpoint_roundtrip(tmp_path, grid):
    st = packet_data(grid, 1e-3, velocity=1.4, width=8.0)
    out = evolve(st, 0.1, 1.0)
    path = tmp_path / "state.txt"
    save_state(path, out, extra={"eps": 1e-3})
    loaded, meta = load_state(path)
    assert meta["t"] == out.t and meta["eps"] == 1e-3
    assert (loaded.w - out.w).l2() == 0.0
    resumed_a = evolve(out, 0.1, 2.0)
    resumed_b = evolve(loaded, 0.1, 2.0)
    assert (resumed_a.w - resumed_b.w).l2() < 1e-13


def test_checkpoint_of_the_long_grid_is_exact(tmp_path):
    # perfbench's march-xl grid: after its header line each field takes 34
    # characters per mode, and a stepped state reads back bit for bit
    grid = GridSpec(12800.0 * math.pi, 65536)
    out = step(plateau_data(grid, 1e-3), 0.2)
    path = tmp_path / "state.txt"
    save_state(path, out)
    loaded, meta = load_state(path)
    assert meta == {"t": out.t}
    assert loaded.w.coef.tobytes() == out.w.coef.tobytes()
    assert loaded.q.coef.tobytes() == out.q.coef.tobytes()
    _, rest = path.read_text().split("\n", 1)
    for _ in range(2):
        header, rest = rest.split("\n", 1)
        assert header == f"# length={grid.length!r} n={grid.n} dealias={grid.dealias!r}"
        rest = rest[34 * grid.n:]
    assert rest == ""
