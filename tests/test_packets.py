import math

import numpy as np
import pytest

from holoww.errors import OutOfDomain, WrapAround
from holoww.grid import Field, GridSpec, frac_deriv, project_neg
from holoww.dynamics import StepperConfig, WaveState, evolve, linear_propagate, plateau_data
from holoww.diagnostics import decay_fit
from holoww.normalform import gamma_samples, nf_rate, para_nf
from holoww.packets import (
    GammaProfile,
    PacketFrame,
    asymptotic_residual,
    build_packet,
    bump_jet,
    cubic_coefficient,
    gamma_rate,
    gamma_value,
    monochrome_ansatz,
    omega0_band,
    omega0_grid,
    packet_defect,
    packet_reconstruction_error,
    pair_energy_product,
    phase,
    phase_alpha,
    phase_t,
    spectral_profile,
    weighted_l2_v,
)

from conftest import transform_calls

DESK = GridSpec()  # packets need the long torus


# the packet on the whole grid --------------------------------------------------------

def geometry_oracle(grid, t, v):
    """Width, y, alpha with 0 set to 1 and exp(i phi), at every grid point."""
    width = math.sqrt(t) * v**1.5
    y = (grid.alpha - v * t) / width
    alpha = np.where(grid.alpha != 0, grid.alpha, 1.0)
    phi = np.where(np.abs(y) < 1.0, t**2 / (4.0 * alpha), 0.0)
    return width, y, alpha, np.exp(1j * phi)


def build_packet_oracle(grid, t, v):
    """u and w from the closed form at every grid point, one transform each."""
    width, y, alpha, carrier = geometry_oracle(grid, t, v)
    chi, chi1, _ = bump_jet(y)
    u_vals = v**-1.5 * chi * carrier
    y_t = -(v**-0.5) * t**-0.5 - y / (2.0 * t)
    phi_t = np.where(np.abs(y) < 1.0, phase_t(t, alpha), 0.0)
    du_t = v**-1.5 * carrier * (chi1 * y_t + 1j * phi_t * chi)
    u = Field.from_values(grid, u_vals)
    w = Field.from_values(grid, -1j * v * du_t)
    return PacketFrame(grid, t, v, width, -1.0 / (4.0 * v**2), u, w, v * u, None, None, None)


def carrier_derivatives_oracle(frame):
    """Pointwise closed-form d_a u and d_t^2 u at every grid point."""
    grid, t, v = frame.grid, frame.t, frame.v
    width, y, alpha, carrier = geometry_oracle(grid, t, v)
    chi, chi1, chi2 = bump_jet(y)
    y_a = 1.0 / width
    y_t = -(v**-0.5) * t**-0.5 - y / (2.0 * t)
    y_tt = 0.5 * v**-0.5 * t**-1.5 - y_t / (2.0 * t) + y / (2.0 * t**2)
    phi_t = phase_t(t, alpha)
    phi_tt = 1.0 / (2.0 * alpha)
    phi_a = phase_alpha(t, alpha)
    du_a = v**-1.5 * carrier * (chi1 * y_a + 1j * phi_a * chi)
    du_tt = v**-1.5 * carrier * (
        -(phi_t**2) * chi
        + 2j * phi_t * y_t * chi1
        + 1j * phi_tt * chi
        + y_tt * chi1
        + y_t**2 * chi2
    )
    inside = np.abs(y) < 1.0
    return np.where(inside, du_a, 0.0), np.where(inside, du_tt, 0.0)


def gamma_rate_oracle(wt, qt, dwt, dqt, frame):
    """`gamma_rate` with d_t w transformed from the whole-grid closed form."""
    _, du_tt = carrier_derivatives_oracle(frame)
    pw_t = Field.from_values(frame.grid, -1j * frame.v * du_tt)
    return pair_energy_product((dwt, dqt), (frame.w, frame.q)) + pair_energy_product(
        (wt, qt), (pw_t, 1j * frame.w)
    )


def gamma_samples_oracle(state, vs):
    """`gamma_samples` one velocity at a time on the whole-grid oracles."""
    nf = para_nf(state)
    dwt, dqt = nf_rate(state)
    rows = []
    for v in vs:
        frame = build_packet_oracle(state.grid, state.t, v)
        gam = gamma_value(nf.wt, nf.qt, frame)
        cubic = cubic_coefficient(gam, state.t, v)
        rows.append((v, gam, gamma_rate_oracle(nf.wt, nf.qt, dwt, dqt, frame) - cubic, cubic))
    return rows


# closed-form oracles ---------------------------------------------------------------

def w_closed_form(frame):
    """Expansion of the W-side packet: u/2 plus a correction smaller by
    v^(1/2) t^(-1/2)."""
    grid, t, v = frame.grid, frame.t, frame.v
    _, y, alpha, carrier = geometry_oracle(grid, t, v)
    chi, chi1, _ = bump_jet(y)
    lead = 0.5 * frame.u.values
    corr = (
        ((v * t - grid.alpha) / (2.0 * alpha)) * chi
        + 1j * (v * t + grid.alpha) / (2.0 * t**1.5 * v**0.5) * chi1
    ) * v**-1.5 * carrier
    corr = np.where(np.abs(y) < 1.0, corr, 0.0)
    return Field.from_values(grid, lead + corr)


def packet_defect_split(frame):
    """Closed-form defect in its leading / subleading form.

    leading:    (e^{i phi}/v^{3/2}) d_a[ ((a-vt)/2a) chi - i ((a+vt)^2/(4 v^{3/2} t^{5/2})) chi' ]
    subleading: (e^{i phi}/v^{3/2})    [ ((a-vt)/2a^2) chi - i ((a-vt)/(4 v^{3/2} t^{5/2})) chi' ]

    both multiplied by v.  The leading piece has relative size 1/t, the
    subleading one gains another t^(1/2).
    """
    grid, t, v = frame.grid, frame.t, frame.v
    width, y, alpha, carrier = geometry_oracle(grid, t, v)
    chi, chi1, chi2 = bump_jet(y)
    y_a = 1.0 / width
    a_minus = grid.alpha - v * t
    a_plus = grid.alpha + v * t
    c2 = 1.0 / (4.0 * v**1.5 * t**2.5)
    # d_a of the leading bracket, chain rule on chi(y(alpha))
    bracket_d = (
        (v * t / (2.0 * alpha**2)) * chi
        + (a_minus / (2.0 * alpha)) * chi1 * y_a
        - 1j * c2 * (2.0 * a_plus * chi1 + a_plus**2 * chi2 * y_a)
    )
    lead = v * v**-1.5 * carrier * bracket_d
    sub = v * v**-1.5 * carrier * ((a_minus / (2.0 * alpha**2)) * chi - 1j * c2 * a_minus * chi1)
    lead = np.where(np.abs(y) < 1.0, lead, 0.0)
    sub = np.where(np.abs(y) < 1.0, sub, 0.0)
    return Field.from_values(grid, lead), Field.from_values(grid, sub)


def gamma_reduced(wt, qt, frame):
    """Symmetrized form (1/2) int (w + r) conj(u), r = |D|^(1/2) q."""
    r = frac_deriv(qt, 0.5)
    return 0.5 * (wt + r).inner(frame.u)


@pytest.fixture(scope="module")
def frame64():
    return build_packet(DESK, 64.0, 1.0)


# bump and phase ----------------------------------------------------------------

def test_bump_normalization_and_derivatives():
    y = np.linspace(-1.1, 1.1, 40001)
    assert abs(np.trapezoid(bump_jet(y)[0], y) - 1.0) < 1e-10
    h = 1e-5
    yy = np.linspace(-0.9, 0.9, 37)
    (up, up1, _), (down, down1, _) = bump_jet(yy + h), bump_jet(yy - h)
    _, chi1, chi2 = bump_jet(yy)
    assert np.max(np.abs((up - down) / (2 * h) - chi1)) < 1e-6
    assert np.max(np.abs((up1 - down1) / (2 * h) - chi2)) < 1e-6


def test_phase_on_ray():
    t, v = 36.0, 1.0
    assert phase(t, v * t) == pytest.approx(t / (4 * v))


def test_scaling_annihilates_phase():
    # (t d_t + 2 alpha d_a) of t^2/(4 alpha) vanishes identically off alpha = 0
    t = 50.0
    alpha = np.linspace(5.0, 400.0, 1000)
    s_phi = t * phase_t(t, alpha) + 2.0 * alpha * phase_alpha(t, alpha)
    assert np.max(np.abs(s_phi)) < 1e-10


# frame construction --------------------------------------------------------------

def test_frame_geometry(frame64):
    assert frame64.xi_v == pytest.approx(-0.25)
    assert frame64.width == pytest.approx(8.0)
    # support confined to one width around the ray
    outside = np.abs(DESK.alpha - 64.0) > frame64.width
    assert np.max(np.abs(frame64.u.values[outside])) < 1e-8 * frame64.u.linf()


def test_spectral_center_and_concentration(frame64):
    m = np.abs(frame64.u.coef) ** 2
    centroid = float(np.sum(DESK.k * m) / np.sum(m))
    assert abs(centroid - frame64.xi_v) <= 2.0 * DESK.dk
    window = np.abs(DESK.k - frame64.xi_v) <= 10.0 * 64.0**-0.5
    assert np.sum(m[window]) / np.sum(m) >= 0.95


def test_domain_guards():
    with pytest.raises(OutOfDomain):
        build_packet(DESK, 2.0, 1.0)
    with pytest.raises(OutOfDomain):
        build_packet(DESK, 64.0, 2.0)  # outside the admissible velocity band
    with pytest.raises(WrapAround):
        build_packet(DESK, 600.0, 1.04)


def test_w_matches_closed_form(frame64):
    alt = w_closed_form(frame64)
    assert (alt - frame64.w).l2() < 1e-10 * frame64.w.l2()


def test_w_matches_numerical_time_derivative(frame64):
    t, v, h = 64.0, 1.0, 1e-3

    def u_at(tt):
        return build_packet(DESK, tt, v).u

    d1 = (0.5 / h) * (u_at(t + h) - u_at(t - h))
    d2 = (1.0 / h) * (u_at(t + h / 2) - u_at(t - h / 2))
    richardson = (1.0 / 3.0) * (4.0 * d2 - d1)
    w_num = -1j * v * richardson
    assert (w_num - frame64.w).l2() < 1e-8 * frame64.w.l2()


# defect ---------------------------------------------------------------------------

def test_defect_split_matches_direct(frame64):
    g = packet_defect(frame64)
    lead, sub = packet_defect_split(frame64)
    assert (g - (lead + sub)).l2() < 1e-8 * g.l2()


def test_defect_decays_like_inverse_time():
    ts = [16.0, 32.0, 64.0, 128.0, 256.0]
    ratios = [
        packet_defect(build_packet(DESK, t, 1.0)).l2() / build_packet(DESK, t, 1.0).w.l2()
        for t in ts
    ]
    slope, _ = decay_fit(ts, ratios, min_samples=5)
    assert -1.2 <= slope <= -0.8


def test_subleading_term_gains_half_power():
    ts = [16.0, 32.0, 64.0, 128.0, 256.0]
    ratios = []
    for t in ts:
        lead, sub = packet_defect_split(build_packet(DESK, t, 1.0))
        ratios.append(lead.l2() / sub.l2())
    slope, _ = decay_fit(ts, ratios, min_samples=5)
    assert 0.3 <= slope <= 0.7


def test_packet_rate_identities(frame64):
    # d_t w is -d_a q plus the defect, with the closed-form d_a q (the
    # spectral one differs by sampling tails)
    g = packet_defect(frame64)
    dalpha_q = Field.from_values(DESK, frame64.v * carrier_derivatives_oracle(frame64)[0])
    assert (frame64.dt_w + dalpha_q - g).l2() < 1e-14 * frame64.w.l2()


# one builder, on the support ---------------------------------------------------------

LONG = GridSpec(length=3200.0 * math.pi, n=16384)


@pytest.mark.parametrize("grid, t, v", [(DESK, 10.0, 0.99), (DESK, 64.0, 1.0),
                                        (DESK, 256.0, 1.03), (LONG, 1024.0, 1.0)])
def test_frames_equal_the_whole_grid_oracle(grid, t, v):
    # the closed form on the support, zero elsewhere, gives the same u, w and
    # q, coefficients and grid values, and the same rate and defect rows
    oracle = build_packet_oracle(grid, t, v)
    du_a, du_tt = carrier_derivatives_oracle(oracle)
    dt_w = Field.from_values(grid, -1j * v * du_tt)
    defect = Field.from_values(grid, v * (du_a - 1j * du_tt))
    frame = build_packet(grid, t, v)
    for mine, theirs in ((frame.u, oracle.u), (frame.w, oracle.w), (frame.q, oracle.q)):
        assert np.array_equal(mine.coef, theirs.coef)
        assert np.array_equal(mine.values, theirs.values)
    assert np.array_equal(frame.dt_w.coef, dt_w.coef)
    assert np.array_equal(packet_defect(frame).coef, defect.coef)
    assert (frame.width, frame.xi_v) == (oracle.width, oracle.xi_v)


@pytest.fixture(scope="module")
def sampled_state():
    """A run's state at a gamma sample: plateau data stepped to t = 10."""
    return evolve(plateau_data(DESK, 1e-3), StepperConfig(dt=0.2), 10.0)


def test_gamma_samples_equal_the_per_velocity_oracle(sampled_state):
    vs = omega0_grid(sampled_state.t, count=9)
    assert gamma_samples(sampled_state, vs) == gamma_samples_oracle(sampled_state, vs)
    long = linear_propagate(plateau_data(LONG, 1e-3), 400.0)
    vs = omega0_grid(400.0, count=3)
    assert gamma_samples(long, vs) == gamma_samples_oracle(long, vs)


@pytest.mark.parametrize("grid, t, calls", [(DESK, 10.0, 9), (LONG, 400.0, 27)])
def test_gamma_sample_packet_budget(monkeypatch, grid, t, calls):
    # counted as (calls, 1-D transforms): each velocity's rows u, w and d_t w
    # go through one forward call (three before), one row per call from
    # n = 8192 on; pairing them transforms nothing
    st = linear_propagate(plateau_data(grid, 1e-3), t)
    z = Field.zero(grid)
    rows = transform_calls(monkeypatch)
    for v in omega0_grid(t, count=9):
        frame = build_packet(grid, t, v)
        gamma_value(st.w, st.q, frame)
        gamma_rate(st.w, st.q, z, z, frame)
    assert (len(rows), sum(rows)) == (calls, 27)


# gamma ----------------------------------------------------------------------------

def test_gamma_zero(frame64):
    z = Field.zero(DESK)
    assert gamma_value(z, z, frame64) == 0.0


def test_gamma_self_pairing(frame64):
    wt = project_neg(frame64.w)
    qt = project_neg(frame64.q)
    gam = gamma_value(wt, qt, frame64)
    # quadrature oracle for both pairing slots
    o1 = np.mean(wt.values * np.conj(frame64.w.values)) * DESK.length
    o2 = (
        np.mean(
            frac_deriv(qt, 0.5).values * np.conj(frac_deriv(frame64.q.demean(), 0.5).values)
        )
        * DESK.length
    )
    assert abs(gam - (o1 + o2)) < 1e-10 * abs(gam)
    y = np.linspace(-1, 1, 4001)
    predicted = math.sqrt(64.0) * float(np.trapezoid(bump_jet(y)[0] ** 2, y)) / 2.0
    assert abs(gam) == pytest.approx(predicted, rel=0.2)  # 1 + O(v^(1/2) t^(-1/2))


def test_gamma_reduced_form_converges(frame64):
    rels = []
    for t in (64.0, 256.0):
        fr = build_packet(DESK, t, 1.0)
        wt, qt = project_neg(fr.w), project_neg(fr.q)
        g1 = gamma_value(wt, qt, fr)
        g2 = gamma_reduced(wt, qt, fr)
        rels.append(abs(g1 - g2) / abs(g1))
    assert rels[1] < rels[0]  # tracked, shrinking with t
    assert rels[1] < 0.1


BIG = GridSpec(length=1600.0 * math.pi, n=8192)


def test_gamma_constant_under_linear_flow():
    # dyadic window inside the genuine packet regime: the probe bandwidth
    # t^(-1/2) v^(-3/2) must sit well below |xi_v|, which needs t >~ 400
    state = plateau_data(BIG, 1e-3)
    mags = []
    for t in np.linspace(400.0, 1600.0, 7):
        st = linear_propagate(state, t)
        fr = build_packet(BIG, t, 1.0)
        mags.append(abs(gamma_value(st.w, st.q, fr)))
    assert max(mags) / min(mags) < 1.1


@pytest.mark.xfail(
    reason="probe bandwidth at t = 20 covers the whole negative-frequency "
    "band, so the ray functional clips at k = 0 and drifts far beyond 10% "
    "for every admissible data profile; the dyadic-window statement holds "
    "once t >~ 400 (see the passing variant above)",
    strict=False,
)
def test_gamma_constant_under_linear_flow_short_window():
    state = plateau_data(DESK, 1e-3, plateau=0.10)
    mags = []
    for t in np.linspace(20.0, 80.0, 7):
        st = linear_propagate(state, t)
        fr = build_packet(DESK, t, 1.0)
        mags.append(abs(gamma_value(st.w, st.q, fr)))
    assert max(mags) / min(mags) < 1.1


def test_gamma_rate_matches_centered_difference_second_order():
    state = plateau_data(DESK, 1e-3, plateau=0.10)
    t0 = 40.0
    st = linear_propagate(state, t0)
    fr = build_packet(DESK, t0, 1.0)
    analytic = gamma_rate(st.w, st.q, -1.0 * st.q.deriv(), 1j * st.w, fr)

    def centered(dt):
        vals = {}
        for tt in (t0 - dt, t0 + dt):
            s = linear_propagate(state, tt)
            f = build_packet(DESK, tt, 1.0)
            vals[tt] = gamma_value(s.w, s.q, f)
        return (vals[t0 + dt] - vals[t0 - dt]) / (2 * dt)

    errs = [abs(analytic - centered(dt)) for dt in (0.1, 0.05)]
    order = math.log2(errs[0] / errs[1])
    assert 1.6 <= order <= 2.3


# asymptotic residual --------------------------------------------------------------

def test_residual_zero_solution():
    ts = np.array([10.0, 20.0, 40.0])
    vs = np.array([1.0])
    prof = GammaProfile(ts, vs, np.zeros((3, 1), complex), np.zeros((3, 1), complex))
    assert np.all(asymptotic_residual(prof) == 0.0)


def test_residual_frozen_coefficient_audit():
    # constant gamma: the residual must be exactly minus the cubic term
    ts = np.array([8.0, 16.0, 32.0, 64.0])
    vs = omega0_grid(32.0, count=5)
    c = 0.3 - 0.4j
    gam = np.full((len(ts), len(vs)), c)
    prof = GammaProfile(ts, vs, gam, np.zeros_like(gam))
    e = asymptotic_residual(prof)
    expect = -cubic_coefficient(c, ts[:, None], vs[None, :])
    assert np.max(np.abs(e - expect)) == 0.0


# ray reconstruction ----------------------------------------------------------------

def test_reconstruction_error_small_for_exact_packet():
    # needs the long frame: the hyperbolic window must dominate the profile
    # spectrum, i.e. the relative bandwidth 4 (v/t)^(1/2) must be small. The
    # profile is flat across the testing packet: the main term is the
    # chi-weighted mean of the profile over the packet, so a single packet as
    # data keeps a gap of 1 - int chi^2 / chi(0) (about 18.5%) at every t.
    # t = 1024 is an octave time, where ray alpha = t sits on a block centre.
    t = 1024.0
    wt, _, qt, _ = monochrome_ansatz(BIG, t, 1.0)
    wt = project_neg(wt)
    qt = project_neg(qt)
    vs = omega0_grid(t, count=9)
    err_w, err_q, gam = packet_reconstruction_error(wt, qt, t, vs, s=0.0)
    peak = t**-0.5 * np.max(np.abs(gam))
    assert np.max(np.abs(err_w)) <= 0.2 * peak


def test_reconstruction_weights_are_exact_multipliers(frame64):
    wt = project_neg(frame64.w)
    qt = project_neg(frame64.q)
    vs = np.array([1.0])
    e0w, _, g0 = packet_reconstruction_error(wt, qt, 64.0, vs, s=0.0)
    ehw, _, gh = packet_reconstruction_error(wt, qt, 64.0, vs, s=0.5)
    # on a monochromatic main term the s-weight is |xi_v|^(1/2) exactly
    main0 = g0[0] * 64.0**-0.5
    mainh = gh[0] * 64.0**-0.5 * abs(-0.25) ** 0.5
    assert abs(mainh / main0 - abs(-0.25) ** 0.5) < 1e-10


def test_err_l2v_decays_on_linear_flow():
    fr0 = build_packet(DESK, 16.0, 1.0)
    amp = 1e-3 / fr0.w.linf()
    state = WaveState(16.0, amp * fr0.w, amp * fr0.q)
    ts = [16.0, 32.0, 64.0, 128.0, 160.0]
    norms = []
    for t in ts:
        st = linear_propagate(state, t)
        vs = omega0_grid(t, count=9)
        err_w, err_q, _ = packet_reconstruction_error(st.w, st.q, t, vs, s=0.0)
        norms.append(weighted_l2_v(vs, err_w, -1.0) / state.w.linf())
    slope, _ = decay_fit(ts, norms, min_samples=5)
    assert -1.3 <= slope <= -0.7


# spectral profile -----------------------------------------------------------------

def test_spectral_profile_collapse():
    s_grid = np.linspace(-0.75, 0.75, 31)
    p1 = spectral_profile(build_packet(DESK, 64.0, 1.0), s_grid)
    p2 = spectral_profile(build_packet(DESK, 256.0, 1.0), s_grid)
    wgt = np.abs(p2) ** 2
    wgt = wgt / wgt.sum()
    peak = np.max(np.abs(p2))
    mod_dev = math.sqrt(float(np.sum(wgt * (np.abs(p1) - np.abs(p2)) ** 2))) / peak
    phase_dev = math.sqrt(float(np.sum(wgt * np.angle(p1 / p2) ** 2))) / (2 * math.pi)
    assert mod_dev < 0.05
    assert phase_dev < 0.05
    # the carrier phase sign is essential: conjugating it destroys the collapse
    fr = build_packet(DESK, 256.0, 1.0)
    order = np.argsort(DESK.k)
    ks = DESK.k[order]
    wrong = fr.u.coef[order] * np.exp(+1j * 256.0 * np.sqrt(np.abs(ks))) * 256.0**-0.5
    s = (ks - fr.xi_v) / (256.0**-0.5)
    pw = np.interp(s_grid, s, wrong.real) + 1j * np.interp(s_grid, s, wrong.imag)
    assert np.max(np.abs(pw - p1)) > 0.5 * peak


# velocity band --------------------------------------------------------------------

def test_omega0_band_and_grid():
    lo, hi = omega0_band(64.0)
    assert lo == pytest.approx(64.0**-0.01)
    vs = omega0_grid(64.0, count=33)
    assert len(vs) == 33
    assert vs[0] >= lo - 1e-12 and vs[-1] <= hi + 1e-12


# monochromatic ansatz structure ------------------------------------------------------

def test_null_bilinears_vanish_on_ansatz():
    # reference scale for "truncation order": a non-cancelling expression of
    # the same shape carries the full carrier frequency |xi_v| = 1/4
    wt, wt_a, qt, qt_a = monochrome_ansatz(BIG, 1024.0, 1.0)
    xi = 0.25
    scale = wt_a.linf() * qt_a.linf()
    pair_defect = wt_a * qt_a.conj() - wt_a.conj() * qt_a
    assert pair_defect.linf() < 1e-13 * scale
    mod_sq = qt_a * qt_a.conj()
    assert mod_sq.deriv().linf() < 0.2 * xi * mod_sq.linf()
    chirp = qt_a * qt_a.deriv() + 1j * (wt_a * wt_a)
    assert chirp.linf() < 0.25 * xi * (qt_a * qt_a).linf()
