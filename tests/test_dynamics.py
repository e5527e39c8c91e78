import math

import numpy as np
import pytest

from holoww.errors import DegenerateJacobian, StabilityViolation
from holoww.grid import Field, GridSpec, frac_deriv, project_neg, pos_leakage
from holoww.dynamics import (
    DiffState,
    StepperConfig,
    WaveState,
    diff_coefficients,
    evolve,
    flux,
    hamiltonian,
    linear_propagate,
    linearize,
    load_state,
    packet_data,
    r_rate,
    rational_forms,
    rhs_diff,
    rhs_diff_unprojected_defect,
    rhs_full,
    save_state,
    step,
    step_diff,
    step_with_linearized,
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
    assert flux(st, st.r.conj()).l2() == 0.0
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
    assert (flux(st, st.r.conj()) - f_rational).l2() < 1e-10
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
    out = evolve(st, StepperConfig(dt=period / 128), period)
    assert (out.w - w0).l2() / w0.l2() < 1e-8


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


def test_unprojected_defect_is_small(grid):
    st = random_state(grid, 1e-3, seed=5)
    defect = rhs_diff_unprojected_defect(DiffState(st.t, st.wa, st.r))
    assert defect < 1e-4  # O(eps^2) wrap-around artifact, recorded not asserted tightly


# linearize ------------------------------------------------------------------

def test_linearize_at_zero_state(grid):
    z = Field.zero(grid)
    st = WaveState(0.0, z, z)
    dir_w = holo_field(grid, seed=6, center=0.6, amplitude=1e-3)
    dir_q = holo_field(grid, seed=7, center=0.6, amplitude=1e-3)
    dw, dq, dr, dir_r = linearize(st, dir_w, dir_q)
    assert (dw + dir_q.deriv()).l2() < 1e-10 * dir_q.l2()
    assert (dq - 1j * dir_w).l2() < 1e-10 * dir_w.l2()
    assert (dr - 1j * dir_w).l2() < 1e-10 * dir_w.l2()
    assert (dir_r - dir_q).l2() == 0.0


def test_linearize_two_oracles_agree(grid):
    st = random_state(grid, 1e-3, seed=8)
    dir_w = holo_field(grid, seed=9, center=0.6, amplitude=1.0)
    dir_q = holo_field(grid, seed=10, center=0.6, amplitude=1.0)
    dw2, dq2, _, _ = linearize(st, dir_w, dir_q, rel_step=1e-5, order=2)
    dw4, dq4, _, _ = linearize(st, dir_w, dir_q, rel_step=1e-4, order=4)
    scale = max(dw2.l2(), dq2.l2())
    assert (dw2 - dw4).l2() < 1e-7 * scale
    assert (dq2 - dq4).l2() < 1e-7 * scale


def test_linearize_linearity(grid):
    st = random_state(grid, 1e-3, seed=11)
    dir_w = holo_field(grid, seed=12, center=0.6, amplitude=1.0)
    dir_q = holo_field(grid, seed=13, center=0.6, amplitude=1.0)
    dw1, dq1, _, _ = linearize(st, dir_w, dir_q)
    dw2, dq2, _, _ = linearize(st, 2.0 * dir_w, 2.0 * dir_q)
    scale = max(dw2.l2(), dq2.l2())
    assert (dw2 - 2.0 * dw1).l2() < 1e-10 * scale
    assert (dq2 - 2.0 * dq1).l2() < 1e-10 * scale


def test_linearized_flow_tracks_solution_differences(grid):
    base = packet_data(grid, 1e-2, velocity=1.4, width=8.0)
    dir_w = holo_field(grid, seed=14, center=0.6, amplitude=1.0)
    dir_q = project_neg(frac_deriv(dir_w, -0.5))
    cfg = StepperConfig(dt=0.1, scheme="rk4")
    defects = []
    for delta in (1e-3, 5e-4):
        pert = WaveState(0.0, base.w + delta * dir_w, base.q + delta * dir_q)
        s1, s2 = base, pert
        lw, lq = project_neg(1.0 * dir_w), project_neg(1.0 * dir_q)
        sl = base
        for _ in range(10):
            s1 = step(s1, cfg)
            s2 = step(s2, cfg)
            sl, lw, lq = step_with_linearized(sl, lw, lq, cfg)
        dw = (1.0 / delta) * (s2.w - s1.w)
        dq = (1.0 / delta) * (s2.q - s1.q)
        defects.append(math.sqrt((dw - lw).l2() ** 2 + (dq - lq).l2() ** 2))
    ratio = defects[0] / defects[1]
    assert 1.5 <= ratio <= 3.0  # first-order in delta


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
    out = evolve(st, StepperConfig(dt=0.1), 5.0)
    assert abs((hamiltonian(out).real - e0) / e0) < 1e-8


# stepping -------------------------------------------------------------------

def test_stability_guard(grid):
    st = packet_data(grid, 1e-3, velocity=1.4, width=8.0)
    with pytest.raises(StabilityViolation):
        step(st, StepperConfig(dt=10.0))


def test_integrating_factor_exact_linear_phase(grid):
    k_idx = np.argmin(np.abs(grid.k + 1.0))
    coef = np.zeros(grid.n, dtype=complex)
    coef[k_idx] = 1e-9
    w0 = Field(grid, coef)
    st = WaveState(0.0, w0, project_neg(frac_deriv(w0, -0.5)))
    out = step(st, StepperConfig(dt=0.5))
    exact = linear_propagate(st, 0.5)
    phase_err = np.angle(out.w.coef[k_idx] / exact.w.coef[k_idx])
    assert abs(phase_err) < 1e-12


def test_rk4_order(grid):
    st = packet_data(grid, 1e-2, velocity=1.4, width=8.0)
    dt = 0.2

    def advance(n, delta):
        s = st
        for _ in range(n):
            s = step(s, StepperConfig(dt=delta, scheme="rk4"))
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
    cfg = StepperConfig(dt=0.2)
    for _ in range(10_000):
        st = step(st, cfg)
    assert pos_leakage(st.w) < 1e-12
    assert pos_leakage(st.q) < 1e-12


def test_diff_system_trajectory_matches_differentiated_full(grid):
    st = packet_data(grid, 1e-3, velocity=1.4, width=8.0)
    ds = DiffState(0.0, st.wa, st.r)
    cfg = StepperConfig(dt=0.05, scheme="rk4")
    full, diff = st, ds
    while full.t < 1.0 - 1e-12:
        full = step(full, cfg)
        diff = step_diff(diff, cfg)
    assert (full.wa - diff.wa).l2() < 1e-8
    assert (full.r - diff.r).l2() < 1e-8


def test_evolve_stops_at_first_step_past_t_end(grid):
    st = packet_data(grid, 1e-3, velocity=1.4, width=8.0)
    seen = []
    out = evolve(st, StepperConfig(dt=0.2), 0.5, seen.append)
    assert [s.t for s in seen] == pytest.approx([0.2, 0.4, 0.6])
    assert seen[-1] is out
    # on the dt grid, roundoff in the accumulated time adds no step
    seen.clear()
    assert evolve(st, StepperConfig(dt=0.1), 1.0, seen.append).t == pytest.approx(1.0)
    assert len(seen) == 10
    assert evolve(st, StepperConfig(dt=0.1), 0.0, seen.append) is st
    assert len(seen) == 10


def test_transform_budget(grid, monkeypatch):
    # a state transforms W_a and Q_a to values and R and Y back and keeps
    # them; a step builds four states and evaluates four right-hand sides of
    # 10 each (conj(R) is formed once); r_rate forms two products of three
    # transforms, and 1 - Y needs none
    st = packet_data(grid, 1e-3, velocity=1.4, width=8.0)
    calls = []
    for name in ("fft", "ifft"):
        def counted(*args, _fn=getattr(np.fft, name), **kwargs):
            calls.append(name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    WaveState(st.t, st.w, st.q)
    assert len(calls) == 4
    calls.clear()
    step(st, StepperConfig(dt=0.05))
    assert len(calls) == 56
    dw, dq = rhs_full(st)
    calls.clear()
    r_rate(st, dw, dq)
    assert len(calls) == 5


def test_checkpoint_roundtrip(tmp_path, grid):
    st = packet_data(grid, 1e-3, velocity=1.4, width=8.0)
    out = evolve(st, StepperConfig(dt=0.1), 1.0)
    path = tmp_path / "state.txt"
    save_state(path, out, extra={"eps": 1e-3})
    loaded, meta = load_state(path)
    assert meta["t"] == out.t and meta["eps"] == 1e-3
    assert (loaded.w - out.w).l2() == 0.0
    resumed_a = evolve(out, StepperConfig(dt=0.1), 2.0)
    resumed_b = evolve(loaded, StepperConfig(dt=0.1), 2.0)
    assert (resumed_a.w - resumed_b.w).l2() < 1e-13
