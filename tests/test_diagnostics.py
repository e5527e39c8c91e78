import math

import numpy as np
import pytest

from holoww import diagnostics, lp
from holoww.errors import InsufficientSamples, TimeTooSmall
from holoww.grid import Field, GridSpec, frac_deriv, pair_sobolev, project_neg
from holoww.dynamics import (
    StepperConfig,
    WaveState,
    linear_propagate,
    packet_data,
    plateau_data,
    scaling_pair,
    step,
)
from holoww.diagnostics import (
    alpha_partition,
    control_norms,
    decay_fit,
    ell_hyp_split,
    hyp_band_mass_fraction,
    hyp_x_norm,
    velocity_masked_hyp_x_norm,
    weighted_energy,
    xsharp_exponents,
    xsharp_norm,
)
from holoww.packets import build_packet, bump_jet

from conftest import holo_field, transform_calls

DESK = GridSpec()
BIG = GridSpec(length=1600.0 * math.pi, n=8192)


def zero_state(grid):
    z = Field.zero(grid)
    return WaveState(0.0, z, z)


def small_random_state(grid, eps, seed):
    wa = holo_field(grid, seed=seed, center=0.6, sigma=0.2, amplitude=eps)
    w = project_neg(wa.antideriv())
    return WaveState(0.0, w, project_neg(frac_deriv(w, -0.5)))


# control norms -----------------------------------------------------------------

def test_control_norms_zero(grid):
    rec = control_norms(zero_state(grid))
    assert rec.a0 == rec.a_quarter == rec.a_half == rec.a_sharp == rec.x == 0.0


def test_control_norms_computes_the_besov_pair_once(grid, monkeypatch):
    # a0 reads one Besov norm, a_quarter and x share the pair (w_alpha, r)
    calls = []

    def counted(u, s, _fn=lp.besov_inf2):
        calls.append(s)
        return _fn(u, s)
    monkeypatch.setattr(lp, "besov_inf2", counted)
    monkeypatch.setattr(diagnostics, "besov_inf2", counted)
    st = small_random_state(grid, 1e-3, 7)
    rec = control_norms(st)
    assert sorted(calls) == [0.0, 0.25, 0.75]
    assert rec.x == pytest.approx(lp.x_norm(st.wa, st.r), rel=1e-15)
    assert rec.a_quarter == lp.x_zero_norm(st.wa, st.r)


@pytest.mark.parametrize("grid, budget", [(GridSpec(), (17, 38)),
                                          (GridSpec(3200.0 * math.pi, 16384), (47, 47))])
def test_control_norms_transform_budget(monkeypatch, grid, budget):
    # counted as (calls, 1-D transforms) on a stepped state, as a run samples
    # it: two forward rows, and 36 inverse rows in 15 calls on the desk grid,
    # where the 30 LP blocks of the three Besov norms go four rows per call
    # (38 calls in all when each block was a call); from n = 8192 on every
    # call is one row, 39 of them LP blocks
    st = step(plateau_data(grid, 1e-3), StepperConfig(dt=0.2))
    rows = transform_calls(monkeypatch)
    control_norms(st)
    assert (len(rows), sum(rows)) == budget


def test_control_norms_single_mode(grid):
    amp = 1e-3
    idx = np.argmin(np.abs(grid.k + 1.0))
    coef = np.zeros(grid.n, dtype=complex)
    coef[idx] = amp
    wa = Field(grid, coef)
    w = project_neg(wa.antideriv())
    st = WaveState(0.0, w, Field.zero(grid))
    rec = control_norms(st)
    kv = abs(grid.k[idx])
    # with Q = 0: A0 = |bW|_inf + |Y|_inf ~ 2 amp at small amplitude
    assert rec.a0 == pytest.approx(2.0 * amp, rel=0.05)
    # X-norm of bW alone: |D|^(-1/2) sup plus its Besov block
    assert rec.x == pytest.approx(amp * kv**-0.5 + amp * kv**0.25, rel=0.3)


def test_a_quarter_controls_pointwise_fractional_sups(grid):
    # data concentrated on one LP block (centred on 2^0): the square-sum over
    # blocks then controls the pointwise fractional sups with a constant near
    # one. Off a block centre the raised-cosine partition splits a mode over
    # two blocks, and a single mode already reaches sqrt(2) halfway between.
    for seed in (60, 61):
        wa = holo_field(grid, seed=seed, center=1.0, sigma=0.08, amplitude=1e-3)
        w = project_neg(wa.antideriv())
        st = WaveState(0.0, w, project_neg(frac_deriv(w, -0.5)))
        rec = control_norms(st)
        lhs = frac_deriv(st.wa, 0.25).linf() + frac_deriv(st.r, 0.75).linf()
        assert lhs <= 1.3 * rec.a_quarter


def test_weighted_energy_zero_and_scaling(grid):
    st = zero_state(grid)
    assert weighted_energy(st) == 0.0
    vals = []
    for eps in (1e-3, 2e-3):
        stp = packet_data(grid, eps, velocity=1.4, width=8.0)
        vals.append(weighted_energy(stp))
    assert 1.9 <= vals[1] / vals[0] <= 2.1


def test_weighted_energy_time_zero_moment_equivalence(grid):
    st = packet_data(grid, 1e-3, velocity=1.4, width=12.0)
    third = pair_sobolev(scaling_pair(st), 0.25)
    moment = pair_sobolev(
        (st.wa.alpha_times(), Field.from_values(grid, grid.alpha * st.r.values)), 0.25
    )
    assert 0.5 <= third / (2.0 * moment) <= 2.0


# localization ---------------------------------------------------------------------

SUITE_GRIDS = [DESK, BIG, GridSpec(3200.0 * math.pi, 16384), GridSpec(12800.0 * math.pi, 65536)]


@pytest.mark.parametrize("t", [64.0, 724.0, 1448.0])
@pytest.mark.parametrize("grid", SUITE_GRIDS, ids=lambda g: f"n{g.n}")
def test_alpha_partition_telescopes(grid, t):
    lo, blocks, hi = alpha_partition(grid, t)
    total = lo + hi + sum(sym for _, sym in blocks)
    assert np.max(np.abs(total - 1.0)) < 1e-12
    with np.errstate(divide="ignore"):
        log2_alpha = np.log2(np.abs(grid.alpha))  # -inf at alpha = 0
    for m, sym in blocks:
        y = log2_alpha - m
        assert np.array_equal(sym, lp.ramp(y + 1.0) - lp.ramp(y))


def test_alpha_partition_needs_time():
    with pytest.raises(TimeTooSmall):
        alpha_partition(DESK, 0.5)


def test_split_reconstruction():
    t = 64.0
    fr = build_packet(DESK, t, 1.0)
    wt, qt = project_neg(fr.w), project_neg(fr.q)
    split = ell_hyp_split((wt, qt), t)
    w_sum = split.w_lo + split.w_hi + sum((blk["w"] for blk in split.blocks), Field.zero(DESK))
    qa_sum = split.qa_lo + split.qa_hi + sum((blk["qa"] for blk in split.blocks), Field.zero(DESK))
    assert (w_sum - wt).l2() < 1e-10 * wt.l2()
    assert (qa_sum - qt.deriv()).l2() < 1e-10 * qt.deriv().l2()


def test_packet_mass_lands_in_matching_hyp_block():
    t = 1024.0
    fr = build_packet(BIG, t, 1.0)
    wt, qt = project_neg(fr.w), project_neg(fr.q)
    split = ell_hyp_split((wt, qt), t)
    m_match = round(math.log2(t))
    blk = next(b for b in split.blocks if b["m"] == m_match)
    frac = (blk["w_hyp"].l2() ** 2 + blk["qa_hyp"].l2() ** 2) / (
        wt.l2() ** 2 + qt.deriv().l2() ** 2
    )
    assert frac >= 0.8


def test_high_frequency_content_is_elliptic():
    t = 64.0
    alpha0 = 64.0
    xi0 = t**2 / (4.0 * alpha0**2)
    carrier = np.exp(1j * (-100.0 * xi0) * DESK.alpha)
    envelope = bump_jet((DESK.alpha - alpha0) / 16.0)[0]
    w = project_neg(Field.from_values(DESK, envelope * carrier))
    q = project_neg(frac_deriv(w.demean(), -0.5))
    split = ell_hyp_split((w, q), t)
    assert split.hyp_w.l2() < 0.05 * w.l2()


def test_hyp_blocks_are_frequency_concentrated():
    t = 256.0
    fr = build_packet(DESK, t, 1.0)
    wt, qt = project_neg(fr.w), project_neg(fr.q)
    split = ell_hyp_split((wt, qt), t)
    for blk in split.blocks:
        if blk["w_hyp"].l2() > 1e-12 * wt.l2():
            assert hyp_band_mass_fraction(blk) >= 0.9


# X-sharp ---------------------------------------------------------------------------

def test_xsharp_zero():
    split = ell_hyp_split((Field.zero(DESK), Field.zero(DESK)), 64.0)
    assert xsharp_norm(split) == (0.0, 0.0)


def test_xsharp_exponents_move_with_sigma():
    a1, b1 = xsharp_exponents(3.0)
    a2, b2 = xsharp_exponents(3.5)
    assert a1 == a2 == 1.25
    assert b2 - b1 == pytest.approx(0.5 / 4.0)


def test_x_below_xsharp_constant_is_stable():
    t = 64.0
    cs = []
    for seed in (70, 71, 72):
        wa = holo_field(DESK, seed=seed, center=0.5, sigma=0.15, amplitude=1e-3)
        w = project_neg(wa.antideriv())
        blob = np.exp(-(((DESK.alpha - t) / (0.4 * t)) ** 2))
        w = project_neg(Field.from_values(DESK, blob * w.values))
        q = project_neg(frac_deriv(w.demean(), -0.5))
        split = ell_hyp_split((w, q), t)
        total, _ = xsharp_norm(split)
        cs.append(hyp_x_norm(split) / total)
    assert max(cs) / min(cs) < 2.0


def _velocity_blob(grid, t, v, rel_width=0.4):
    alpha0 = v * t
    xi = -(t**2) / (4.0 * alpha0**2)
    envelope = bump_jet((grid.alpha - alpha0) / (rel_width * alpha0))[0]
    w = project_neg(Field.from_values(grid, envelope * np.exp(1j * xi * grid.alpha)))
    return w


def test_velocity_mask_gain_trend():
    # content off the unit-velocity band is damped ever harder as t grows;
    # t = 16 is left out: off-band ray frequencies are sub-wavelength there
    fine = GridSpec(length=400.0 * math.pi, n=8192)
    delta = 0.3
    ratios = []
    for t, v_out in ((64.0, 0.22), (144.0, 0.18), (256.0, 0.16)):
        w = _velocity_blob(fine, t, 1.0) + _velocity_blob(fine, t, v_out)
        w = project_neg(w)
        q = project_neg(frac_deriv(w.demean(), -0.5))
        split = ell_hyp_split((w, q), t)
        total, _ = xsharp_norm(split, sigma=6.0)
        ratios.append(velocity_masked_hyp_x_norm(split, delta) / total)
    assert ratios[0] > ratios[1] > ratios[2]


def test_velocity_mask_is_periodic():
    # with delta = 0 the mask is all ones, so it must leave the norm as it is;
    # this holds only if the smoothing of the mask wraps at both ends
    fine = GridSpec(length=400.0 * math.pi, n=8192)
    t = 200.0
    w = _velocity_blob(fine, t, -1.5)  # alpha_0 = -300
    q = project_neg(frac_deriv(w.demean(), -0.5))
    split = ell_hyp_split((w, q), t)
    assert velocity_masked_hyp_x_norm(split, 0.0) == pytest.approx(hyp_x_norm(split), rel=1e-12)


# decay fitting ----------------------------------------------------------------------

def test_decay_fit_constant_series():
    ts = np.linspace(10.0, 110.0, 9)
    slope, err = decay_fit(ts, np.full(9, 3.3))
    assert abs(slope) <= 1e-12


def test_decay_fit_guards():
    with pytest.raises(InsufficientSamples):
        decay_fit([10.0, 20.0], [1.0, 2.0])
    with pytest.raises(InsufficientSamples):
        decay_fit(np.linspace(10, 19, 10), np.ones(10))


def test_linear_packet_x_norm_decay():
    # data shaped like the self-similar ray profile at t = 10. Its relative
    # bandwidth 4 (v/t)^(1/2) is above one, so much of its mass sits at
    # |k| > 1, which the Besov terms of X weight up and which disperses slowly
    # (omega'' ~ |k|^(-3/2)): X only reaches t^(-1/2) once that content has
    # spread, past t ~ 100. The fit therefore runs over [200, 2000], on the
    # long torus so the ray stays clear of the half-length.
    fr0 = build_packet(BIG, 10.0, 1.0)
    amp = 1e-4 / fr0.w.linf()
    state = WaveState(10.0, amp * fr0.w, amp * fr0.q)
    ts = np.geomspace(200.0, 2000.0, 9)
    vals = []
    for t in ts:
        st = linear_propagate(state, t)
        vals.append(control_norms(st).x)
    slope, _ = decay_fit(ts, vals)
    assert -0.6 <= slope <= -0.4


# exact scaling law --------------------------------------------------------------------

def _rescale_state(state, lam):
    """(W, Q) -> (lam^-2 W(lam^2 a), lam^-3 Q(lam^2 a)) on the mode grid.

    Relabeling modes m -> lam^2 m periodizes lam^2 compressed copies around
    the fixed torus, so amplitudes carry an extra 1/lam to keep single-copy
    integrals comparable with the continuum scaling.
    """
    grid = state.grid
    factor = round(lam**2)
    coef_w = np.zeros(grid.n, dtype=complex)
    coef_q = np.zeros(grid.n, dtype=complex)
    order = {m: i for i, m in enumerate(grid.modes)}
    for m, cw, cq in zip(grid.modes, state.w.coef, state.q.coef):
        if m * factor in order and (cw != 0 or cq != 0):
            coef_w[order[m * factor]] = lam**-2 * cw
            coef_q[order[m * factor]] = lam**-3 * cq
    return WaveState(state.t / lam, Field(grid, coef_w), Field(grid, coef_q))


def test_scaling_law_norm_transformations(grid):
    lam = 2.0
    st = packet_data(grid, 1e-3, velocity=1.4, width=16.0)
    scaled = _rescale_state(st, lam)
    rec = control_norms(st)
    rec_s = control_norms(scaled)
    assert rec_s.a0 == pytest.approx(rec.a0, rel=0.02)  # scale-invariant norm
    copies = lam  # sqrt of the lam^2 periodized copies in the L2 integrals
    for s in (0.0, 0.25):
        expected = lam ** (2 * s - 1.0) * copies
        assert pair_sobolev((scaled.wa, scaled.r), s) == pytest.approx(
            expected * pair_sobolev((st.wa, st.r), s), rel=0.02
        )