import math
from functools import cached_property

import numpy as np
import pytest

from holoww import normalform, paradiff
from holoww.errors import InconsistentTimes
from holoww.grid import Field, GridSpec, frac_deriv, pair_sobolev, project_neg
from holoww.lp import x_sup_norm, x_zero_norm
from holoww.dynamics import (
    WaveState,
    _classical_step,
    packet_data,
    r_rate,
    rhs_full,
    scaling_pair,
)
from holoww.normalform import (
    NormalFormState,
    Pi,
    T,
    TERMS,
    _d,
    _tr,
    classical_nf,
    classical_nf_rate,
    cubic_sources,
    evaluate_terms,
    flow_residual_analytic,
    flow_residual_centered,
    nf_rate,
    para_nf,
    residual_from_rate,
    scaling_fields,
)

from conftest import holo_field, transform_points


def fresh(nf, cls=NormalFormState):
    """A state on copies of the fields of `nf`: no operand or piece formed."""
    return cls(nf.t, *(Field(nf.wt.grid, u.coef.copy()) for u in (nf.wt, nf.qt, nf.wt_a, nf.qt_a)))


def small_state(grid, eps, seed=None):
    if seed is None:
        return packet_data(grid, eps, velocity=1.4, width=8.0)
    wa = holo_field(grid, seed=seed, center=0.6, sigma=0.2, amplitude=eps)
    w = project_neg(wa.antideriv())
    return WaveState(0.0, w, project_neg(frac_deriv(w, -0.5)))


# classical normal form --------------------------------------------------------

def test_classical_nf_zero(grid):
    z = Field.zero(grid)
    wt, qt = classical_nf(WaveState(0.0, z, z))
    assert wt.l2() == 0.0 and qt.l2() == 0.0


def test_classical_nf_correction_is_quadratic(grid):
    sizes = []
    for eps in (1e-3, 5e-4):
        st = small_state(grid, eps)
        wt, _ = classical_nf(st)
        sizes.append((wt - st.w).l2())
    assert 3.5 <= sizes[0] / sizes[1] <= 4.5


def test_classical_nf_sources_are_cubic(grid):
    sizes = []
    for eps in (1e-3, 5e-4):
        st = small_state(grid, eps)
        wt, qt = classical_nf(st)
        dwt, dqt = classical_nf_rate(st, *rhs_full(st))
        sizes.append(math.sqrt((dwt + qt.deriv()).l2() ** 2 + (dqt - 1j * wt).l2() ** 2))
    assert 7.0 <= sizes[0] / sizes[1] <= 9.0


# paradifferential normal form --------------------------------------------------

def test_para_nf_zero(grid):
    z = Field.zero(grid)
    nf = para_nf(WaveState(0.0, z, z))
    assert nf.wt.l2() == 0.0 and nf.qt.l2() == 0.0


def test_para_nf_defining_identity(grid):
    # Wt = W - T_{W_a}W - Pi(W_a, 2Re W) and Qt = Q - T_R W - Pi(R, 2Re W),
    # each paraproduct and balanced product formed on its own
    st = small_state(grid, 1e-2, seed=50)
    nf = para_nf(st)
    w2 = st.w.two_re()
    resid = nf.wt - st.w + T(st.wa, st.w) + Pi(st.wa, w2)
    assert resid.l2() < 1e-13 * max(st.w.l2(), 1e-30)
    resid = nf.qt - st.q + T(st.r, st.w) + Pi(st.r, w2)
    assert resid.l2() < 1e-13 * max(st.q.l2(), 1e-30)


@pytest.mark.parametrize("seed", [50, 51, 52])
def test_nf_rate_textbook_form(grid, seed):
    # the rate of each correction, one factor differentiated at a time with
    # dW_a = dW' and dR = r_rate:  dWt = dW - T_{dW_a}W - T_{W_a}dW
    # - Pi(dW_a, 2Re W) - Pi(W_a, 2Re dW), and dQt alike with R, dR
    st = small_state(grid, 1e-2, seed=seed)
    dw, dq = rhs_full(st)
    w2, dw2 = st.w.two_re(), dw.two_re()
    for got, d, a, da in zip(nf_rate(st), (dw, dq), (st.wa, st.r),
                             (dw.deriv(), r_rate(st, dw, dq))):
        want = d - T(da, st.w) - T(a, dw) - Pi(da, w2) - Pi(a, dw2)
        assert (got - project_neg(want)).l2() < 1e-13 * d.l2()


def test_para_nf_derivative_difference_scales_quadratically(grid):
    sizes = []
    for eps in (1e-3, 5e-4):
        st = small_state(grid, eps)
        nf = para_nf(st)
        dwa, dr = nf.wt_a - st.wa, nf.qt_a - st.r
        sizes.append(x_sup_norm(dwa, dr) + x_zero_norm(dwa, dr))
    assert 3.5 <= sizes[0] / sizes[1] <= 4.5


def test_sobolev_norm_equivalence_at_small_amplitude(grid):
    # |(Wt_a, Qt_a)| / |(bW, R)| = 1 + O(eps) with a stable constant
    sigma = 3.0
    cs = []
    for eps in (1e-3, 5e-4):
        st = small_state(grid, eps)
        nf = para_nf(st)
        num = pair_sobolev((nf.wt_a, nf.qt_a), sigma - 1.0)
        den = pair_sobolev((st.wa, st.r), sigma - 1.0)
        cs.append(abs(num / den - 1.0) / eps)
    assert cs[0] <= 2.0 * cs[1] and cs[1] <= 2.0 * cs[0]


# cubic source table ------------------------------------------------------------

def test_cubic_sources_zero(grid):
    z = Field.zero(grid)
    nf = para_nf(WaveState(0.0, z, z))
    g3, k3 = cubic_sources(nf)
    assert g3.l2() == 0.0 and k3.l2() == 0.0


def test_terms_are_trilinear(grid):
    st = small_state(grid, 1e-2, seed=51)
    nf = para_nf(st)
    base = evaluate_terms(nf)
    lam = 1.5
    scaled = evaluate_terms(
        NormalFormState(nf.t, lam * nf.wt, lam * nf.qt, lam * nf.wt_a, lam * nf.qt_a)
    )
    scale = lam**3 * max(base[t.tid].l2() for t in TERMS)
    for t in TERMS:
        diff = (scaled[t.tid] - lam**3 * base[t.tid]).l2()
        assert diff < 1e-12 * scale, t.tid


SHARED = {name for name, attr in vars(NormalFormState).items()
          if isinstance(attr, cached_property)}


@pytest.fixture(scope="module")
def desk_nf():
    return para_nf(packet_data(GridSpec(), 3e-2, velocity=1.4, width=8.0))


def test_table_transform_budget(monkeypatch, desk_nf):
    # each shared operand is formed once, conjugates and real parts make no
    # forward transform, every field keeps the sub-grid transforms of its
    # paraproduct pieces, products read each block half within reach of the
    # dealias cut only, Pi sums its two paraproducts before transforming, and
    # each T[a]b + Pi(a, b) is formed as P[a b] - T[b]a: one table on the desk
    # grid transforms about 139n points (142n forming T[a]b and subtracting it
    # again, 175n with the whole halves and a transform per paraproduct, 252n
    # with a transform per conjugate or real part as well, and those and the
    # products formed per atom)
    nf = fresh(desk_nf)
    points = transform_points(monkeypatch)
    evaluate_terms(nf)
    assert sum(points) <= 140 * nf.wt.grid.n


def test_paired_table_transform_budget(monkeypatch, desk_nf):
    # a paired table transforms no outer product forward: a T or Pi is paired
    # with D_h on each sub-grid, and P[a b] on the grid values, so one table
    # paired with two fresh dual rows (their values and sub-grid rows
    # included) transforms about 87n points in 573 calls, against 139n in
    # 966 calls for the table of fields
    nf = fresh(desk_nf)
    points = transform_points(monkeypatch)
    evaluate_terms(nf, {"g": paradiff.dual(nf.wt), "k": paradiff.dual(nf.qt)})
    assert sum(points) <= 90 * nf.wt.grid.n


def test_para_nf_and_nf_rate_transform_budget(monkeypatch):
    # each correction T_a W + Pi(a, 2Re W) is formed as P[a 2Re W] - T_{2Re W}a
    # (`_t_pi`), one paraproduct sum where T_a W and Pi(a, 2Re W) formed apart
    # take three: on the desk grid para_nf transforms about 9.0n points and
    # nf_rate, rhs_full and r_rate included, about 29.1n (15.1n and 41.2n
    # with three sums per correction)
    st0 = packet_data(GridSpec(), 3e-2, velocity=1.4, width=8.0)
    n = st0.grid.n
    for fn, budget in ((para_nf, 10), (nf_rate, 30)):
        st = WaveState(st0.t, st0.w, st0.q)
        st.wa  # the n-point fields
        points = transform_points(monkeypatch)
        fn(st)
        monkeypatch.undo()
        assert sum(points) <= budget * n, fn.__name__


def test_atoms_equal_their_build_on_a_fresh_state(desk_nf):
    # shared operands, the order of evaluation and the release change no bit
    # of any atom, and no shared operand outlives the table, not even one
    # formed before it
    nf = fresh(desk_nf)
    nf.f2  # formed before the table
    values = evaluate_terms(nf)
    assert not SHARED & set(vars(nf))
    for t in TERMS:
        assert np.array_equal(values[t.tid].coef, t.build(fresh(desk_nf)).coef), t.tid
    assert list(values) == [t.tid for t in TERMS]
    assert sorted(t.tid for t in normalform._ORDER) == sorted(values)


def test_declared_reads_are_the_traced_ones(desk_nf):
    # built on a state with nothing formed, each atom reads exactly the shared
    # operands its `reads` names, directly or through another shared operand,
    # and every shared operand has a reader
    seen = []

    class Traced(NormalFormState):
        def __getattribute__(self, name):
            seen.append(name)
            return super().__getattribute__(name)

    for t in TERMS:
        seen.clear()
        t.build(fresh(desk_nf, Traced))
        assert SHARED.intersection(seen) == set(t.reads), t.tid
    assert set().union(*(t.reads for t in TERMS)) == SHARED


def test_table_forms_each_t_plus_pi_once(monkeypatch, desk_nf):
    # Pi(a, b) is P[a b] - T[a]b - T[b]a, so every T[a]b + Pi(a, b) of the
    # table is formed as P[a b] - T[b]a (and T[a]c + Pi(a, 2Re c) as that of
    # (a, 2Re c)): the table makes 64 paraproducts (a Pi that forms T[a]b and
    # T[b]a as one sum counts two), and each atom that reads such a sum matches
    # the spelling that forms T[a]b and subtracts it again to roundoff
    nf, unformed = fresh(desk_nf), fresh(desk_nf)
    pairs = []

    def counted(*args, _fn=paradiff._para):
        pairs.extend(args)
        return _fn(*args)
    monkeypatch.setattr(paradiff, "_para", counted)
    values = evaluate_terms(nf)
    assert len(pairs) == 64
    monkeypatch.undo()

    def t_pi(a, b, c=None):  # T[a]b + Pi(a, c), c = b unless given
        return T(a, b) + Pi(a, b if c is None else c)
    wt, wa, qa = unformed.wt, unformed.wt_a, unformed.qt_a
    d_qw, d_qrw = _d(t_pi(qa, wt)), _d(t_pi(qa, wt, _tr(wt)))
    spelled = {
        "k1.3": T(qa, t_pi(wa, qa)),
        "g3.1": T(_tr(_d(t_pi(wa, wt))), qa),
        "g3.5": T(_tr(wa), d_qrw),
        "g3.6": T(_tr(qa * wa - d_qw), wa),
        "g3.8": -1.0 * T(_tr(qa), _d(t_pi(wa, wt, _tr(wt)))),
        "k3.1": -1.0 * T(_tr(d_qw), qa),
        "k3.3": -1.0 * T(_tr(qa), d_qrw),
    }
    for tid, u in spelled.items():
        assert (values[tid] - u).l2() <= 1e-14 * values[tid].l2(), tid


def test_atoms_from_a_warm_state_match_a_fresh_one(grid):
    nf = para_nf(small_state(grid, 3e-2))
    evaluate_terms(nf)  # forms the pieces of the state's fields
    warm = evaluate_terms(nf)
    unformed = evaluate_terms(fresh(nf))
    for t in TERMS:
        assert np.array_equal(warm[t.tid].coef, unformed[t.tid].coef), t.tid


def test_flux_is_formed_on_first_read(grid):
    # only the cubic table reads F2: a normal form or a flow residual forms none
    st = small_state(grid, 3e-2)
    nf = para_nf(st)
    assert "f2" not in vars(nf)
    assert "f2" not in vars(flow_residual_analytic(st)[0])
    qa, wa = nf.qt_a, nf.wt_a
    assert np.array_equal(nf.f2.coef, project_neg(qa.conj() * wa - qa * wa.conj()).coef)
    assert "f2" in vars(nf)


def direct_groups(nf):
    """The groups g1..g3, k1..k3 transcribed whole, independent of the atom table."""
    wt, wa, qa, f2 = nf.wt, nf.wt_a, nf.qt_a, nf.f2
    g1 = T(wa, qa * wa) + T(_d(qa * wa), wt) + Pi(wa, _tr(qa * wa)) + Pi(_d(qa * wa), _tr(wt))
    g2 = (
        -1.0 * (wa * f2)
        + T(_d(f2), wt)
        + Pi(_d(f2), _tr(wt))
        + Pi(f2, wa)
        + Pi(wa, f2.conj())
        - Pi(wa.conj() * wa.conj(), qa)
        + Pi(qa.conj(), wa * wa)
        - T(wa.conj() * wa.conj(), qa)
        - T(wa.conj(), f2)
        + T(qa.conj(), wa * wa)
    )
    g3 = (
        T(_tr(_d(T(wa, wt) + Pi(wa, _tr(wt)))), qa)
        + T(_tr(wa), -1.0 * (qa * wa) + f2)
        + T(_tr(wa), _d(T(qa, wt) + Pi(qa, _tr(wt))))
        + T(_tr(qa * wa - _d(T(qa, wt) + Pi(qa, _tr(wt)))), wa)
        - T(_tr(qa), _d(T(wa, wt) + Pi(wa, _tr(wt))))
    )
    half_sq = 0.5 * (qa * qa) + project_neg(qa * qa.conj())
    k1 = (
        T(_d(half_sq), wt)
        + T(qa, T(wa, qa) + Pi(wa, qa))
        + Pi(_d(half_sq), _tr(wt))
        + Pi(qa, _tr(qa * wa))
        - Pi(wa * qa, qa)
        + Pi(qa, f2.conj())
        - T(qa * wa, qa)
    )
    k2 = 1j * T(wa * wa, wt) + 1j * Pi(wa * wa, _tr(wt)) - T(f2, qa)
    k3 = (
        -1.0 * T(_tr(_d(T(qa, wt) + Pi(qa, _tr(wt)))), qa)
        - T(_tr(qa), _d(T(qa, wt) + Pi(qa, _tr(wt))))
        + T(_tr(qa * wa), qa)
        + T(qa.conj(), qa * wa)
        + T(qa, T(qa, wa))
    )
    return g1, g2, g3, k1, k2, k3


def cubic_sources_direct(nf):
    g1, g2, g3, k1, k2, k3 = direct_groups(nf)
    return g1 + g2 + g3, k1 + k2 + k3


def test_atom_table_matches_direct_transcription(grid):
    st = small_state(grid, 3e-2)
    nf = para_nf(st)
    g3, k3 = cubic_sources(nf)
    g3d, k3d = cubic_sources_direct(nf)
    assert (g3 - g3d).l2() < 1e-13 * max(g3.l2(), 1e-30)
    assert (k3 - k3d).l2() < 1e-13 * max(k3.l2(), 1e-30)


def test_class_groups_partition_the_sources(grid):
    # the class labels of `TERMS` split each side into the same atoms as G3, K3
    st = small_state(grid, 3e-2)
    nf = para_nf(st)
    g3, k3 = cubic_sources(nf)
    values = evaluate_terms(nf)
    classes = {(side, c): sum((values[t.tid] for t in TERMS
                               if t.group.startswith(side) and t.klass == c), Field.zero(grid))
               for side in ("g", "k") for c in ("resonant", "nonresonant", "null")}
    gsum = classes[("g", "resonant")] + classes[("g", "nonresonant")] + classes[("g", "null")]
    ksum = classes[("k", "resonant")] + classes[("k", "nonresonant")] + classes[("k", "null")]
    assert (gsum - g3).l2() < 1e-14 * max(g3.l2(), 1e-30)
    assert (ksum - k3).l2() < 1e-14 * max(k3.l2(), 1e-30)
    assert classes[("k", "resonant")].l2() == 0.0  # no resonant K-side terms


def test_classification_examples():
    terms = {t.tid: (t.klass, t.formula) for t in TERMS}
    assert len(terms) == len(TERMS) == 41
    assert terms["g2.7"] == ("resonant", "Pi(conj Qt', Wt'^2)")
    assert terms["g1.5"] == ("resonant", "Pi((Qt' Wt')', conj Wt)")
    assert terms["k2.1"] == ("nonresonant", "i T[Wt'^2] Wt")
    assert terms["g2.1"] == ("null", "-Wt' F2")
    assert terms["k2.3"] == ("null", "-T[F2] Qt'")


def test_quartic_remainder_scaling(grid):
    sizes = []
    for eps in (1e-3, 5e-4):
        st = small_state(grid, eps)
        nf, g, k = flow_residual_analytic(st)
        g3, k3 = cubic_sources(nf)
        sizes.append(math.sqrt((g - g3).l2() ** 2 + (k - k3).l2() ** 2))
    assert 13.0 <= sizes[0] / sizes[1] <= 19.0


# measured flow residual ---------------------------------------------------------

def test_flow_residual_is_cubic(grid):
    sizes = []
    for eps in (1e-3, 5e-4):
        st = small_state(grid, eps)
        _, g, k = flow_residual_analytic(st)
        sizes.append(math.sqrt(g.l2() ** 2 + k.l2() ** 2))
    assert 7.0 <= sizes[0] / sizes[1] <= 9.0


def test_linear_rate_leaves_only_paraproduct_terms(grid):
    # feeding the linear rates into the residual isolates the T-terms exactly
    from holoww.paradiff import para

    st = small_state(grid, 1e-2, seed=52)
    nf = para_nf(st)
    dwt = -1.0 * nf.qt_a
    dqt = 1j * nf.wt
    g, k = residual_from_rate(nf, dwt, dqt)
    wa, qa = nf.wt_a, nf.qt_a
    g_expect = project_neg(-1.0 * para(wa.two_re(), qa) + para(qa.two_re(), wa))
    k_expect = project_neg(para(qa.two_re(), qa))
    assert (g - g_expect).l2() < 1e-14 * max(g_expect.l2(), 1e-30)
    assert (k - k_expect).l2() < 1e-14 * max(k_expect.l2(), 1e-30)


def test_centered_vs_analytic_residual_second_order(grid):
    st = small_state(grid, 1e-2)

    def mismatch(dt):
        mid = _classical_step(st, dt)
        nxt = _classical_step(mid, dt)
        _, g, k = flow_residual_centered(st, mid, nxt)
        _, g_an, k_an = flow_residual_analytic(mid)
        return math.sqrt((g - g_an).l2() ** 2 + (k - k_an).l2() ** 2)

    order = math.log2(mismatch(0.2) / mismatch(0.1))
    assert 1.8 <= order <= 2.2


def test_inconsistent_times_raises(grid):
    st = small_state(grid, 1e-2)
    s1 = _classical_step(st, 0.1)
    s2 = _classical_step(s1, 0.2)
    with pytest.raises(InconsistentTimes):
        flow_residual_centered(st, s1, s2)


# scaling fields -----------------------------------------------------------------

def test_scaling_fields_zero_state(grid):
    z = Field.zero(grid)
    st = WaveState(1.0, z, z)
    frak_w, frak_r = scaling_pair(st)
    assert frak_w.l2() == 0.0 and frak_r.l2() == 0.0


def test_scaling_consistency_defect_is_negligible(grid):
    st = WaveState(2.0, *_shift_time(grid))
    tilde_w, tilde_q, ts_w, ts_q = scaling_fields(st)
    scale = max(tilde_w.l2(), tilde_q.l2(), 1e-30)
    assert ts_w.l2() < 1e-12 * scale
    assert ts_q.l2() < 1e-12 * scale


def _shift_time(grid):
    st = packet_data(grid, 1e-3, velocity=1.4, width=8.0)
    return st.w, st.q


def test_weighted_pair_at_time_zero_matches_moment_norm(grid):
    # at t = 0 the generator pair reduces to (2 a d_a - 2)W-type expressions,
    # comparable to the first-moment norm within a factor of two
    st = packet_data(grid, 1e-3, velocity=1.4, width=12.0)
    lhs = pair_sobolev(scaling_pair(st), 0.25)
    rhs = 2.0 * pair_sobolev(
        (st.wa.alpha_times(), Field.from_values(grid, grid.alpha * st.r.values)), 0.25
    )
    assert 0.5 <= lhs / rhs <= 2.0
