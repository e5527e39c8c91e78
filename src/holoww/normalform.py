"""Normal-form transforms of the water-wave pair and their cubic sources.

The classical quadratic correction

    Wt = W - P[2Re(W) W_a],      Qt = Q - P[2Re(W) R]

removes quadratic interactions entirely, while the paradifferential variant

    Wt = W - T_{W_a} W - Pi(W_a, 2Re W),
    Qt = Q - T_R W  - Pi(R,  2Re W)

removes only the balanced ones (`para_nf`, each correction formed as
T_a W + Pi(a, 2Re W) = P[a 2Re W] - T_{2Re W} a by `_t_pi`), leaving
paradifferential quadratic terms on the left of the evolved system

    d_t Wt + d_a Qt - T_{2Re Wt_a} Qt_a + T_{2Re Qt_a} Wt_a = G,
    d_t Qt - i Wt + T_{2Re Qt_a} Qt_a = K,

where (G, K) are cubic and higher.  The explicit cubic parts are transcribed
below in `TERMS`, one constructor per term, at the granularity where every
term carries a definite interaction class: `resonant` (one conjugation and a
nonvanishing principal symbol), `nonresonant` (zero or two conjugations), or
`null` (one conjugation, vanishing symbol).  Both the derivation grouping
(g1..g3, k1..k3) and the class grouping are unions of the same atoms; the
tests cross-check the table against independent whole-group transcriptions
to machine precision.  An atom is data, scale * op(a, b) with op one of T, Pi
and the dealiased product, read twice: `Term.build` forms it, and `Term.pair`
pairs it with a dual row through `paradiff`'s pairings without forming it.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import InconsistentTimes
from .grid import Field, project_neg
from .paradiff import balanced, pair_balanced, pair_para, pair_product, para
from .dynamics import r_rate, rhs_full
from .packets import build_packet, cubic_coefficient, gamma_rate, gamma_value, pairing_fields


# transforms -----------------------------------------------------------------

def classical_nf(state):
    """Quadratic correction removing all quadratic interactions."""
    w2re = state.w.two_re()
    wt = state.w - project_neg(w2re * state.wa)
    qt = state.q - project_neg(w2re * state.r)
    return project_neg(wt), project_neg(qt)


def classical_nf_rate(state, dw, dq):
    """Rates of the classical pair (Wt, Qt) under the rates (dw, dq) of (W, Q)."""
    w2, dw2 = state.w.two_re(), dw.two_re()
    dwt = project_neg(dw - project_neg(dw2 * state.wa) - project_neg(w2 * dw.deriv()))
    dr = r_rate(state, dw, dq)
    dqt = project_neg(dq - project_neg(dw2 * state.r) - project_neg(w2 * dr))
    return dwt, dqt


@dataclass
class NormalFormState:
    """Normal-form pair (Wt, Qt) at time t with the derivative fields the
    cubic terms read.

    `para_nf` passes the spectral derivatives of Wt and Qt; a test profile
    may pass independently supplied ones, as the monochrome ansatz does.

    The operands below are shared: each is read by several atoms of `TERMS`
    (or by another shared operand), formed once, on first read, and kept in
    the instance dictionary with its values and sub-grid pieces (`paradiff`)
    until `evaluate_terms` drops it after its last reader.  The fields are
    not reassigned after construction.
    """

    t: float
    wt: object
    qt: object
    wt_a: object
    qt_a: object

    cwt = cached_property(lambda v: v.wt.conj())                    # conj Wt
    cwa = cached_property(lambda v: v.wt_a.conj())                  # conj Wt'
    cqa = cached_property(lambda v: v.qt_a.conj())                  # conj Qt'
    re_wt = cached_property(lambda v: v.wt.two_re())                # 2Re Wt
    re_wa = cached_property(lambda v: v.wt_a.two_re())              # 2Re Wt'
    re_qa = cached_property(lambda v: v.qt_a.two_re())              # 2Re Qt'
    wa2 = cached_property(lambda v: v.wt_a * v.wt_a)                # Wt'^2
    cwa2 = cached_property(lambda v: v.cwa * v.cwa)                 # conj(Wt')^2
    qa_wa = cached_property(lambda v: v.qt_a * v.wt_a)              # Qt' Wt'
    re_qa_wa = cached_property(lambda v: v.qa_wa.two_re())          # 2Re(Qt' Wt')
    d_qa_wa = cached_property(lambda v: v.qa_wa.deriv())            # (Qt' Wt')'
    qa_dqa = cached_property(lambda v: v.qt_a * v.qt_a.deriv())     # Qt' Qt''
    d_abs_qa = cached_property(lambda v: project_neg(v.qt_a * v.cqa).deriv())  # P[|Qt'|^2]'
    # F2 = P[conj(Qt') Wt' - Qt' conj(Wt')], its conjugate and derivative
    f2 = cached_property(lambda v: project_neg(v.cqa * v.wt_a - v.qt_a * v.cwa))
    cf2 = cached_property(lambda v: v.f2.conj())
    d_f2 = cached_property(lambda v: v.f2.deriv())
    # (T[Qt']Wt + Pi(Qt', Wt))', (T[Qt']Wt + Pi(Qt', 2Re Wt))', 2Re(Pi(Qt', conj Wt))'
    d_qa_wt = cached_property(lambda v: _t_pi(v.qt_a, v.wt).deriv())
    d_qa_re_wt = cached_property(lambda v: _t_pi(v.qt_a, v.re_wt).deriv())
    re_d_pi_qa_cwt = cached_property(lambda v: balanced(v.qt_a, v.cwt).deriv().two_re())


def para_nf(state):
    """Partial (paradifferential) normal form of a state, one `_t_pi` per correction."""
    w2 = state.w.two_re()
    wt = project_neg(state.w - _t_pi(state.wa, w2))
    qt = project_neg(state.q - _t_pi(state.r, w2))
    return NormalFormState(state.t, wt, qt, wt.deriv(), qt.deriv())


# the cubic source table -----------------------------------------------------

_SHARED = {name: attr.func for name, attr in vars(NormalFormState).items()
           if isinstance(attr, cached_property)}  # shared operand -> its function


def _reads(fn):
    """The shared operands `fn` loads, each followed by those its function reads."""
    return tuple(dict.fromkeys(r for name in fn.__code__.co_names if name in _SHARED
                               for r in (name, *_reads(_SHARED[name]))))


@dataclass(frozen=True)
class Term:
    """One atom, scale * op(a, b) with op `T`, `Pi` or the dealiased product
    `*`: `operands(v)` gives (a, b), reading each shared operand of
    `NormalFormState` as `v.<name>` in its own code, where `reads` finds it."""

    tid: str
    klass: str          # resonant | nonresonant | null
    formula: str
    scale: complex
    op: str             # T | Pi | *
    operands: object

    group = property(lambda t: t.tid.split(".")[0])  # g1, g2, g3, k1, k2, k3
    reads = property(lambda t: _reads(t.operands))   # directly or through another operand

    def build(self, v):
        a, b = self.operands(v)
        return self.scale * _BUILD[self.op](a, b)

    def pair(self, v, d):
        a, b = self.operands(v)
        return self.scale * _PAIR[self.op](a, b, d)


T, Pi, _d, _tr = para, balanced, Field.deriv, Field.two_re  # the table's shorthands
_BUILD = {"T": para, "Pi": balanced, "*": Field.__mul__}  # each op, formed and paired
_PAIR = {"T": pair_para, "Pi": pair_balanced, "*": pair_product}


def _t_pi(a, b):
    """T[a]b + Pi(a, b), which is P[a b] - T[b]a by Pi's definition.  For
    holomorphic c, _t_pi(a, 2Re c) is T[a]c + Pi(a, 2Re c): conj c lies at
    k > 0, so T[a](2Re c) = T[a]c, bit for bit on a dealiased grid, where no
    k > 0 half of a product reaches a kept k < 0 mode."""
    return project_neg(a * b) - T(b, a)


TERMS = (
    # --- sources of the first equation, from the time derivative of Wt
    Term("g1.1", "nonresonant", "T[Wt'](Qt' Wt')", 1, "T", lambda v: (v.wt_a, v.qa_wa)),
    Term("g1.2", "nonresonant", "T[(Qt' Wt')'] Wt", 1, "T", lambda v: (v.d_qa_wa, v.wt)),
    Term("g1.3", "nonresonant", "Pi(Wt', 2Re[Qt' Wt'])", 1, "Pi", lambda v: (v.wt_a, v.re_qa_wa)),
    Term("g1.4", "nonresonant", "Pi((Qt' Wt')', Wt)", 1, "Pi", lambda v: (v.d_qa_wa, v.wt)),
    Term("g1.5", "resonant", "Pi((Qt' Wt')', conj Wt)", 1, "Pi", lambda v: (v.d_qa_wa, v.cwt)),
    # --- cancellations against d_a Qt
    Term("g2.1", "null", "-Wt' F2", -1.0, "*", lambda v: (v.wt_a, v.f2)),
    Term("g2.2", "null", "T[F2'] Wt", 1, "T", lambda v: (v.d_f2, v.wt)),
    Term("g2.3", "null", "Pi(F2', 2Re Wt)", 1, "Pi", lambda v: (v.d_f2, v.re_wt)),
    Term("g2.4", "null", "Pi(F2, Wt')", 1, "Pi", lambda v: (v.f2, v.wt_a)),
    Term("g2.5", "null", "Pi(Wt', conj F2)", 1, "Pi", lambda v: (v.wt_a, v.cf2)),
    Term("g2.6", "nonresonant", "-Pi(conj(Wt')^2, Qt')", -1.0, "Pi", lambda v: (v.cwa2, v.qt_a)),
    Term("g2.7", "resonant", "Pi(conj Qt', Wt'^2)", 1, "Pi", lambda v: (v.cqa, v.wa2)),
    Term("g2.8", "nonresonant", "-T[conj(Wt')^2] Qt'", -1.0, "T", lambda v: (v.cwa2, v.qt_a)),
    Term("g2.9", "nonresonant", "-T[conj Wt'] F2", -1.0, "T", lambda v: (v.cwa, v.f2)),
    Term("g2.10", "nonresonant", "T[conj Qt'] Wt'^2", 1, "T", lambda v: (v.cqa, v.wa2)),
    # --- rewriting the quadratic potentials in normal-form variables
    Term("g3.1", "nonresonant", "T[2Re(T[Wt']Wt + Pi(Wt', Wt))'] Qt'", 1, "T",
         lambda v: (_tr(_d(_t_pi(v.wt_a, v.wt))), v.qt_a)),
    Term("g3.2", "null", "T[2Re(Pi(Wt', conj Wt))'] Qt'", 1, "T",
         lambda v: (_tr(_d(Pi(v.wt_a, v.cwt))), v.qt_a)),
    Term("g3.3", "nonresonant", "-T[2Re Wt'](Qt' Wt')", -1.0, "T", lambda v: (v.re_wa, v.qa_wa)),
    Term("g3.4", "null", "T[2Re Wt'] F2", 1, "T", lambda v: (v.re_wa, v.f2)),
    Term("g3.5", "nonresonant", "T[2Re Wt'](T[Qt']Wt + Pi(Qt', 2Re Wt))'", 1, "T",
         lambda v: (v.re_wa, v.d_qa_re_wt)),
    Term("g3.6", "nonresonant", "T[2Re(Qt' Wt' - (T[Qt']Wt + Pi(Qt', Wt))')] Wt'", 1, "T",
         lambda v: (_tr(v.qa_wa - v.d_qa_wt), v.wt_a)),
    Term("g3.7", "null", "-T[2Re(Pi(Qt', conj Wt)')] Wt'", -1.0, "T",
         lambda v: (v.re_d_pi_qa_cwt, v.wt_a)),
    Term("g3.8", "nonresonant", "-T[2Re Qt'](T[Wt']Wt + Pi(Wt', 2Re Wt))'", -1.0, "T",
         lambda v: (v.re_qa, _d(_t_pi(v.wt_a, v.re_wt)))),
    # --- sources of the second equation
    Term("k1.1", "nonresonant", "T[Qt' Qt''] Wt", 1, "T", lambda v: (v.qa_dqa, v.wt)),
    Term("k1.2", "null", "T[P[|Qt'|^2]'] Wt", 1, "T", lambda v: (v.d_abs_qa, v.wt)),
    Term("k1.3", "nonresonant", "T[Qt'](T[Wt']Qt' + Pi(Wt', Qt'))", 1, "T",
         lambda v: (v.qt_a, _t_pi(v.wt_a, v.qt_a))),
    Term("k1.4", "null", "Pi(Qt' Qt'', 2Re Wt)", 1, "Pi", lambda v: (v.qa_dqa, v.re_wt)),
    Term("k1.5", "null", "Pi(P[|Qt'|^2]', 2Re Wt)", 1, "Pi", lambda v: (v.d_abs_qa, v.re_wt)),
    Term("k1.6", "nonresonant", "Pi(Qt', 2Re[Qt' Wt'])", 1, "Pi", lambda v: (v.qt_a, v.re_qa_wa)),
    Term("k1.7", "nonresonant", "-Pi(Wt' Qt', Qt')", -1.0, "Pi", lambda v: (v.qa_wa, v.qt_a)),
    Term("k1.8", "null", "Pi(Qt', conj F2)", 1, "Pi", lambda v: (v.qt_a, v.cf2)),
    Term("k1.9", "nonresonant", "-T[Qt' Wt'] Qt'", -1.0, "T", lambda v: (v.qa_wa, v.qt_a)),
    Term("k2.1", "nonresonant", "i T[Wt'^2] Wt", 1j, "T", lambda v: (v.wa2, v.wt)),
    Term("k2.2", "null", "i Pi(Wt'^2, 2Re Wt)", 1j, "Pi", lambda v: (v.wa2, v.re_wt)),
    Term("k2.3", "null", "-T[F2] Qt'", -1.0, "T", lambda v: (v.f2, v.qt_a)),
    Term("k3.1", "nonresonant", "-T[2Re(T[Qt']Wt + Pi(Qt', Wt))'] Qt'", -1.0, "T",
         lambda v: (_tr(v.d_qa_wt), v.qt_a)),
    Term("k3.2", "null", "-T[2Re(Pi(Qt', conj Wt))'] Qt'", -1.0, "T",
         lambda v: (v.re_d_pi_qa_cwt, v.qt_a)),
    Term("k3.3", "nonresonant", "-T[2Re Qt'](T[Qt']Wt + Pi(Qt', 2Re Wt))'", -1.0, "T",
         lambda v: (v.re_qa, v.d_qa_re_wt)),
    Term("k3.4", "nonresonant", "T[2Re(Qt' Wt')] Qt'", 1, "T", lambda v: (v.re_qa_wa, v.qt_a)),
    Term("k3.5", "nonresonant", "T[conj Qt'](Qt' Wt')", 1, "T", lambda v: (v.cqa, v.qa_wa)),
    Term("k3.6", "nonresonant", "T[Qt'] T[Qt'] Wt'", 1, "T", lambda v: (v.qt_a, T(v.qt_a, v.wt_a))),
)


# the atoms in evaluation order, which keeps the readers of each shared
# operand close together, so that few operands are held at once
_ORDER = tuple(t for tid in """
    k1.3 k3.6 g2.8 g2.6 k2.3 k1.8 g2.5 g2.9 g2.4 g2.1 g2.2 g2.3 g3.4 k1.5 k1.2
    k1.1 k1.4 g2.7 g2.10 k2.1 k2.2 k3.5 g3.3 g3.5 k3.3 g3.8 g3.1 g3.6 k3.1 k1.7
    k1.6 g1.3 k3.4 g1.1 k1.9 g1.2 g1.4 g1.5 g3.2 g3.7 k3.2
    """.split() for t in TERMS if t.tid == tid)
_LAST = {name: t.tid for t in _ORDER for name in t.reads}  # last reader of each shared operand
_DROPS = {t.tid: [name for name in t.reads if _LAST[name] == t.tid] for t in _ORDER}


def evaluate_terms(nf, duals=None):
    """Every term of the table on a `NormalFormState`, keyed by id in table
    order; given a dual row per side, "g" and "k", its pairing (`Term.pair`).
    Atoms go in `_ORDER`, each shared operand dropped after its last reader."""
    out = {}
    for t in _ORDER:
        out[t.tid] = t.build(nf) if duals is None else t.pair(nf, duals[t.group[0]])
        for name in _DROPS[t.tid]:
            vars(nf).pop(name, None)
    return {t.tid: out[t.tid] for t in TERMS}


def cubic_sources(nf):
    """Explicit cubic sources (G3, K3): the terms of each group of `TERMS`
    summed in table order, then G3 = g1 + g2 + g3 and K3 = k1 + k2 + k3."""
    atoms, groups = evaluate_terms(nf), {}
    for t in TERMS:
        u = atoms[t.tid]
        groups[t.group] = groups[t.group] + u if t.group in groups else u
    return (groups["g1"] + groups["g2"] + groups["g3"],
            groups["k1"] + groups["k2"] + groups["k3"])


# measured flow residuals ----------------------------------------------------

def nf_rate(state):
    """Analytic rate of the normal-form pair: two `_t_pi` per bilinear correction."""
    dw, dq = rhs_full(state)
    w2, dw2 = state.w.two_re(), dw.two_re()
    dwt = project_neg(dw - _t_pi(dw.deriv(), w2) - _t_pi(state.wa, dw2))
    dqt = project_neg(dq - _t_pi(r_rate(state, dw, dq), w2) - _t_pi(state.r, dw2))
    return dwt, dqt


def gamma_samples(state, vs):
    """Rows (v, gamma, e, cubic) at each velocity v: the ray profile gamma
    of the normal-form pair, its analytic rate minus the cubic term, and the
    cubic term of the asymptotic equation."""
    nf = para_nf(state)
    wt, kqt, dwt, kdqt = pairing_fields((nf.wt, nf.qt), nf_rate(state))
    rows = []
    for v in vs:
        frame = build_packet(state.grid, state.t, v)
        gam = gamma_value(wt, kqt, frame)
        rate = gamma_rate(wt, kqt, dwt, kdqt, frame)
        cubic = cubic_coefficient(gam, state.t, v)
        rows.append((v, gam, rate - cubic, cubic))
    return rows


def residual_from_rate(nf, dwt, dqt):
    """Measured sources: move every non-source term to the left side."""
    wa, qa = nf.wt_a, nf.qt_a
    g = dwt + qa - para(_tr(wa), qa) + para(_tr(qa), wa)
    k = dqt - 1j * nf.wt + para(_tr(qa), qa)
    return project_neg(g), project_neg(k)


def flow_residual_analytic(state):
    nf = para_nf(state)
    dwt, dqt = nf_rate(state)
    g, k = residual_from_rate(nf, dwt, dqt)
    return nf, g, k


def flow_residual_centered(prev, mid, nxt):
    dt1 = mid.t - prev.t
    dt2 = nxt.t - mid.t
    if abs(dt1 - dt2) > 1e-12 * max(abs(dt1), 1e-30) or dt1 <= 0:
        raise InconsistentTimes("snapshots must be equally spaced in time")
    nf_prev = para_nf(prev)
    nf_mid = para_nf(mid)
    nf_next = para_nf(nxt)
    dwt = (0.5 / dt1) * (nf_next.wt - nf_prev.wt)
    dqt = (0.5 / dt1) * (nf_next.qt - nf_prev.qt)
    g, k = residual_from_rate(nf_mid, dwt, dqt)
    return nf_mid, g, k


# scaling vector fields -------------------------------------------------------

def scaling_fields(state):
    """The scaling field S = t d_t + 2 alpha d_alpha on the normal-form side.

    Returns the paradifferential scaling (tilde_w, tilde_q) of the normal
    form and the consistency defects S (Wt, Qt) - t (g, k) - (tilde_w,
    tilde_q), where (g, k) are the measured sources of the same rate.  t d_t
    is evaluated analytically through the flow, never by differencing
    stored snapshots.  The generator pair of (W, Q) itself is
    `dynamics.scaling_pair`.
    """
    t = state.t
    nf = para_nf(state)
    wa, qa = nf.wt_a, nf.qt_a
    tilde_w = (
        2.0 * wa.alpha_times()
        - t * qa
        + t * (para(_tr(wa), qa) - para(_tr(qa), wa))
    )
    tilde_q = 2.0 * qa.alpha_times() + 1j * t * nf.wt - t * para(_tr(qa), qa)

    dwt, dqt = nf_rate(state)
    g, k = residual_from_rate(nf, dwt, dqt)
    ts_w = t * dwt + 2.0 * wa.alpha_times() - t * g - tilde_w
    ts_q = t * dqt + 2.0 * qa.alpha_times() - t * k - tilde_q
    return tilde_w, tilde_q, ts_w, ts_q
