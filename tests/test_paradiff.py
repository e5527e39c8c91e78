import gc
import weakref

import numpy as np
import pytest

from holoww import lp
from holoww.grid import Field, GridSpec, project_neg
from holoww.lp import LPBlock, SEPARATION, block_range
from holoww.paradiff import balanced, para, trichotomy_residual
from holoww.suites import suite_identities

from conftest import (
    full_spectrum_field,
    lohi_oracle,
    smooth_field,
    transform_points,
)


def mode_field(grid, target, amp=1.0):
    """The mode nearest k = -target, so that products of such modes lie at k < 0."""
    idx = np.argmin(np.abs(grid.k + target))
    coef = np.zeros(grid.n, dtype=complex)
    coef[idx] = amp
    return Field(grid, coef), grid.k[idx]


def conv_product_oracle(a, b):
    """Brute-force O(n^2) spectral convolution, truncated to the grid band."""
    grid = a.grid
    out = np.zeros(grid.n, dtype=complex)
    order = {m: i for i, m in enumerate(grid.modes)}
    for m1, c1 in zip(grid.modes, a.coef):
        if c1 == 0:
            continue
        for m2, c2 in zip(grid.modes, b.coef):
            if c2 == 0:
                continue
            m = m1 + m2
            if m in order:
                out[order[m]] += c1 * c2
    return Field(grid, np.where(grid.dealias_mask, out, 0.0))


def test_constant_symbol(grid):
    u = smooth_field(grid, seed=30).demean()
    const = Field.from_values(grid, np.full(grid.n, 2.5 + 0.0j))
    t = para(const, u)
    assert np.max(np.abs(t.coef - 2.5 * project_neg(u).coef)) < 1e-12 * u.linf()


@pytest.mark.parametrize("n", [256, 1000])
def test_para_matches_projected_full_grid_formula(grid, n):
    # `para` sums only the halves of the blocks whose product reaches k < 0;
    # with full-spectrum inputs the top blocks alias, and the oracle at
    # separation 3 shows that the comparison can fail
    g = grid if n == grid.n else GridSpec(grid.length, n)
    a, b = full_spectrum_field(g, 54), full_spectrum_field(g, 55)
    scale = a.linf() * b.linf()
    got = para(a, b).coef
    assert np.max(np.abs(got - project_neg(lohi_oracle(a, b)).coef)) <= 1e-13 * scale
    assert np.max(np.abs(got - project_neg(lohi_oracle(a, b, separation=3)).coef)) > 1e-6 * scale


def test_para_cost_on_desk_grid(monkeypatch):
    # each half-block product is formed on the shortest fast length that
    # holds its band, from the half's modes within reach of the dealias cut:
    # `para` reads the k < 0 halves only; `balanced` sums its two
    # paraproducts before one transform per half; an operand transformed once
    # is not transformed again; the symbols are built by the first call on a
    # grid only (measured 3.02, 2.01, 2.01, 1.01 and 8.03)
    desk = GridSpec()
    seeds = iter(range(52, 100))

    def fresh():
        return full_spectrum_field(desk, next(seeds))

    symbols = []

    def symbol(self, k, _fn=LPBlock.symbol):
        symbols.append(self.m)
        return _fn(self, k)
    monkeypatch.setattr(LPBlock, "symbol", symbol)
    para(fresh(), fresh())  # builds the band table
    points = transform_points(monkeypatch)

    def cost(op, a, b):
        points.clear()
        op(a, b)
        return sum(points) / desk.n
    a, b = fresh(), fresh()
    assert cost(para, a, b) <= 3.15  # both operands new
    assert cost(para, a, fresh()) <= 2.1  # a's low pieces kept
    assert cost(para, fresh(), b) <= 2.1  # b's block halves kept
    assert cost(para, a, b) <= 1.05  # the products alone
    assert cost(balanced, fresh(), fresh()) <= 8.4  # 3n of them P[a b]
    symbols.clear()
    para(fresh(), fresh())
    assert symbols == []


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("dealias", [0.25, 2.0 / 3.0, 1.0])
def test_runs_with_one_first_mode_and_length_keep_their_own_pieces(n, dealias):
    # on 16 modes at the 2/3 rule the top block's k < 0 half is read from the
    # first mode, and on the sub-grid length, of the next block's shorter
    # run; on 64 modes without dealiasing the top k > 0 half wraps to kept
    # k < 0 modes; at dealias 1/4 the top block's k > 0 half reaches no kept
    # mode and is not read
    grid = GridSpec(16.0, n, dealias)
    a, b = full_spectrum_field(grid, 62), full_spectrum_field(grid, 63)
    scale = a.linf() * b.linf()
    t_ab, t_ba = lohi_oracle(a, b), lohi_oracle(b, a)
    for op, want in ((para, project_neg(t_ab)), (balanced, project_neg(a * b - t_ab - t_ba))):
        assert np.max(np.abs(op(a, b).coef - want.coef)) <= 1e-13 * scale, op.__name__
    halves = [half for _, pair in lp.band_table(grid) for half in pair]
    runs = {(half.read.start, len(half.read.values), half.size) for half in halves if half.neg}
    assert len([key for key in b._pieces if key[0] == "block"]) == len(runs)
    if (n, dealias) == (16, 2.0 / 3.0):
        assert len({(start, size) for start, _, size in runs}) < len(runs)
    if (n, dealias) == (64, 1.0):
        assert halves[-1].neg
    assert (halves[-1].read is None) == (dealias == 0.25)


def _copy(u):
    return Field(u.grid, u.coef.copy())


def test_kept_pieces_do_not_change_results(grid):
    # warm operands (transformed by earlier calls in either role) give the
    # results of fresh copies bit for bit
    a, b = full_spectrum_field(grid, 56), full_spectrum_field(grid, 57)
    for op in (para, balanced, para):
        got, want = op(a, b), op(_copy(a), _copy(b))
        assert np.array_equal(got.coef, want.coef), op.__name__
        got, want = op(b, a), op(_copy(b), _copy(a))
        assert np.array_equal(got.coef, want.coef), op.__name__


def test_kept_pieces_outlive_the_band_table_they_came_from():
    # a field on one grid, warmed through an equal grid's table, is read
    # after that table is collected and rebuilt: its pieces are keyed by
    # band values, so each is found again and none is stale
    spec = dict(length=80.0, n=384)  # a grid no other test keeps alive
    g1, g2 = GridSpec(**spec), GridSpec(**spec)
    a1, b = full_spectrum_field(g1, 58), full_spectrum_field(g2, 59)
    a2 = Field(g2, a1.coef.copy())
    balanced(a1, b)  # g1's table: every piece of b that a product reads kept
    kept = dict(b._pieces)
    gone = weakref.ref(g1)
    del a1, g1
    gc.collect()
    assert gone() is None and g2 not in lp._BANDS
    for op in (para, balanced):
        got, want = op(a2, b), op(_copy(a2), _copy(b))
        assert np.array_equal(got.coef, want.coef), op.__name__
        got, want = op(b, a2), op(_copy(b), _copy(a2))
        assert np.array_equal(got.coef, want.coef), op.__name__
    assert b._pieces.keys() == kept.keys()
    assert all(b._pieces[key] is piece for key, piece in kept.items())


def test_kept_pieces_die_with_their_field(grid):
    a, b = full_spectrum_field(grid, 60), full_spectrum_field(grid, 61)
    balanced(a, b)
    refs = [weakref.ref(piece) for piece in a._pieces.values()]
    assert refs and all(not r().flags.writeable for r in refs)
    del a
    gc.collect()
    assert all(r() is None for r in refs)


def test_separated_modes_pass_to_paraproduct(grid):
    # symbol at the lowest grid mode, argument in the top block: the symbol
    # passes every contributing low-pass cutoff, so T_a b is the full product
    lo, hi = block_range(grid)
    a, ka = mode_field(grid, grid.dk)
    b, _ = mode_field(grid, 2.0**hi)
    assert abs(ka) <= 2.0 ** (hi - 1 - SEPARATION)
    t = para(a, b)
    oracle = conv_product_oracle(a, b)
    assert np.any(oracle.coef != 0.0)
    assert np.max(np.abs(t.coef - oracle.coef)) < 1e-12
    assert balanced(a, b).l2() < 1e-12


def test_reversed_separation_gives_zero(grid):
    lo, hi = block_range(grid)
    a, _ = mode_field(grid, 2.0**hi)
    b, _ = mode_field(grid, grid.dk)
    assert para(a, b).l2() < 1e-12


def test_balanced_comparable_modes(grid):
    lo, hi = block_range(grid)
    m = (lo + hi) // 2
    a, _ = mode_field(grid, 2.0**m)
    b, _ = mode_field(grid, 2.0 ** (m + 1))
    pi = balanced(a, b)
    oracle = conv_product_oracle(a, b)
    assert np.any(oracle.coef != 0.0)
    assert np.max(np.abs(pi.coef - oracle.coef)) < 1e-12


def test_bilinearity(grid):
    a = smooth_field(grid, seed=33)
    b = smooth_field(grid, seed=34)
    c = smooth_field(grid, seed=35)
    lhs = para(a, b + 2.0 * c)
    rhs = para(a, b) + 2.0 * para(a, c)
    assert (lhs - rhs).l2() < 1e-12 * max(lhs.l2(), 1e-30)
    lhs2 = para(a + 2.0 * c, b)
    rhs2 = para(a, b) + 2.0 * para(c, b)
    assert (lhs2 - rhs2).l2() < 1e-12 * max(lhs2.l2(), 1e-30)


@pytest.mark.parametrize("seed", [40, 41, 42])
def test_trichotomy(grid, seed):
    a = smooth_field(grid, seed=seed)
    b = smooth_field(grid, seed=seed + 100)
    scale = (a * b).l2()
    assert trichotomy_residual(a, b) < 1e-12 * max(scale, 1e-30)


@pytest.mark.parametrize("length, n, dealias", [
    (400.0 * np.pi, 2048, 2.0 / 3.0), (64.0, 1000, 2.0 / 3.0),
    (400.0 * np.pi, 2048, 1.0), (64.0, 256, 1.0),
])
@pytest.mark.parametrize("seed", [1234, 1235, 7])
def test_balanced_is_the_sum_of_comparable_block_pairs(length, n, dealias, seed):
    # the residual compares `balanced` with the sum of comparable block pairs;
    # full-spectrum inputs reach the clamped low edge and alias at the top blocks
    g = GridSpec(length, n, dealias)
    a, b = full_spectrum_field(g, seed), full_spectrum_field(g, seed + 100)
    assert trichotomy_residual(a, b) <= 1e-14 * (a * b).l2()


def test_block_pair_oracle_sees_a_wrong_separation(monkeypatch):
    # paraproducts on a table built at separation 3, in a band cache of its
    # own so that no other test reads that table, fail the identities gate:
    # the block-pair sum keeps separation 4 (measured 2.5e-2)
    monkeypatch.setattr(lp, "SEPARATION", 3)
    monkeypatch.setattr(lp, "_BANDS", weakref.WeakKeyDictionary())
    gate = next(c for c in suite_identities(1234) if c.cid == "trichotomy-residual")
    assert not gate.passed and gate.measured > 1e-3


def test_trichotomy_zero_field(grid):
    assert trichotomy_residual(Field.zero(grid), Field.zero(grid)) == 0.0


def test_implicit_p_output_is_holomorphic(grid):
    a = smooth_field(grid, seed=42)
    b = smooth_field(grid, seed=43)
    t = para(a, b)
    assert np.all(t.coef[grid.k >= 0] == 0.0)
    pi = balanced(a, b)
    assert np.all(pi.coef[grid.k >= 0] == 0.0)
