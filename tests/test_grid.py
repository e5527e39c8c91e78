import math

import numpy as np
import pytest

from holoww.diagnostics import control_norms, weighted_energy
from holoww.dynamics import WaveState, plateau_data
from holoww.errors import GridMismatch, NegativePowerOnMean
from holoww.grid import (
    Field,
    GridSpec,
    _fft,
    frac_deriv,
    pair_sobolev,
    project_neg,
    read_field,
    write_field,
)

from conftest import smooth_field, transform_calls


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(n=15)
    with pytest.raises(ValueError):
        GridSpec(n=8)
    with pytest.raises(ValueError):
        GridSpec(dealias=0.0)
    for length in (0.0, -1.0, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="period must be finite and positive"):
            GridSpec(length=length)


def test_roundtrip_and_parseval(grid):
    u = smooth_field(grid, seed=1)
    v = Field.from_values(grid, u.values)
    assert np.max(np.abs(v.coef - u.coef)) < 1e-12 * u.linf()
    quad = math.sqrt(float(np.mean(np.abs(u.values) ** 2)) * grid.length)
    assert abs(u.l2() - quad) < 1e-12 * quad


def test_single_mode_l2_is_sqrt_length(grid):
    coef = np.zeros(grid.n, dtype=complex)
    coef[grid.modes == -3] = 1.0
    u = Field(grid, coef)
    assert abs(u.l2() - math.sqrt(grid.length)) < 1e-12
    assert abs(u.linf() - 1.0) < 1e-12


def test_grid_mismatch_raises(grid):
    other = GridSpec(length=32.0, n=64)
    with pytest.raises(GridMismatch):
        _ = smooth_field(grid) + smooth_field(other)


def test_project_neg_modewise(grid):
    coef = np.zeros(grid.n, dtype=complex)
    coef[grid.modes == -1] = 1.0
    coef[grid.modes == 0] = 2.0
    coef[grid.modes == 1] = 3.0j
    p = project_neg(Field(grid, coef))
    assert p.coef[grid.modes == -1] == 1.0
    assert np.all(p.coef[grid.k >= 0] == 0.0)


def test_project_neg_idempotent(grid):
    u = smooth_field(grid, seed=2)
    once = project_neg(u)
    twice = project_neg(once)
    assert np.max(np.abs(once.coef - twice.coef)) == 0.0


def test_project_neg_orthogonal(grid):
    u = smooth_field(grid, seed=3)
    v = smooth_field(grid, seed=4)
    pu = project_neg(u)
    rest = v - project_neg(v)
    assert abs(pu.inner(rest)) < 1e-12 * max(u.l2() * v.l2(), 1e-30)


def test_real_field_splits_into_conjugate_halves(grid):
    # against a brute-force O(n^2) DFT oracle, mode by signed mode
    u = smooth_field(grid, seed=5)
    real = Field.from_values(grid, np.real(u.values)).demean()
    alpha = grid.alpha
    oracle = np.zeros(grid.n, dtype=complex)
    for m, k in zip(grid.modes, grid.k):
        if k < 0:
            c = np.sum(real.values * np.exp(-1j * k * alpha)) / grid.n
            oracle[grid.modes == m] = c
    p = project_neg(real)
    assert np.max(np.abs(p.coef - oracle)) < 1e-12 * real.linf()
    rebuilt = p + project_neg(real.conj()).conj()
    assert np.max(np.abs(rebuilt.values - real.values)) < 1e-12 * real.linf()


def test_frac_deriv_single_mode(grid):
    coef = np.zeros(grid.n, dtype=complex)
    coef[grid.modes == -8] = 1.0
    u = Field(grid, coef)
    k = abs(grid.k[grid.modes == -8][0])
    d = frac_deriv(u, 0.5)
    assert abs(d.coef[grid.modes == -8][0] - k**0.5) < 1e-12


def test_frac_deriv_identity_and_composition(grid):
    u = smooth_field(grid, seed=6).demean()
    same = frac_deriv(u, 0.0)
    assert np.max(np.abs(same.coef - u.coef)) < 1e-14
    twice = frac_deriv(frac_deriv(u, 0.5), 0.5)
    direct = frac_deriv(u, 1.0)
    assert np.max(np.abs(twice.coef - direct.coef)) < 1e-12 * u.linf()


def test_frac_deriv_negative_power_guard(grid):
    u = smooth_field(grid, seed=7)
    coef = u.coef.copy()
    coef[grid.modes == 0] = 1.0
    with pytest.raises(NegativePowerOnMean):
        frac_deriv(Field(grid, coef), -0.5)


def test_pair_sobolev(grid):
    zero = Field.zero(grid)
    assert pair_sobolev((zero, zero), 0.25) == 0.0
    coef = np.zeros(grid.n, dtype=complex)
    coef[grid.modes == -5] = 1.0
    u = Field(grid, coef)
    assert abs(pair_sobolev((u, zero), 0.0) - math.sqrt(grid.length)) < 1e-12


def test_field_serialization_roundtrip(tmp_path, grid):
    u = smooth_field(grid, seed=10)
    path = tmp_path / "field.txt"
    with open(path, "w") as fh:
        write_field(fh, u)
    with open(path) as fh:
        v = read_field(fh)
    assert v.grid == grid
    assert np.max(np.abs(v.coef - u.coef)) == 0.0


def test_conj_matches_physical(grid):
    u = smooth_field(grid, seed=11)
    assert np.max(np.abs(u.conj().values - np.conj(u.values))) < 1e-12 * u.linf()


def test_evaluate_at_matches_grid(grid):
    u = smooth_field(grid, seed=12)
    j = 37
    val = u.evaluate_at(grid.alpha[j])
    assert abs(val - u.values[j]) < 1e-10 * u.linf()


@pytest.mark.parametrize("n, calls", [(2048, 2), (4096, 3), (16384, 5)])
def test_stacks_go_rows_per_call_and_match_single_rows(monkeypatch, n, calls):
    # 8192 // n rows per call, at least one: five rows take two calls at
    # n = 2048 and one per row from n = 8192 on; in place or not, each row
    # is the transform of that row alone, bit for bit
    rng = np.random.default_rng(n)
    x = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    single = [np.fft.ifft(row, norm="forward") for row in x]
    rows = transform_calls(monkeypatch)
    out = _fft("ifft", x)
    assert (len(rows), sum(rows)) == (calls, 5)
    in_place = x.copy()
    _fft("ifft", in_place, out=in_place)
    for i in range(5):
        assert np.array_equal(out[i], single[i]) and np.array_equal(in_place[i], single[i])


# per-grid constants ------------------------------------------------------------

CONSTANT_GRIDS = [GridSpec(length=64.0, n=64), GridSpec(), GridSpec(1600.0 * math.pi, 8192)]


def frac_deriv_oracle(u, s):
    """|k|^s formed at every call, as a full-length multiplier."""
    mult = np.zeros(u.grid.n)
    nz = u.grid.abs_k > 0
    mult[nz] = u.grid.abs_k[nz] ** s
    return u.coef * mult


@pytest.mark.parametrize("grid", CONSTANT_GRIDS)
def test_cached_multipliers_are_the_per_call_formula(grid):
    # every mode carries a coefficient, the Nyquist one included; mode 0 too
    # where s >= 0, and the bits are those of the multiplier formed per call
    rng = np.random.default_rng(grid.n)
    coef = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    assert coef[grid.n // 2] != 0 and grid.modes[grid.n // 2] == -(grid.n // 2)
    for s in (-0.5, 0.25, 0.5, 0.75, 1, 2, 2.5):
        u = Field(grid, coef) if s >= 0 else Field(grid, coef).demean()
        got = frac_deriv(u, s).coef
        assert np.array_equal(got, frac_deriv_oracle(u, s)) and got[0] == 0
    with pytest.raises(NegativePowerOnMean):
        frac_deriv(Field(grid, coef), -0.5)


@pytest.mark.parametrize("grid", CONSTANT_GRIDS)
def test_masks_and_mean_are_their_mask_spellings(grid):
    rng = np.random.default_rng(grid.n + 1)
    u = Field(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    assert np.array_equal(project_neg(u).coef, np.where(grid.k < 0, u.coef, 0.0))
    assert u.mean() == complex(u.coef[grid.modes == 0][0])
    zeroed = u.coef.copy()
    zeroed[grid.modes == 0] = 0.0
    assert np.array_equal(u.demean().coef, zeroed)


def test_cached_arrays_are_read_only():
    grid = GridSpec(length=64.0, n=64)
    frac_deriv(smooth_field(grid), 0.5)
    for arr in (grid.neg, grid.abs_k_power(0.5), grid.k, grid.abs_k, grid.modes,
                grid.alpha, grid.center_phase, grid.dealias_mask):
        with pytest.raises(ValueError):
            arr[1] = arr[2]


def test_a_norm_sample_caches_six_exponents():
    # control_norms reads 0.5, 0.25, 0.75 and -0.5; the H^s pair norms at 0.25
    # and the weighted energy's at 2 read s and s + 1/2
    grid = GridSpec()
    state = plateau_data(grid, 1e-3)
    state = WaveState(1.0, state.w, state.q)
    for _ in range(2):
        control_norms(state)
        weighted_energy(state)
    assert sorted(grid._powers) == [-0.5, 0.25, 0.5, 0.75, 2.0, 2.5]
