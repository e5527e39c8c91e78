"""Property tests on generated data (Hypothesis, derandomized): the
Littlewood-Paley partition of unity and band table, the paraproduct
trichotomy, the holomorphy and symmetry of the paradifferential operators,
the negative-frequency projector, conjugates and real parts in coefficient
space, and the field text format."""

import io
import itertools
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from holoww import paradiff
from holoww.dynamics import plateau_data, step
from holoww.grid import Field, GridSpec, project_neg, read_field, write_field
from holoww.lp import (
    SEPARATION,
    band_table,
    besov_inf2,
    block_range,
    lowpass_symbol,
    lp_blocks,
    partition_defect,
)
from holoww.paradiff import balanced, para, trichotomy_residual

from conftest import full_spectrum_field, lohi_oracle, scatter

PROPERTY = settings(derandomize=True, max_examples=15, deadline=None)


def dealiased_fields(grid):
    """Dealiased fields with real and imaginary coefficients in [-1, 1]."""
    parts = arrays(np.float64, (2, grid.n), elements=st.floats(-1.0, 1.0))
    return parts.map(lambda x: Field(grid, x[0] + 1j * x[1]).dealiased())


@PROPERTY
@given(n=st.integers(8, 1024).map(lambda h: 2 * h), length=st.floats(1.0, 1e4))
def test_lp_blocks_partition_unity_on_any_grid(n, length):
    assert partition_defect(GridSpec(length, n)) < 1e-12


@PROPERTY
@given(n=st.integers(8, 1024).map(lambda h: 2 * h), length=st.floats(1.0, 1e4),
       seed=st.integers(0, 2**32 - 1), s=st.sampled_from([0.0, 0.25, 0.75]))
def test_band_table_holds_the_dense_symbols(n, length, seed, s):
    # the two halves of each block scatter back to its dense symbol, the low
    # support to the dense low-pass symbol; products read each half on
    # |j| <= cut + reach, that run times the low band fits the sub-grid
    # length, and only the k < 0 halves reach a kept k < 0 mode
    grid = GridSpec(length, n)
    cut = math.floor(grid.dealias * n / 2)
    rng = np.random.default_rng(seed)
    u = Field(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    blocks = lp_blocks(grid)
    assert len(band_table(grid)) == len(blocks)
    total = 0.0
    for (m, halves), block in zip(band_table(grid), blocks):
        neg, pos = halves
        assert neg.block.start + len(neg.block.values) <= 0 < pos.block.start
        assert np.array_equal(scatter(neg.block, n) + scatter(pos.block, n), block.symbol(grid.k))
        for half in halves:
            assert half.low is neg.low
            reached = np.abs(grid.modes) <= cut - half.low.start  # low.start is -reach
            assert np.array_equal(scatter(half.read, n), scatter(half.block, n) * reached)
            assert len(half.read.values) + len(half.low.values) - 1 <= half.size
        assert np.array_equal(scatter(neg.low, n), lowpass_symbol(grid.k, 2.0 ** (m - SEPARATION)))
        assert (neg.neg, pos.neg) == (True, False)
        total += 2.0 ** (2 * m * s) * Field(grid, u.coef * block.symbol(grid.k)).linf() ** 2
    assert besov_inf2(u, s) == math.sqrt(total)


@PROPERTY
@given(n=st.integers(8, 300).map(lambda h: 2 * h), length=st.floats(1.0, 1e4),
       seed=st.integers(0, 2**32 - 1), dealias=st.sampled_from([2.0 / 3.0, 1.0]))
def test_half_band_kernel_matches_full_grid_formula(n, length, seed, dealias):
    # full-spectrum inputs, so that the top blocks alias on the full grid;
    # without dealiasing the top k > 0 half's product wraps to kept k < 0 modes
    grid = GridSpec(length, n, dealias)
    a, b = full_spectrum_field(grid, seed), full_spectrum_field(grid, seed + 1)
    scale = a.linf() * b.linf()
    assert np.max(np.abs(para(a, b).coef - project_neg(lohi_oracle(a, b)).coef)) <= 1e-13 * scale


@PROPERTY
@given(n=st.integers(8, 1024).map(lambda h: 2 * h), length=st.floats(1.0, 1e4),
       seed=st.integers(0, 2**32 - 1))
def test_block_term_of_para_lies_in_its_band(n, length, seed):
    # Bony's support property, on the runs products read: for an unclamped
    # block m, `para` formed from that block's k < 0 half alone, P_m b times
    # the part of a below 2^(m - SEPARATION), is nonzero only at
    # 3/8 2^m < -k < 17/8 2^m
    grid = GridSpec(length, n)
    a, b = full_spectrum_field(grid, seed), full_spectrum_field(grid, seed + 1)
    for m, (neg, _) in band_table(grid)[1:-1]:
        with mock.patch.object(paradiff, "_halves", lambda grid, half=neg: [half]):
            term = para(a, b).coef
        inside = (-grid.k > 3.0 / 8.0 * 2.0**m) & (-grid.k < 17.0 / 8.0 * 2.0**m)
        assert np.all(term[~inside] == 0.0) and np.any(term[inside] != 0.0), m


@PROPERTY
@given(n=st.integers(8, 512).map(lambda h: 2 * h), length=st.floats(1.0, 1e4),
       seed=st.integers(0, 2**32 - 1))
def test_balanced_of_one_octave_has_nothing_above_four_times_it(n, length, seed):
    # Pi(a, b) of two inputs on 2^(m-1) <= |k| <= 2^m has nothing above
    # 2^(m+2) but roundoff
    grid = GridSpec(length, n)
    lo, hi = block_range(grid)
    for m in range(lo, hi - 1):
        octave = (grid.abs_k >= 2.0 ** (m - 1)) & (grid.abs_k <= 2.0**m)
        a, b = (Field(grid, np.where(octave, full_spectrum_field(grid, seed + i).coef, 0.0))
                for i in (0, 1))
        above = grid.abs_k > 2.0 ** (m + 2)
        pi = balanced(a, b)
        assert np.max(np.abs(pi.coef[above]), initial=0.0) <= 1e-13 * a.linf() * b.linf(), m


@PROPERTY
@given(n=st.integers(8, 512).map(lambda h: 2 * h), length=st.floats(1.0, 1e4),
       seed=st.integers(0, 2**32 - 1), dealias=st.sampled_from([2.0 / 3.0, 1.0]))
def test_para_of_a_real_part_reads_its_holomorphic_half(n, length, seed, dealias):
    # T_a(2Re b) = T_a b for holomorphic b: conj b lies at k > 0, and its
    # products with the low part of a reach no kept k < 0 mode, bit for bit
    # when dealiased.  Without dealiasing the top k > 0 halves wrap around to
    # k < 0, so there the inputs lie on |j| <= n/4, where no product wraps
    grid = GridSpec(length, n, dealias)
    a, b = full_spectrum_field(grid, seed), project_neg(full_spectrum_field(grid, seed + 1))
    if dealias == 1.0:
        a, b = (Field(grid, np.where(np.abs(grid.modes) <= n // 4, u.coef, 0.0)) for u in (a, b))
    diff = para(a, b.two_re()).coef - para(a, b).coef
    assert np.max(np.abs(diff)) <= 1e-13 * a.linf() * b.linf()
    assert dealias == 1.0 or not diff.any()


@PROPERTY
@given(data=st.data())
def test_trichotomy_residual_is_roundoff(grid, data):
    a = data.draw(dealiased_fields(grid))
    b = data.draw(dealiased_fields(grid))
    assert trichotomy_residual(a, b) <= 1e-12 * (a * b).l2()


@PROPERTY
@given(data=st.data())
def test_para_and_balanced_vanish_at_nonnegative_frequencies(grid, data):
    a = data.draw(dealiased_fields(grid))
    b = data.draw(dealiased_fields(grid))
    nonneg = grid.k >= 0
    assert np.all(para(a, b).coef[nonneg] == 0.0)
    assert np.all(balanced(a, b).coef[nonneg] == 0.0)


@PROPERTY
@given(data=st.data())
def test_balanced_is_symmetric(grid, data):
    a = data.draw(dealiased_fields(grid))
    b = data.draw(dealiased_fields(grid))
    assert (balanced(a, b) - balanced(b, a)).l2() <= 1e-12 * max(a.l2() * b.l2(), 1e-300)


@PROPERTY
@given(data=st.data())
def test_projector_is_idempotent_and_orthogonal(grid, data):
    u = data.draw(dealiased_fields(grid))
    v = data.draw(dealiased_fields(grid))
    pu = project_neg(u)
    assert np.array_equal(project_neg(pu).coef, pu.coef)
    assert pu.inner(v - project_neg(v)) == 0.0


finite = st.floats(allow_nan=False, allow_infinity=False)


@PROPERTY
@given(data=st.data())
def test_save_load_field_round_trip_is_exact(grid, tmp_path_factory, data):
    parts = data.draw(arrays(np.float64, (2, grid.n), elements=finite))
    u = Field(grid, parts[0] + 1j * parts[1])
    path = tmp_path_factory.getbasetemp() / "field.txt"
    with open(path, "w") as fh:
        write_field(fh, u)
    with open(path) as fh:
        back = read_field(fh)
    assert back.grid == grid
    assert np.array_equal(back.coef.view(np.float64), u.coef.view(np.float64))
    assert np.array_equal(np.signbit(back.coef.view(np.float64)),
                          np.signbit(u.coef.view(np.float64)))


@PROPERTY
@given(data=st.data(), n=st.sampled_from([16, 2048]))
def test_conj_and_two_re_mirror_the_coefficients(data, n):
    # conj(u) and 2Re u take their coefficients from u's mirrored, not from a
    # transform of their values: the values keep the pointwise spelling's bits,
    # the coefficients agree with the transform's to rounding, the Nyquist mode
    # included, and conjugating twice gives u's coefficients back exactly
    grid = GridSpec(64.0, n)
    parts = data.draw(arrays(np.float64, (2, n), elements=st.floats(-1.0, 1.0)))
    coef = parts[0] + 1j * parts[1]
    coef[n // 2] = data.draw(st.complex_numbers(min_magnitude=0.5, max_magnitude=1.0))
    u = Field(grid, coef)
    for got, want in ((u.conj(), Field.from_values(grid, np.conj(u.values))),
                      (u.two_re(), Field.from_values(grid, 2.0 * np.real(u.values)))):
        assert got.values.tobytes() == want.values.tobytes()
        assert np.max(np.abs(got.coef - want.coef)) <= 1e-15 * np.max(np.abs(want.coef))
    assert u.conj().conj().coef.tobytes() == u.coef.tobytes()


def per_row_text(u):
    """`write_field` as one row per mode, its IEEE-754 bits spelled by `struct`."""
    g = u.grid
    out = [f"# length={g.length!r} n={g.n} dealias={g.dealias!r}\n"]
    for c in u.coef.tolist():
        out.append(f"{struct.pack('>d', c.real).hex()} {struct.pack('>d', c.imag).hex()}\n")
    return "".join(out)


def first_row_difference(got, want):
    """(index, row, wanted row) of the first row where two texts differ, or
    None; on a failure pytest prints this instead of diffing whole texts of
    100-300 KB, which takes it minutes."""
    rows = itertools.zip_longest(got.splitlines(True), want.splitlines(True))
    return next(((i, a, b) for i, (a, b) in enumerate(rows) if a != b), None)


edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                        1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308])


@PROPERTY
@given(data=st.data(), n=st.sampled_from([16, 4098, 8200]))
def test_field_text_matches_per_row_writer_and_round_trips(tmp_path_factory, data, n):
    grid = GridSpec(64.0, n)
    parts = data.draw(arrays(np.float64, (2, n), elements=st.one_of(edge, finite), fill=edge))
    u = Field(grid, parts[0] + 1j * parts[1])
    path = tmp_path_factory.getbasetemp() / "edge.txt"
    with open(path, "w") as fh:
        write_field(fh, u)
    assert first_row_difference(path.read_text(), per_row_text(u)) is None
    with open(path) as fh:
        back = read_field(fh)
    assert back.coef.tobytes() == u.coef.tobytes()
    # two fields in one stream: each read stops after its own n rows
    text = per_row_text(u)
    fh = io.StringIO(text + text)
    assert [read_field(fh).coef.tobytes() for _ in range(2)] == [u.coef.tobytes()] * 2
    with pytest.raises(ValueError):
        read_field(io.StringIO(text[: len(text) // 2]))


def test_field_text_of_a_stepped_state():
    # the writer's common input: a stepped state whose modes off the kept band
    # are +0.0, with -0.0 and a subnormal set on the band
    grid = GridSpec(1600.0 * math.pi, 8192)
    coef = step(plateau_data(grid, 1e-3), 0.2).w.coef.copy()
    bits = coef.view(np.int64)
    assert 0.6 < np.mean(bits == 0) < 0.7
    band = np.flatnonzero(bits[0::2])
    coef.real[band[0]], coef.imag[band[-1]] = -0.0, 5e-324
    u = Field(grid, coef)
    fh = io.StringIO()
    write_field(fh, u)
    assert first_row_difference(fh.getvalue(), per_row_text(u)) is None
    fh.seek(0)
    assert read_field(fh).coef.tobytes() == coef.tobytes()


@pytest.mark.parametrize("broken", ["value", "short", "separator", "newline", "blank", "cut",
                                    "header"])
def test_read_field_rejects_malformed_text(broken):
    u = Field(GridSpec(64.0, 16), np.linspace(0.1, 1.6, 16) * (1 - 1j))
    lines = per_row_text(u).splitlines(keepends=True)
    re, im = lines[5].split()
    if broken == "header":
        lines[0] = "# n=16\n"
    elif broken == "cut":  # a stream cut inside the last word
        lines[-1] = lines[-1][:-3]
    elif broken == "value":
        lines[5] = f"{re[:-1]}g {im}\n"
    elif broken == "short":
        lines[5] = f"{re} {im[:-1]}\n"
    elif broken == "separator":  # the space two digits early: the digits still pair up
        lines[5] = f"{re[:-2]} {re[-2:]}{im}\n"
    elif broken == "newline":
        lines[5] = f"{re} {im[:-2]}\n{im[-2:]}"
    else:  # spaces for digits: 16 bytes fewer, every separator in place
        lines[5] = " " * 33 + "\n"
    with pytest.raises(ValueError):
        read_field(io.StringIO("".join(lines)))
