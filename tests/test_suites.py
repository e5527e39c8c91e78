"""Acceptance suites: the report rows, suite lookup, one cheap suite end to
end through `verify` and the command line, smoke runs of the cheap suites,
the resonant-coefficient comparison that `structure` and `gamma` share, and
the dual-row pairing of the cubic table's atoms that it rests on."""

import importlib.util
import math
import os
import pathlib
import subprocess
import sys

import pytest

from holoww import suites
from holoww.cli import main
from holoww.errors import UsageError
from holoww.grid import Field, GridSpec
from holoww.normalform import TERMS, NormalFormState, evaluate_terms
from holoww.packets import build_packet, omega0_grid
from holoww.suites import RESONANT_MATCH, Check, _class_pairings, verify

IDENTITIES = ["trichotomy-residual", "f-identity", "m-identity", "taylor-term-real",
              "projector-idempotent", "projector-orthogonal", "partition-of-unity"]


@pytest.fixture(scope="module")
def pins():
    """perfbench's `reference` module and its verify-core series of variant
    0, whose seed is `verify`'s default 1234; read, never written."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    return reference, reference.load()["verify-core"]["0"]


def assert_pinned(pins, checks):
    """Each row's measured value within the benchmark's tolerance of its pin."""
    reference, series = pins
    for c in checks:
        key = f"check.{c.cid}"
        assert abs(c.measured - series[key][0]) <= reference.tolerance(key, series[key]), c.cid


def test_identities_suite_passes(pins):
    checks = verify("identities")
    assert [c.cid for c in checks] == IDENTITIES
    assert all(c.passed and not c.informational for c in checks)
    assert_pinned(pins, checks)


@pytest.mark.parametrize("suite, cids", [
    ("linear", ["single-mode-phase-error-per-time"]),
    ("cancellation", ["raw-quadratic-ratio", "classical-nf-cubic-ratio",
                      "paradiff-residual-cubic-ratio", "quartic-remainder-ratio"]),
    ("consistency", ["diff-vs-derivative-of-full", "dual-dt-estimator-order",
                     "scaling-identity-defect"]),
    ("packets", ["defect-size-slope", "ray-error-l2v-slope",
                 "spectrum-profile-modulus-collapse", "spectrum-profile-phase-collapse"]),
])
def test_suite_reports_its_rows(suite, cids, pins):
    # rows, finite values, and the benchmark's pins of the verify-core suites
    # (all but linear): `ray-error-l2v-slope` is red (ROADMAP item 3)
    checks = verify(suite)
    assert [c.cid for c in checks] == cids
    assert all(math.isfinite(c.measured) for c in checks)
    if suite != "linear":
        assert_pinned(pins, checks)


def test_unknown_suite_names_the_choices(capsys):
    with pytest.raises(UsageError, match="choose from identities, .*, structure, all"):
        verify("nope")
    assert main(["verify", "--suite", "nope"]) == 2
    assert "unknown suite 'nope'" in capsys.readouterr().err


@pytest.mark.parametrize("check, passed, flag, bound", [
    (Check("le", 1.0, hi=1.0), True, "PASS", "<= 1"),
    (Check("le", 2.0, hi=1.0), False, "FAIL", "<= 1"),
    (Check("ge", 0.95, lo=0.9), True, "PASS", ">= 0.9"),
    (Check("ge", 0.5, lo=0.9), False, "FAIL", ">= 0.9"),
    (Check("in", -0.5, -0.6, -0.4), True, "PASS", "[-0.6, -0.4]"),
    (Check("in", -0.7, -0.6, -0.4), False, "FAIL", "[-0.6, -0.4]"),
    (Check("in", -0.398, -0.6, -0.4, informational=True), False, "info",
     "[-0.6, -0.4]"),
    (Check("le", 0.5, hi=1.0, informational=True), True, "PASS", "<= 1"),
    # a NaN lies in no interval
    (Check("le", math.nan, hi=1.0), False, "FAIL", "<= 1"),
    (Check("ge", math.nan, lo=0.9), False, "FAIL", ">= 0.9"),
    (Check("in", math.nan, -0.6, -0.4), False, "FAIL", "[-0.6, -0.4]"),
    (Check("in", math.nan, -0.6, -0.4, informational=True), False, "info",
     "[-0.6, -0.4]"),
])
def test_check_verdict_and_line(check, passed, flag, bound):
    assert check.passed is passed
    line = check.line()
    assert line.split()[:2] == [flag, check.cid]
    assert f"measured={check.measured:12.5g}" in line
    assert line.endswith(f"bound {bound}")


def test_verify_command_runs_a_suite(capsys):
    assert main(["verify", "--suite", "identities"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == IDENTITIES
    assert lines[-1] == "7/7 checks passed"


def test_package_runs_as_a_module():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "holoww", "verify", "--suite", "identities"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "7/7 checks passed"


# `ode-coefficient-frozen-audit` is the largest of these mismatches over
# omega0_grid(1024, count=3) on the gamma suite's grid; one pairing per case
GAMMA_GRID = GridSpec(1600.0 * math.pi, 8192)
EDGE_LO, _, EDGE_HI = omega0_grid(1024.0, count=3)


def test_coefficient_audit_compares_the_table_with_the_formula():
    # the largest of the three (1.85e-3): nonzero, so the row can fail
    mismatch = _class_pairings(GAMMA_GRID, 1024.0, EDGE_HI)[3]
    assert 0.0 < mismatch <= RESONANT_MATCH


@pytest.mark.parametrize("v, wrong", [
    (1.0, lambda g, t, v: 1j * g * abs(g) ** 2 / (2.0 * t * (2.0 * v) ** 4)),
    (EDGE_LO, lambda g, t, v: 1j * g * abs(g) ** 2 / (2.0 * t * 2.0**5 * v**4)),
], ids=["(2v)^-4", "2^5 v^4"])
def test_coefficient_audit_fails_a_wrong_coefficient(monkeypatch, v, wrong):
    monkeypatch.setattr(suites, "cubic_coefficient", wrong)
    assert _class_pairings(GAMMA_GRID, 1024.0, v)[3] > RESONANT_MATCH


@pytest.mark.parametrize("grid, t, v", [
    (GridSpec(400.0 * math.pi, 2048), 400.0, 1.0),
    (GAMMA_GRID, 1024.0, EDGE_LO),
    (GAMMA_GRID, 1024.0, EDGE_HI),
    (GridSpec(12800.0 * math.pi, 65536), 18432.0, 1.0),
], ids=["desk", "gamma-lo", "gamma-hi", "structure"])
def test_paired_atoms_equal_their_fields_paired(monkeypatch, grid, t, v):
    # each atom as `_class_pairings` pairs it, through its side's dual row,
    # equals the atom formed as a field and paired with the packet on the
    # whole grid: <K, w> for a g-atom and <i K', q> for a k-atom, to 1e-13
    # of the largest pairing of its side
    seen = {}

    def recording(nf, duals):
        seen["nf"] = NormalFormState(nf.t, *(None if u is None else Field(grid, u.coef.copy())
                                             for u in (nf.wt, nf.qt, nf.wt_a, nf.qt_a)))
        seen["pairs"] = evaluate_terms(nf, duals)
        return seen["pairs"]
    monkeypatch.setattr(suites, "evaluate_terms", recording)
    _class_pairings(grid, t, v)
    fr = build_packet(grid, t, v)
    pw, pq = Field(grid, fr.w.coef), Field(grid, fr.q.coef)
    fields = evaluate_terms(seen["nf"])
    for side, want in (("g", lambda u: u.inner(pw)), ("k", lambda u: 1j * u.deriv().inner(pq))):
        atoms = [x.tid for x in TERMS if x.group.startswith(side)]
        scale = max(abs(seen["pairs"][tid]) for tid in atoms)
        for tid in atoms:
            assert abs(seen["pairs"][tid] - want(fields[tid])) <= 1e-13 * scale, tid
