"""Runner and command line: a resumed run continues the uninterrupted one
bit for bit, and the `holoww` subcommands work end to end (n = 256)."""

import shutil

import numpy as np
import pytest

from holoww import normalform
from holoww.cli import main
from holoww.dynamics import load_state
from holoww.runner import RunConfig

# norm rows at 0, 1.2, ..., 13.2: after the t = 1 checkpoint they still span
# the decade that `fit` needs; gamma rows at 4, 6, ..., 12
CONFIG = """\
grid.n = 256
run.t_end = 13.2
run.checkpoint_every = 1.0
run.norm_every = 1.2
gamma.start = 4.0
gamma.every = 2.0
gamma.velocities = 3
"""
TABLES = ("norms.csv", "gamma.csv")


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    (root / "config.txt").write_text(CONFIG)
    out = root / "full"
    assert main(["simulate", "--config", str(root / "config.txt"), "--out", str(out)]) == 0
    return out


def crashed_copy(full_run, t_ckpt, dest):
    """The run directory as a crash just after the checkpoint at t_ckpt
    leaves it: config, the checkpoint, and the table rows up to t_ckpt."""
    dest.mkdir()
    shutil.copy(full_run / "config.txt", dest)
    shutil.copy(full_run / f"state_{t_ckpt:012.4f}.txt", dest)
    for table in TABLES:
        header, rows = table_rows(full_run / table)
        kept = [r for r in rows if float(r.split(",")[0]) <= t_ckpt]
        (dest / table).write_text("".join(line + "\n" for line in [header, *kept]))
    return dest


def table_rows(path, after=-np.inf):
    header, *rows = path.read_text().splitlines()
    return header, [r for r in rows if float(r.split(",")[0]) > after]


def assert_same_final_state(run_a, run_b):
    a, _ = load_state(run_a / "state_final.txt")
    b, _ = load_state(run_b / "state_final.txt")
    assert a.t == b.t
    assert np.array_equal(a.w.coef, b.w.coef)
    assert np.array_equal(a.q.coef, b.q.coef)


def test_resume_into_new_directory_continues_the_run(full_run, tmp_path, capsys):
    crashed = crashed_copy(full_run, 1.0, tmp_path / "crashed")
    out = tmp_path / "resumed"
    assert main(["simulate", "--resume-from", str(crashed), "--out", str(out)]) == 0
    assert_same_final_state(out, full_run)
    for table in TABLES:
        assert table_rows(out / table) == table_rows(full_run / table, after=1.0)
    assert main(["fit", "--run", str(out), "--norm", "x"]) == 0
    assert "x: slope" in capsys.readouterr().out


def test_resume_in_place_rebuilds_the_uninterrupted_tables(full_run, tmp_path):
    # at t = 5 the gamma schedule is under way: the next sample is at 6
    crashed = crashed_copy(full_run, 5.0, tmp_path / "crashed")
    assert main(["simulate", "--resume-from", str(crashed), "--out", str(crashed)]) == 0
    assert_same_final_state(crashed, full_run)
    for table in TABLES:
        assert (crashed / table).read_text() == (full_run / table).read_text()


def test_fit_cli(full_run, capsys):
    assert main(["fit", "--run", str(full_run), "--norm", "a0"]) == 0
    assert "(11 samples)" in capsys.readouterr().out
    assert main(["fit", "--run", str(full_run), "--norm", "nope"]) == 2


@pytest.mark.parametrize("argv", [
    ["simulate"],
    ["simulate", "--config", "config.txt", "--resume-from", "run"],
])
def test_simulate_needs_exactly_one_of_config_and_resume(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_gamma_schedule_starting_before_t4_keeps_its_spacing(tmp_path):
    # gamma needs t >= 4: the schedule 0, 1, 2, ... goes on at 4, 5, 6
    # instead of sampling every step until it has caught up with t
    (tmp_path / "config.txt").write_text(
        "grid.n = 256\nrun.t_end = 6.0\n"
        "gamma.start = 0.0\ngamma.every = 1.0\ngamma.velocities = 3\n"
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(tmp_path / "config.txt"), "--out", str(out)]) == 0
    _, rows = table_rows(out / "gamma.csv")
    assert sorted({float(r.split(",")[0]) for r in rows}) == [4.0, 5.0, 6.0]


def test_norm_sample_builds_no_normal_form(tmp_path, monkeypatch):
    # the weighted energy reads only the generator pair of (W, Q)
    def refuse(*args):
        raise AssertionError("a norm sample built the normal form")

    monkeypatch.setattr(normalform, "para_nf", refuse)
    monkeypatch.setattr(normalform, "nf_rate", refuse)
    (tmp_path / "config.txt").write_text(
        "grid.n = 256\nrun.t_end = 0.4\nrun.norm_every = 0.2\ngamma.enabled = false\n"
        "sigma = 3\n"
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(tmp_path / "config.txt"), "--out", str(out)]) == 0
    header, rows = table_rows(out / "norms.csv")
    assert header == ("t,a0,a_quarter,a_half,a_sharp,x,wh_sharp,xsharp,xsharp_ell,"
                      "hs_0.25,hs_2,energy")
    cols = dict(zip(header.split(","), zip(*(map(float, r.split(",")) for r in rows))))
    assert cols["t"] == (0.0, 0.2, 0.4)
    # X-sharp is not computed in a run yet; the weighted energy is, from t > 0
    assert cols["xsharp"] == cols["xsharp_ell"] == (0.0, 0.0, 0.0)
    assert cols["wh_sharp"][0] == 0.0 and all(v > 0 for v in cols["wh_sharp"][1:])


@pytest.mark.parametrize("line", [
    "grid.n = 10",
    "step.scheme = rk5",
    "data.velocity = 0",
    "grid.length = nan",
    "step.dt = nan",
    "run.t_end = inf",
    "sigma = nan",
    "gamma.velocities = -1",
    "data.ramp = 0",
    "data.plateau = -1",
])
def test_bad_config_value_is_a_usage_error(line, tmp_path, capsys):
    (tmp_path / "config.txt").write_text(f"grid.n = 256\n{line}\n")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(tmp_path / "config.txt"), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("value, enabled", [
    ("1", True), ("true", True), ("yes", True), ("on", True), ("TRUE", True), ("On", True),
    ("0", False), ("false", False), ("no", False), ("off", False), ("False", False), ("OFF", False),
    ("ture", None), ("2", None), ("", None),
])
def test_boolean_takes_only_its_eight_spellings(value, enabled, tmp_path, capsys):
    # any other value is a usage error naming the key, never a silent False
    text = f"grid.n = 256\ngamma.enabled = {value}\n"
    if enabled is not None:
        assert RunConfig.parse(text)["gamma.enabled"] is enabled
        return
    (tmp_path / "config.txt").write_text(text)
    assert main(["simulate", "--config", str(tmp_path / "config.txt"),
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "gamma.enabled" in err
