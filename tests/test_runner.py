"""Runner and command line: a resumed run continues the uninterrupted one
bit for bit, and the `holoww` subcommands work end to end (n = 256)."""

import gc
import json
import shutil

import numpy as np
import pytest

from holoww import dynamics, normalform, runner
from holoww.cli import main
from holoww.dynamics import WaveState, load_state, save_state, step
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


def test_fresh_run_refuses_a_directory_that_holds_a_run(full_run, tmp_path, capsys):
    # a second run into the same directory must not truncate the first one's
    # tables, nor leave its checkpoints for a later resume to mix in
    before = {f.name: f.read_bytes() for f in full_run.iterdir()}
    (tmp_path / "config.txt").write_text(CONFIG + "data.eps = 2e-3\n")
    argv = ["simulate", "--config", str(tmp_path / "config.txt"), "--out", str(full_run)]
    assert main(argv) == 2
    assert f"{full_run} already holds a run" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in full_run.iterdir()} == before


def test_resume_refuses_a_directory_that_holds_another_run(full_run, tmp_path, capsys):
    # continuing one run into another's directory must leave that run as it was
    crashed = crashed_copy(full_run, 1.0, tmp_path / "crashed")
    other = tmp_path / "other"
    shutil.copytree(full_run, other)
    before = {f.name: f.read_bytes() for f in other.iterdir()}
    assert main(["simulate", "--resume-from", str(crashed), "--out", str(other)]) == 2
    assert f"{other} already holds a run" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in other.iterdir()} == before


def test_final_state_off_the_checkpoint_times_is_saved(full_run):
    # t_end = 13.2 falls between the checkpoints at 13 and 14
    final, _ = load_state(full_run / "state_final.txt")
    last, _ = load_state(full_run / "state_0000013.0000.txt")
    assert final.t == pytest.approx(13.2) and last.t == pytest.approx(13.0)
    assert not np.array_equal(final.w.coef, last.w.coef)


def test_final_state_at_a_checkpoint_time_is_a_copy(tmp_path, monkeypatch):
    saves = []

    def counted(*args, **kwargs):
        saves.append(args[0])
        return save_state(*args, **kwargs)

    monkeypatch.setattr(runner, "save_state", counted)
    (tmp_path / "config.txt").write_text(
        "grid.n = 256\nrun.t_end = 2.0\nrun.checkpoint_every = 1.0\ngamma.enabled = false\n")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(tmp_path / "config.txt"), "--out", str(out)]) == 0
    assert len(saves) == 2
    assert (out / "state_final.txt").read_bytes() == (out / "state_0000002.0000.txt").read_bytes()


def test_a_checkpointing_run_holds_no_stepped_past_state(tmp_path, monkeypatch):
    # keeping the last checkpointed state for the final write held one more
    # state through the next steps: 8.5-10.6 MB more peak RSS at n = 65536
    def live_states():
        return sum(isinstance(o, WaveState) for o in gc.get_objects())

    live = []

    def counted_step(state, cfg):
        new = step(state, cfg)
        live.append(live_states())
        return new

    monkeypatch.setattr(dynamics, "step", counted_step)
    (tmp_path / "config.txt").write_text(
        "grid.n = 256\nrun.t_end = 4.0\nrun.checkpoint_every = 1.0\ngamma.enabled = false\n")
    before = live_states()
    assert main(["simulate", "--config", str(tmp_path / "config.txt"),
                 "--out", str(tmp_path / "run")]) == 0
    assert len(live) == 20
    assert max(live) - before <= 2  # the state stepped from and the new one


@pytest.mark.parametrize("option", ["--config", "--resume-from"])
def test_missing_input_is_a_usage_error(option, tmp_path, capsys):
    missing, out = tmp_path / "missing", tmp_path / "run"
    assert main(["simulate", option, str(missing), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert not out.exists()


@pytest.mark.parametrize("lines, chars", [
    (0, 3),    # inside the metadata line
    (1, 0),    # no field header
    (2, 0),    # a header and no rows
    (100, 5),  # inside a row
    (514, -3),  # inside the last value, which still parses as a float
])
def test_truncated_checkpoint_is_a_usage_error(lines, chars, full_run, tmp_path, capsys):
    crashed = crashed_copy(full_run, 1.0, tmp_path / "crashed")
    ckpt = crashed / "state_0000001.0000.txt"
    text = ckpt.read_text().splitlines(keepends=True)
    assert len(text) == 515  # metadata line, then a header and 256 rows per field
    ckpt.write_text("".join(text[:lines]) + text[lines][:chars])
    out = tmp_path / "resumed"
    assert main(["simulate", "--resume-from", str(crashed), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ckpt) in err
    assert not out.exists()


@pytest.mark.parametrize("meta", ["{}", "[1]", '{"t": "x"}'])
def test_checkpoint_without_a_numeric_time_is_a_usage_error(meta, full_run, tmp_path, capsys):
    crashed = crashed_copy(full_run, 1.0, tmp_path / "crashed")
    ckpt = crashed / "state_0000001.0000.txt"
    ckpt.write_text(meta + "\n" + ckpt.read_text().split("\n", 1)[1])
    out = tmp_path / "resumed"
    assert main(["simulate", "--resume-from", str(crashed), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable checkpoint ") and str(ckpt) in err
    assert not out.exists()


def test_a_checkpoint_write_stopped_midway_leaves_the_earlier_ones(full_run, tmp_path,
                                                                  monkeypatch):
    # the write of the t = 2 checkpoint fails after its W: the run keeps the
    # t = 1 checkpoint, with no partial state_* file and no temporary, and a
    # resume continues from it as the uninterrupted run did
    write_field, written = dynamics.write_field, []

    def failing(fh, u):
        write_field(fh, u)
        written.append(u)
        if len(written) == 3:
            raise OSError("no space left on device")

    monkeypatch.setattr(dynamics, "write_field", failing)
    (tmp_path / "config.txt").write_text(CONFIG)
    run = tmp_path / "run"
    with pytest.raises(OSError):
        main(["simulate", "--config", str(tmp_path / "config.txt"), "--out", str(run)])
    monkeypatch.undo()
    assert sorted(f.name for f in run.iterdir()) == [
        "config.txt", "gamma.csv", "manifest.json", "norms.csv", "state_0000001.0000.txt"]
    out = tmp_path / "resumed"
    assert main(["simulate", "--resume-from", str(run), "--out", str(out)]) == 0
    assert_same_final_state(out, full_run)


@pytest.mark.parametrize("header", ["# length=100.0 n=256 dealias=0.5\n",
                                    "# length=100.0 n=128 dealias=0.5\n"])
def test_a_checkpoint_whose_fields_name_two_grids_is_a_usage_error(header, full_run, tmp_path,
                                                                  capsys):
    # Q's header must name W's grid: its rows are not read onto W's grid
    # under another length, dealias fraction or mode count, and nothing is
    # written
    crashed = crashed_copy(full_run, 1.0, tmp_path / "crashed")
    ckpt = crashed / "state_0000001.0000.txt"
    text = ckpt.read_text().splitlines(keepends=True)
    assert text[1] == text[258] != header  # the headers of W and Q
    text[258] = header
    ckpt.write_text("".join(text))
    before = {f.name: f.read_bytes() for f in crashed.iterdir()}
    for out in (tmp_path / "resumed", crashed):
        assert main(["simulate", "--resume-from", str(crashed), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: unreadable checkpoint {ckpt}: field header names " in err
    assert not (tmp_path / "resumed").exists()
    assert {f.name: f.read_bytes() for f in crashed.iterdir()} == before


def test_a_checkpoint_in_decimal_rows_is_a_usage_error(full_run, tmp_path, capsys):
    # checkpoints written before the hex rows spelled each mode `m re im`,
    # each value its repr; they get no second parser, and nothing is written
    crashed = crashed_copy(full_run, 1.0, tmp_path / "crashed")
    ckpt = crashed / "state_0000001.0000.txt"
    state, meta = load_state(ckpt)
    text = [json.dumps(meta) + "\n"]
    for u in (state.w, state.q):
        g = u.grid
        text.append(f"# length={g.length!r} n={g.n} dealias={g.dealias!r}\n")
        text += [f"{m} {c.real!r} {c.imag!r}\n" for m, c in zip(g.modes.tolist(), u.coef.tolist())]
    ckpt.write_text("".join(text))
    before = {f.name: f.read_bytes() for f in crashed.iterdir()}
    for out in (tmp_path / "resumed", crashed):
        assert main(["simulate", "--resume-from", str(crashed), "--out", str(out)]) == 2
        assert f"error: unreadable checkpoint {ckpt}: " in capsys.readouterr().err
    assert not (tmp_path / "resumed").exists()
    assert {f.name: f.read_bytes() for f in crashed.iterdir()} == before


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
    "step.dt = 0",
    "step.scheme = rk4_integrating_factor",
    "data.velocity = 0",
    "grid.length = nan",
    "step.dt = nan",
    "run.t_end = inf",
    "sigma = nan",
    "gamma.velocities = -1",
    "data.ramp = 0",
    "data.width = 0",
    "data.plateau = -1",
])
def test_bad_config_value_is_a_usage_error(line, tmp_path, capsys):
    (tmp_path / "config.txt").write_text(f"grid.n = 256\n{line}\n")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(tmp_path / "config.txt"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if line.startswith("step.scheme"):  # one integrator: no key selects a scheme
        assert "unknown key 'step.scheme'" in err
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
