"""Self-checks of the benchmark's tracer and transform counter.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import holoww.normalform  # noqa: E402
import holoww.paradiff  # noqa: E402
import holoww.suites  # noqa: E402
from holoww import runner  # noqa: E402
from tracer import Spans, Tracer, wrapped_objects  # noqa: E402

SMALL = "grid.n = 64\ngrid.length = 100.0\nrun.t_end = 6.0\nrun.norm_every = 2.0\n" \
        "gamma.start = 4.0\ngamma.every = 2.0\ngamma.velocities = 3\n"


def bindings():
    """Every attribute the tracer may rebind, by identity."""
    import numpy.fft

    out = {}
    mods = {n: m for n, m in sys.modules.items() if n.startswith("holoww")}
    mods["numpy.fft"] = numpy.fft
    for n, mod in mods.items():
        for k, v in vars(mod).items():
            out[(n, k)] = id(v)
            if isinstance(v, dict):
                out.update({(n, k, kk): id(vv) for kk, vv in v.items()})
            elif isinstance(v, type):
                out.update({(n, k, kk): id(vv) for kk, vv in vars(v).items()})
    return out


def traced_simulate(tmp_path, tag):
    tracer = Tracer().install()
    try:
        runner.simulate(runner.RunConfig.parse(SMALL), str(tmp_path / tag))
    finally:
        tracer.uninstall()
    path = str(tmp_path / f"{tag}.npz")
    tracer.write(path)
    return Spans.load(path)


def test_uninstall_restores_every_binding():
    before = bindings()
    tracer = Tracer().install()
    try:
        assert holoww.normalform.para is holoww.paradiff.para
        assert hasattr(holoww.normalform.para, "__perfbench_original__")
        assert hasattr(holoww.suites.SUITES["structure"], "__perfbench_original__")
        assert wrapped_objects()
    finally:
        tracer.uninstall()
    assert bindings() == before
    assert wrapped_objects() == []


def test_cross_module_calls_are_traced(tmp_path):
    spans = traced_simulate(tmp_path, "a")
    para = spans.ids("paradiff.para")
    assert len(para) > 0
    parents = {spans.names[spans.name[spans.parent[i]]] for i in para}
    assert "normalform.para_nf" in parents or "paradiff.balanced" in parents
    assert spans.count("dynamics.step") == 30
    assert spans.count("dynamics.WaveState") > 30


def test_two_traced_runs_give_identical_counts(tmp_path):
    first = traced_simulate(tmp_path, "a").counts()
    second = traced_simulate(tmp_path, "b").counts()
    assert first == second
    assert first["fft.fft"] > 0 and first["fft.ifft"] > 0


def test_transform_counter_counts_one_dimensional_transforms(tmp_path):
    tracer = Tracer().install()
    try:
        np.fft.fft(np.ones(64))
        np.fft.ifft(np.ones((4, 64)), axis=1)
        np.fft.ifft(np.ones((4, 64)), None, 0)
        np.fft.fft2(np.ones((3, 8)))
        grid = runner.RunConfig().grid()
        grid.values_from_coef(np.zeros(grid.n, dtype=complex))
    finally:
        tracer.uninstall()
    tracer.write(str(tmp_path / "f.npz"))
    spans = Spans.load(str(tmp_path / "f.npz"))
    assert list(spans.transforms) == [1, 4, 64, 3 + 8, 1]


def test_self_time_excludes_children():
    names = ["a", "b", "c"]
    spans = Spans(names, name=np.array([0, 1, 2, 1]), start=np.array([0.0, 1.0, 5.0, 1.5]),
                  end=np.array([10.0, 4.0, 9.0, 2.5]), parent=np.array([-1, 0, 0, 1]),
                  transforms=np.zeros(4, dtype=np.int64))
    assert list(spans.self_time) == [3.0, 2.0, 4.0, 1.0]
    assert list(spans.under("b")) == [False, False, False, True]
    assert spans.total("b") == 4.0
    assert spans.self_total("b") == 3.0


def test_untraced_worker_leaves_functions_unwrapped(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", "march",
         "--variant", "0", "--mode", "run", "--run-dir", str(tmp_path / "run")],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["wrapped"] == []
    assert report["mismatches"] == []
