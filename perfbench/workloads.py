"""Benchmark workloads: inputs, the timed operation, and its outputs.

Each workload does a fixed amount of work through the public entry points
`runner.simulate`, `dynamics.load_state` and `suites.verify`.  The workload
seed picks one of three input variants (seed % 3); references
for every variant are stored in `reference.json`.

Importing this module imports `holoww`, which is part of the timed set-up.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from holoww import dynamics, runner, suites

# plateau amplitude of variant i is EPS * EPS_FACTORS[i]
EPS = 1e-3
EPS_FACTORS = (1.0, 0.95, 1.05)
VERIFY_SEEDS = (1234, 1235, 1236)
CORE_SUITES = ("identities", "cancellation", "consistency", "packets", "structure")

# dt pinned to the runner default; every other key not listed keeps its default
CONFIGS = {
    # plain time stepping on the desk grid: norms only at both ends, no gamma
    "march": {
        "grid.n": 2048,
        "step.dt": 0.2,
        "run.t_end": 20.0,
        "run.norm_every": 20.0,
        "run.checkpoint_every": 1000.0,
        "gamma.enabled": False,
    },
    # long-domain grid of the structure suite; checkpoints, then load_state
    "march-xl": {
        "grid.n": 65536,
        "grid.length": 12800.0 * math.pi,
        "step.dt": 0.2,
        "run.t_end": 0.8,
        "run.norm_every": 1000.0,
        "run.checkpoint_every": 0.4,
        "gamma.enabled": False,
    },
    # analysis-heavy: norms and gamma every other step.  The runner's
    # accumulated time reads 9.399999999999999 at step 47, so the first gamma
    # sample (t = 9.4) is dropped; runner.gamma_rows shows it
    "sampled": {
        "grid.n": 2048,
        "step.dt": 0.2,
        "run.t_end": 11.0,
        "run.norm_every": 0.4,
        "run.checkpoint_every": 1000.0,
        "gamma.enabled": True,
        "gamma.start": 9.4,
        "gamma.every": 0.4,
        "gamma.velocities": 9,
    },
}

SKETCH_ROWS = 32
SKETCH_SEED = 20200924


def config_text(name, variant):
    values = dict(CONFIGS[name], **{"data.kind": "plateau",
                                    "data.eps": EPS * EPS_FACTORS[variant]})
    return "".join(f"{k} = {v}\n" for k, v in sorted(values.items()))


@dataclass
class Prepared:
    """Everything set up before the timed operation."""

    name: str
    variant: int
    cfg: object = None
    state0: object = None


def setup(name, variant):
    """Config parse, grid and initial state (the part of `setup_s` after import)."""
    if name == "verify-core":
        return Prepared(name, variant)
    cfg = runner.RunConfig.parse(config_text(name, variant))
    cfg.grid()
    return Prepared(name, variant, cfg, cfg.initial_state())


def operate(prep, run_dir):
    """The timed operation; returns what `outputs` needs."""
    if prep.name == "verify-core":
        checks = []
        for suite in CORE_SUITES:
            checks.extend(suites.verify(suite, seed=VERIFY_SEEDS[prep.variant]))
        return checks
    runner.simulate(prep.cfg, run_dir)
    if prep.name == "march-xl":
        ckpts = sorted(f for f in os.listdir(run_dir)
                       if f.startswith("state_") and f != "state_final.txt")
        state, _ = dynamics.load_state(os.path.join(run_dir, ckpts[-1]))
        return state
    return None


# outputs -----------------------------------------------------------------------

def sketch(coef):
    """Fixed +-1 projections of a coefficient array (real and imaginary parts).

    A change of relative L2 size eta in `coef` moves the sketch by about eta
    times its own scale, so comparing sketches at 1e-10 relative checks the
    whole array at that level without storing it.
    """
    rng = np.random.default_rng(SKETCH_SEED)
    out = np.empty(SKETCH_ROWS, dtype=complex)
    for j in range(SKETCH_ROWS):
        out[j] = np.dot(rng.choice((-1.0, 1.0), size=coef.size), coef)
    return [float(x) for x in np.concatenate([out.real, out.imag])]


def _state_series(prefix, state):
    return {f"{prefix}.t": [float(state.t)],
            f"{prefix}.w": sketch(state.w.coef),
            f"{prefix}.q": sketch(state.q.coef)}


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
    cols = {h: [r[i] for r in rows] for i, h in enumerate(header)}
    return header, cols, len(rows)


def outputs(prep, run_dir, result):
    """Output series (name -> list of floats) and per-run facts."""
    if prep.name == "verify-core":
        series = {f"check.{c.cid}": [float(c.measured)] for c in result}
        red = sorted(c.cid for c in result if not c.informational and not c.passed)
        return series, {"checks": len(result), "red": red}
    series = _state_series("initial", prep.state0)
    final, _ = dynamics.load_state(os.path.join(run_dir, "state_final.txt"))
    series.update(_state_series("final", final))
    facts = {}
    for kind in ("norms", "gamma"):
        _, cols, nrows = read_csv(os.path.join(run_dir, f"{kind}.csv"))
        series.update({f"{kind}.{h}": v for h, v in cols.items()})
        facts[f"{kind}_rows"] = nrows
    ckpts = sorted(f for f in os.listdir(run_dir) if f.startswith("state_"))
    series["checkpoint.t"] = [float(f[6:-4]) for f in ckpts if f != "state_final.txt"]
    sizes = [os.path.getsize(os.path.join(run_dir, f)) for f in ckpts]
    facts["checkpoint_bytes"] = sum(sizes) / len(sizes)
    if result is not None:
        series.update(_state_series("loaded", result))
    return series, facts
