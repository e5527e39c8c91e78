"""The holoww benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload, each in a fresh single-threaded
subprocess (`worker.py`), one at a time, until S seconds are used up (at
least one repetition; a repetition is not started if it would end past the
budget).  Set-up is timed in every subprocess and in SETUP_PROBES extra
set-up-only subprocesses, after one warm-up subprocess that is discarded.
Run directories live in a temporary directory inside the checkout that is
removed at the end.

With `--trace 0` it reports the end-to-end metrics at the reference host
speed of `calibrate.py`, whose kernel runs beside every timed operation on
the same CPU and gives each repetition's host speed factor.  `time_s`, the
time to solution, is the mean over repetitions of the operation's CPU time
(the worker is single-threaded, so on a quiet host this is its wall time)
divided by that repetition's factor.  `setup_s` is the median CPU time of
set-up divided by the run's median factor.  `peak_rss_mb` is the median
peak RSS, as measured.  On a shared host the speed a process gets changes by
up to 1.8x, from second to second and in phases of minutes; no statistic
inside a run removes a phase longer than the run, but the factor follows
it.  The raw figures and the factors are printed in the context line.

With `--trace 1` every third repetition runs with neither tracer nor
kernel and the others run under the span tracer; it reports the
per-layer metrics of the traced repetitions and the tracing overhead
(traced minus untraced CPU time of the operation, lower quartiles).  Every
repetition's outputs are checked against `reference.json`.

Standard output ends with one JSON line: correct, attempted, failed,
metrics.  The line before it holds the run's context (versions, core count,
`git describe`, source line count) and per-repetition detail.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402  (the benchmark's own module, found via HERE)
import tracer  # noqa: E402

SETUP_PROBES = 8
HARD_CAP_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SUITE_NAMES = ("identities", "cancellation", "consistency", "packets", "structure")
SYMBOLS = ("lp.LPBlock.symbol", "lp.lowpass_symbol", "lp.highpass_symbol",
           "lp.band_symbol", "lp.band_low_symbol", "lp.band_high_symbol")
# per-layer timing samples pooled over traced repetitions: metric -> span
SAMPLED = {
    "dynamics.step.ms_p50": "dynamics.step",
    "dynamics.hamiltonian.ms_p50": "dynamics.hamiltonian",
    "paradiff.para.ms_p50": "paradiff.para",
    "normalform.scaling_fields.ms_p50": "normalform.scaling_fields",
    "normalform.cubic_sources.ms_p50": "normalform.cubic_sources",
    "packets.build_packet.ms_p50": "packets.build_packet",
    "diagnostics.control_norms.ms_p50": "diagnostics.control_norms",
    "diagnostics.ell_hyp_split.ms_p50": "diagnostics.ell_hyp_split",
    "runner.checkpoint.ms_p50": "dynamics.save_state",
    "runner.load_state.ms": "dynamics.load_state",
}
P98_MIN_SAMPLES = 500  # at least ten samples beyond the 98th percentile


def metric(value, unit):
    return {"value": value, "unit": unit}


def rep_mode(trace, i):
    """Worker mode of repetition i: calibrated (`run`) in an untraced run;
    in a traced run every third one untraced and uncalibrated (`plain`)."""
    if not trace:
        return "run"
    return "trace" if i % 3 else "plain"


def lower_quartile(values):
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


# subprocesses ------------------------------------------------------------------

def child_env(tmp):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = tmp
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args, env, timeout):
    """Run one worker; its JSON report, or None if it failed.  The worker
    and the calibration kernel it starts share a process group, which is
    killed if the worker times out."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"worker timed out: {' '.join(args)}", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker failed ({proc.returncode}): {' '.join(args)}\n"
              f"{err[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


# per-layer metrics ----------------------------------------------------------

def rep_layers(sp, wall, facts):
    """Per-layer figures of one traced repetition, and its timing samples."""
    fft = sp.with_prefix(tracer.FFT_PREFIX)
    steps = sp.count("dynamics.step")
    fft_s = float(sp.dur[fft].sum())
    step_s = sp.total("dynamics.step")
    sim_s = sp.total("runner.simulate")
    m = {
        "grid.fft_count": int(sp.transforms[fft].sum()),
        "grid.fft_per_step": (float(sp.transforms[fft & sp.under("dynamics.step")].sum()) / steps
                              if steps else 0.0),
        "grid.fft_s": fft_s,
        "grid.fft_share": fft_s / wall,
        "dynamics.step.count": steps,
        "dynamics.step_share": step_s / wall,
        "dynamics.rhs_full.count": sp.count("dynamics.rhs_full"),
        "dynamics.WaveState.count": sp.count("dynamics.WaveState"),
        "lp.symbol.count": sp.count(*SYMBOLS),
        "lp.symbol_s": sp.total(*SYMBOLS),
        "lp.besov_inf2.count": sp.count("lp.besov_inf2"),
        "paradiff.para.count": sp.count("paradiff.para"),
        "paradiff.balanced.count": sp.count("paradiff.balanced"),
        "paradiff.self_s": sp.self_total("paradiff."),
        "normalform.para_nf.count": sp.count("normalform.para_nf"),
        "normalform.nf_rate.count": sp.count("normalform.nf_rate"),
        "normalform.evaluate_terms.s": sp.total("normalform.evaluate_terms"),
        "normalform.evaluate_terms.share": sp.total("normalform.evaluate_terms") / wall,
        "packets.build_packet.count": sp.count("packets.build_packet"),
        "packets.gamma_value.count": sp.count("packets.gamma_value"),
        "packets.gamma_rate.count": sp.count("packets.gamma_rate"),
        "runner.norm_rows": facts.get("norms_rows", 0),
        "runner.gamma_rows": facts.get("gamma_rows", 0),
        "runner.analysis_share": (sim_s - step_s) / sim_s if sim_s else 0.0,
        "runner.checkpoint.bytes": facts.get("checkpoint_bytes", 0.0),
        "runner.checkpoint_share": sp.total("dynamics.save_state") / wall,
    }
    for suite in SUITE_NAMES:
        m[f"suites.{suite}.s"] = sp.total(f"suites.suite_{suite}")
    samples = {k: list(sp.durations(span) * 1e3) for k, span in SAMPLED.items()}
    return m, samples


# per-layer figures that count work; they must repeat exactly between runs
COUNTS = ("grid.fft_count", "dynamics.step.count", "dynamics.rhs_full.count",
          "dynamics.WaveState.count", "lp.symbol.count", "lp.besov_inf2.count",
          "paradiff.para.count", "paradiff.balanced.count",
          "normalform.para_nf.count", "normalform.nf_rate.count",
          "packets.build_packet.count", "packets.gamma_value.count",
          "packets.gamma_rate.count", "runner.norm_rows", "runner.gamma_rows")
UNITS = dict.fromkeys(COUNTS, "count")
UNITS.update({f"suites.{suite}.s": "s" for suite in SUITE_NAMES})
UNITS.update({
    "grid.fft_per_step": "count/step", "grid.fft_s": "s", "grid.fft_share": "ratio",
    "dynamics.step_share": "ratio", "lp.symbol_s": "s", "paradiff.self_s": "s",
    "normalform.evaluate_terms.s": "s", "normalform.evaluate_terms.share": "ratio",
    "runner.analysis_share": "ratio", "runner.checkpoint.bytes": "bytes",
    "runner.checkpoint_share": "ratio",
})


def layer_metrics(per_rep, samples, traced_cpu, plain_cpu):
    """Combine traced repetitions: counts from the first (they must repeat),
    times and shares as medians, timing samples pooled."""
    out = {}
    for key in per_rep[0]:
        if key in COUNTS:
            value = per_rep[0][key]
        else:
            value = statistics.median(r[key] for r in per_rep)
        out[key] = metric(value, UNITS[key])
    pooled = {k: [x for s in samples for x in s[k]] for k in SAMPLED}
    for key, vals in pooled.items():
        out[key] = metric(statistics.median(vals) if vals else 0.0, "ms")
    steps = pooled["dynamics.step.ms_p50"]
    p98 = statistics.quantiles(steps, n=50)[-1] if len(steps) >= P98_MIN_SAMPLES else 0.0
    out["dynamics.step.ms_p98"] = metric(p98, "ms")
    out["dynamics.step.samples"] = metric(len(steps), "count")
    plain = lower_quartile(plain_cpu)
    overhead = lower_quartile(traced_cpu) - plain
    out["trace.overhead_s"] = metric(overhead, "s")
    out["trace.overhead_share"] = metric(overhead / plain, "ratio")
    return out


# context ----------------------------------------------------------------------

def context(numpy_version):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        describe = None
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "git_describe": describe,
        "src_lines": src_lines,
    }


# main -------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=reference.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "holoww", "__init__.py")):
        print("error: no holoww sources under src/ in this checkout", file=sys.stderr)
        return 2
    variant = str(args.seed % reference.VARIANTS)
    ref = reference.load()[args.workload][variant]
    start = time.perf_counter()
    deadline = start + args.seconds
    attempted = failed = 0
    correct = True
    setups, plain, traced, per_rep, samples, counts, detail = [], [], [], [], [], [], []

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        env = child_env(tmp)
        base = ["--workload", args.workload, "--variant", variant]

        def remaining():
            return start + HARD_CAP_S - time.perf_counter()

        for i in range(1 + SETUP_PROBES):
            r = run_child(base + ["--mode", "setup"], env, remaining())
            if r is None:
                return 1
            if i:
                setups.append(r["setup_s"])
        numpy_version = r["numpy"]

        last = {}
        i = 0
        while True:
            mode = rep_mode(args.trace, i)
            run_dir = os.path.join(tmp, f"rep{i}")
            t0 = time.perf_counter()
            r = run_child(base + ["--mode", mode, "--run-dir", run_dir], env, remaining())
            last[mode] = time.perf_counter() - t0
            i += 1
            ok, n_ops, n_failed = judge(args.workload, ref, r)
            attempted += n_ops
            failed += n_failed
            correct = correct and ok
            if r is not None:
                setups.append(r["setup_s"])
                detail.append({"mode": mode, "wall_s": r["wall_s"], "cpu_s": r["cpu_s"],
                               "host_factor": r.get("host_factor"), "rss_mb": r["rss_mb"],
                               "mismatches": r["mismatches"], "facts": r["facts"]})
                if mode != "trace":
                    plain.append(r)
                else:
                    sp = tracer.Spans.load(r["spans"])
                    m, s = rep_layers(sp, r["wall_s"], r["facts"])
                    per_rep.append(m)
                    samples.append(s)
                    counts.append(sp.counts())
                    traced.append(r["cpu_s"])
            shutil.rmtree(run_dir, ignore_errors=True)
            now = time.perf_counter()
            need_more = args.trace and (len(traced) < 2 or not plain)
            next_mode = rep_mode(args.trace, i)
            predicted = last.get(next_mode, last[mode])
            if remaining() < predicted + 5.0:
                break
            if not need_more and now + predicted > deadline:
                break

    if not plain or (args.trace and not traced):
        print("error: no repetition completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = layer_metrics(per_rep, samples, traced, [r["cpu_s"] for r in plain])
        repeat = all(c == counts[0] for c in counts) and all(
            r[k] == per_rep[0][k] for r in per_rep for k in COUNTS)
        raw = None
    else:
        factors = [r["host_factor"] for r in plain]
        raw = {"wall_s": statistics.mean(r["wall_s"] for r in plain),
               "cpu_s": statistics.mean(r["cpu_s"] for r in plain),
               "setup_s": statistics.median(setups), "host_factors": factors}
        metrics = {
            "time_s": metric(statistics.mean(r["cpu_s"] / r["host_factor"] for r in plain), "s"),
            "setup_s": metric(raw["setup_s"] / statistics.median(factors), "s"),
            "peak_rss_mb": metric(statistics.median(r["rss_mb"] for r in plain), "MB"),
        }
        repeat = None
    info = {"context": context(numpy_version), "workload": args.workload,
            "variant": int(variant), "raw": raw,
            "setup_samples": setups, "counts_repeat": repeat, "repetitions": detail}
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def judge(name, ref, report):
    """(outputs correct, operations attempted, operations failed) of one
    repetition.  A crashed repetition fails every operation it owns."""
    ops = reference.operations(name, ref)
    if report is None:
        return False, len(ops), len(ops)
    if report.get("wrapped"):
        print(f"untraced run left wrappers installed: {report['wrapped']}", file=sys.stderr)
        return False, len(ops), len(ops)
    bad = set(report["mismatches"])
    if name == "verify-core":
        red = set(report["facts"]["red"])
        failing = {k for k in ops if k in bad or k[len("check."):] in red}
        return not bad, len(ops), len(failing)
    failing = {reference.operation_of(name, k) for k in bad}
    return not bad, len(ops), len(failing)


if __name__ == "__main__":
    sys.exit(main())
