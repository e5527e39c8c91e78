"""Reference outputs and the comparison that gates correctness.

`reference.json` holds, per workload and input variant, every output series
of the program as of commit cec5c1b: state sketches, every column of
norms.csv and gamma.csv, checkpoint times, and each `Check.measured` of the
verify suites.  A series matches when

    max |got - ref| <= RTOL * max |ref|

(1e-10 relative to the series' own scale).  The only wider tolerances are
the checks in ROUNDOFF_FLOOR: their reference value sits at the rounding
floor, far inside their gate, and changes by 100% under a change of input
seed alone (identities suite, seeds 1234/1235/1236: f-identity
1.8e-15/3.9e-15/3.2e-15, m-identity 2.0e-15/2.4e-15/2.4e-15; the others
read 0, 2.2e-16, 1.1e-17 or 1.2e-18 against bounds of 1e-12 to 1.2e-3), so
relative agreement cannot be asked of them.  Each must instead stay within
FLOOR_SHARE times its gate bound of the reference value.

Regenerate (only on a program whose outputs are the accepted truth):

    python3 perfbench/reference.py
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "reference.json")
NAMES = ("march", "march-xl", "sampled", "verify-core")
VARIANTS = 3
# operations of one repetition of each simulate workload
OPERATIONS = {
    "march": ("simulate",),
    "march-xl": ("simulate", "load_state"),
    "sampled": ("simulate",),
}
RTOL = 1e-10
FLOOR_SHARE = 1e-3

# check id -> gate bound; measured values at the rounding floor (see above)
ROUNDOFF_FLOOR = {
    "trichotomy-residual": 1e-12,
    "f-identity": 1e-10,
    "m-identity": 1e-10,
    "taylor-term-real": 1e-10,
    "projector-idempotent": 1e-12,
    "projector-orthogonal": 1e-12,
    "partition-of-unity": 1e-12,
    "null-pairing-first-equation": 1e-10,
    # gate is 10x the dt = 0.1 estimator mismatch, 1.2157e-3 in the reference
    "scaling-identity-defect": 1.2156575194015545e-3,
}


def load():
    with open(PATH) as fh:
        return json.load(fh)


def tolerance(key, ref):
    cid = key[len("check."):] if key.startswith("check.") else None
    if cid in ROUNDOFF_FLOOR:
        return FLOOR_SHARE * ROUNDOFF_FLOOR[cid]
    return RTOL * max((abs(x) for x in ref), default=0.0)


def compare(series, ref):
    """Keys of `ref` whose series is missing, reshaped or out of tolerance."""
    bad = []
    for key, want in ref.items():
        got = series.get(key)
        if got is None or len(got) != len(want):
            bad.append(key)
            continue
        tol = tolerance(key, want)
        if any(not abs(g - w) <= tol for g, w in zip(got, want)):
            bad.append(key)
    return bad


def operations(name, ref):
    """The operations one repetition attempts: each gating check of the
    verify suites, or the public calls of a simulate workload."""
    if name == "verify-core":
        return sorted(ref)
    return OPERATIONS[name]


def operation_of(name, key):
    """Which operation of a repetition an output series belongs to."""
    if name == "march-xl" and key.startswith("loaded."):
        return "load_state"
    return "simulate"


def generate():
    """Run every workload and variant once and store its outputs."""
    root = os.path.dirname(HERE)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = {}
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmp:
        for name in NAMES:
            out[name] = {}
            for variant in range(VARIANTS):
                emit = os.path.join(tmp, "outputs.json")
                run_dir = os.path.join(tmp, f"{name}-{variant}")
                subprocess.run(
                    [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
                     "--variant", str(variant), "--mode", "run", "--run-dir", run_dir,
                     "--emit", emit],
                    env=env, cwd=root, check=True, stdout=subprocess.DEVNULL,
                )
                with open(emit) as fh:
                    out[name][str(variant)] = json.load(fh)
                print(f"{name} variant {variant}: {len(out[name][str(variant)])} series")
    with open(PATH, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    generate()
