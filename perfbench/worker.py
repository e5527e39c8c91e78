"""One benchmark repetition in a fresh process.

    python3 perfbench/worker.py --workload NAME --variant I --mode MODE --run-dir DIR

MODE is `setup` (time the set-up only), `run` (set-up, then the timed
operation with the calibration kernel of `calibrate.py` beside it, then the
correctness check), `plain` (as `run`, without the kernel) or `trace` (as
`plain`, with the span tracer installed around the operation; spans go to
DIR/spans.npz).  The operation is timed as wall time and as this process's
CPU time (`wall_s`, `cpu_s`), the set-up as CPU time (`setup_s`).  The last
line of standard output is one JSON object with the measurements.
`--emit PATH` writes the output series instead of checking them, which is
how `reference.py` builds the reference.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "plain", "trace"), required=True)
    parser.add_argument("--run-dir")
    parser.add_argument("--emit")
    args = parser.parse_args(argv)

    t0 = time.process_time()
    import workloads

    prep = workloads.setup(args.workload, args.variant)
    setup_s = time.process_time() - t0
    import numpy

    report = {"setup_s": setup_s, "numpy": numpy.__version__}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    os.makedirs(args.run_dir, exist_ok=True)
    tracer = None
    host = contextlib.nullcontext()
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer().install()
    elif args.mode == "run":
        import calibrate

        host = calibrate.Beside()
    with host:
        t1 = time.perf_counter()
        c1 = time.process_time()
        try:
            result = workloads.operate(prep, args.run_dir)
        finally:
            wall_s = time.perf_counter() - t1
            cpu_s = time.process_time() - c1
            if tracer is not None:
                tracer.uninstall()
    report["wall_s"] = wall_s
    report["cpu_s"] = cpu_s
    if args.mode == "run":
        report["host_factor"] = host.factor
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        report["spans"] = os.path.join(args.run_dir, "spans.npz")
        tracer.write(report["spans"])
    else:
        from tracer import wrapped_objects

        report["wrapped"] = wrapped_objects()

    series, facts = workloads.outputs(prep, args.run_dir, result)
    report["facts"] = facts
    if args.emit:
        with open(args.emit, "w") as fh:
            json.dump(series, fh)
        print(json.dumps(report))
        return 0

    import reference

    ref = reference.load()[args.workload][str(args.variant)]
    report["mismatches"] = reference.compare(series, ref)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
