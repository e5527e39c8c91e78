"""Host-speed calibration: a fixed kernel that runs beside each repetition.

    python3 perfbench/calibrate.py --cpu C

The benchmark runs on hosts shared with other tenants, where the speed a
single-threaded process gets changes by up to 1.8x, from one second to the
next and in phases of minutes (the same 100-step march took 1.0 s and 1.9 s
on a 2-core VM, a few minutes apart).  Process CPU time follows the slowdown
too, so it cannot be measured away.  A kernel measured before or after a
repetition does not follow it either: the speed has changed in between.

So `Beside` starts this kernel on the CPU the repetition runs on, at a
lower priority (nice 10: about a tenth of the CPU), for exactly the span of
the timed operation.  The scheduler interleaves the two every few
milliseconds, so both see the same host speed; each measures its own CPU
time.  The kernel's CPU time per chunk over that span, divided by its
reference, is the host's speed factor for the repetition.  On a 2-core VM
the 100-step march's CPU time moved by 1.6x over a minute while its CPU time
divided by that factor stayed within +-4%.

The kernel does the kind of work the workloads do (numpy FFTs and
elementwise complex arithmetic at n = 2048, Python-level float conversion),
imports numpy alone, never `holoww`, and runs in a process of its own, so a
change to the program moves the repetition's time and not the kernel's.
Run as a script it warms up, prints `ready`, runs chunks until SIGTERM, and
prints a JSON object: whole chunks run and the CPU seconds they took.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

N = 2048
ROUNDS = 10
NICE = 10
# CPU seconds per chunk at the reference host speed (a 2-core VM, Python
# 3.11, numpy 2.4, in a quiet phase); the benchmark reports times at it
CHUNK_REF_S = 0.0011
# the kernel stops by itself after this long, or when its parent is gone
MAX_S = 600.0


def make_chunk():
    """The unit of calibration work (about 1 ms at the reference speed)."""
    import numpy as np

    rng = np.random.default_rng(20200924)
    x0 = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    k = 1j * np.fft.fftfreq(N, 1.0 / N)

    def chunk():
        x = x0
        acc = 0.0
        for _ in range(ROUNDS):
            y = np.fft.ifft(k * np.fft.fft(x))
            x = (y * np.conj(x) + 0.5 * x) / (1.0 + np.abs(y).max()) + x0
            acc += sum(float(v) for v in x[:16].real)
        return acc

    return chunk


class Beside:
    """Context manager: pins this process to one CPU and runs the kernel on
    that CPU for the span of the block; the pinning is undone after it.
    Afterwards `chunks` and `cpu_s` hold what the kernel did, and `factor`
    the host's speed factor (above 1 when the host ran slower than the
    reference speed)."""

    def __enter__(self):
        self.cpus = os.sched_getaffinity(0)
        cpu = min(self.cpus)
        os.sched_setaffinity(0, {cpu})
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--cpu", str(cpu)],
            stdout=subprocess.PIPE, text=True)
        try:
            if self.proc.stdout.readline().strip() != "ready":
                raise RuntimeError("calibration kernel did not start")
        except BaseException:
            self._stop()
            os.sched_setaffinity(0, self.cpus)
            raise
        return self

    def _stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return out

    def __exit__(self, *exc):
        out = self._stop()
        os.sched_setaffinity(0, self.cpus)
        if exc[0] is None:
            report = json.loads(out.strip().splitlines()[-1])
            self.chunks, self.cpu_s = report["chunks"], report["cpu_s"]
            if not self.chunks:
                raise RuntimeError("calibration kernel ran no chunk")
            self.factor = self.cpu_s / self.chunks / CHUNK_REF_S
        return False


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    os.nice(NICE)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    parent = os.getppid()
    chunk = make_chunk()
    chunk()
    print("ready", flush=True)
    n = 0
    cpu = 0.0
    c0 = time.process_time()
    deadline = time.perf_counter() + MAX_S
    while not stop and os.getppid() == parent and time.perf_counter() < deadline:
        chunk()
        n += 1
        cpu = time.process_time() - c0
    print(json.dumps({"chunks": n, "cpu_s": cpu}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
