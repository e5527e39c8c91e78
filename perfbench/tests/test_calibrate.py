"""Self-checks of the host-speed calibration kernel.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import calibrate  # noqa: E402


def busy(seconds):
    t0 = time.process_time()
    while time.process_time() - t0 < seconds:
        sum(range(1000))


def test_beside_measures_and_stops_the_kernel():
    cpus = os.sched_getaffinity(0)
    with calibrate.Beside() as host:
        assert os.sched_getaffinity(0) == {min(cpus)}
        busy(0.5)
    assert host.proc.poll() is not None
    assert os.sched_getaffinity(0) == cpus
    assert host.chunks > 0
    assert 0.0 < host.cpu_s < 0.5
    assert host.factor > 0.0


def test_beside_stops_the_kernel_when_the_block_raises():
    try:
        with calibrate.Beside() as host:
            raise KeyError("boom")
    except KeyError:
        pass
    assert host.proc.poll() is not None
    assert not hasattr(host, "chunks")
