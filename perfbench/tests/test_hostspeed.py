"""The host-speed scaling of round times (hostspeed.py).

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import hostspeed  # noqa: E402
from hostspeed import REF_NOMINAL_S, HostSpeed  # noqa: E402


class FakeHost:
    """A clock that only moves when told to, and reference samples read
    from a list."""

    def __init__(self, refs):
        self.now = 0.0
        self.refs = list(refs)

    def clock(self):
        return self.now

    def reference(self):
        return self.refs.pop(0)


def _speed(refs, pace=1.0):
    host = FakeHost([1.0] * hostspeed.WARMUP + refs)
    return host, HostSpeed(pace, reference=host.reference, clock=host.clock)


def test_steady_host_at_nominal_speed_reads_raw_time():
    host, speed = _speed([REF_NOMINAL_S] * 4)
    speed.start()
    for _ in range(5):
        host.now += 0.7
        speed.tick()
    raw, scaled = speed.stop()
    assert raw == pytest.approx(3.5)
    assert scaled == pytest.approx(3.5)
    assert len(speed.refs) == 4  # start, two paced cuts, stop


def test_each_stretch_is_scaled_by_its_bracketing_samples():
    r0, r1, r2 = 0.1, 0.4, 0.4
    host, speed = _speed([r0, r1, r2])
    speed.start()
    host.now += 0.5
    speed.tick()           # under the pace: no sample
    host.now += 1.5
    speed.tick()           # cut after 2.0 s
    host.now += 1.0
    raw, scaled = speed.stop()
    assert raw == pytest.approx(3.0)
    want = (2.0 * REF_NOMINAL_S / math.sqrt(r0 * r1)
            + 1.0 * REF_NOMINAL_S / math.sqrt(r1 * r2))
    assert scaled == pytest.approx(want)


def test_a_host_twice_as_slow_halves_the_scaled_time():
    host, speed = _speed([2 * REF_NOMINAL_S] * 2)
    speed.start()
    host.now += 4.0
    raw, scaled = speed.stop()
    assert (raw, scaled) == pytest.approx((4.0, 2.0))


def test_reference_runs():
    assert hostspeed.Reference()() > 0.0
