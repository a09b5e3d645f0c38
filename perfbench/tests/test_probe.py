"""The host-speed probe's rescaling and its signal handling."""

import signal
import time

import probe
from probe import REFERENCE_KERNEL_S, HostProbe


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_each_stretch_is_rescaled_by_the_kernel_after_it(monkeypatch):
    clock = FakeClock()
    kernel_s = [2e-3]

    def kernel():
        clock.now += kernel_s[0]

    monkeypatch.setattr(probe, "perf_counter", clock)
    monkeypatch.setattr(probe, "kernel", kernel)
    p = HostProbe()
    p.begin()
    clock.now += 0.010           # 10 ms of program at half speed
    p._on_alarm(signal.SIGALRM, None)
    kernel_s[0] = 0.5e-3
    clock.now += 0.004           # 4 ms at twice the reference speed
    p.end()
    assert p.ticks == 2
    assert abs(p.raw_s - 0.014) < 1e-12
    assert abs(p.ref_s - (0.010 / 2 + 0.004 * 2)) < 1e-12
    # Outside begin/end a tick is ignored.
    clock.now += 1.0
    p._on_alarm(signal.SIGALRM, None)
    assert p.ticks == 2 and abs(p.raw_s - 0.014) < 1e-12


def test_timer_ticks_during_work_and_handler_is_restored():
    before = signal.getsignal(signal.SIGALRM)
    with HostProbe() as p:
        p.begin()
        deadline = time.perf_counter() + 0.12
        while time.perf_counter() < deadline:
            pass
        p.end()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert p.ticks >= 3
    # Kernel time is not program time.
    assert 0.0 < p.raw_s < 0.12
    assert p.ref_s > 0.0


def test_setup_is_rescaled_by_the_median_kernel(monkeypatch):
    clock = FakeClock()
    times = iter([4e-3, 9e-3, 4e-3])

    def kernel():
        clock.now += next(times)

    monkeypatch.setattr(probe, "perf_counter", clock)
    monkeypatch.setattr(probe, "kernel", kernel)
    ref = probe.reference_seconds(2.0, samples=3)
    assert abs(ref - 2.0 * REFERENCE_KERNEL_S / 4e-3) < 1e-12
