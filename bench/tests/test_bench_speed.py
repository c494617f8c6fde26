"""The speed sampler: samples land in the window and the handler is put back."""

import signal
import time

import speed


def test_sampler_times_the_kernel_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler("objects", 0.01) as sampler:
        t0 = time.perf_counter()
        time.sleep(0.1)
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.ms) >= 3
    assert sampler.spent_s >= sum(sampler.ms) / 1e3 * 0.99
    assert sampler.slowdown(t0, t1) > 0


def test_slowdown_uses_only_samples_near_the_call():
    sampler = speed.Sampler("arrays", 0.01)
    sampler.at = [0.0, 0.5, 1.0]
    sampler.ms = [1.0 * sampler.reference_ms, 3.0 * sampler.reference_ms, 9.0 * sampler.reference_ms]
    assert sampler.slowdown(0.49, 0.51) == 3.0
    assert sampler.slowdown(0.0, 0.5) == 2.0
    # no sample in the window: the nearest one stands in
    assert sampler.slowdown(0.7, 0.71) == 3.0
