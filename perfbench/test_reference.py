"""The host-speed probe and the scaling of pass times."""
import signal
import time

import pytest

import reference

N = reference.NOMINAL_S["interp"]


def test_nominal_speed_leaves_times_alone():
    assert reference.scaled([1.0, 2.0], [N, N, N], N) == pytest.approx(3.0)


def test_each_job_uses_the_samples_around_it():
    # job 1 ran at half speed (samples 2N around it), job 2 at the mean
    # of 2N and 4N before and after it: a third of nominal speed.
    assert reference.scaled([2.0, 3.0], [2 * N, 2 * N, 4 * N], N) == pytest.approx(1.0 + 1.0)


def test_needs_a_sample_around_every_job():
    with pytest.raises(ValueError):
        reference.scaled([1.0, 2.0], [N, N], N)


@pytest.mark.parametrize("kind", sorted(reference.KERNELS))
def test_sample_is_positive_and_kernels_are_deterministic(kind):
    assert reference.sample(kind) > 0
    kernel = reference.KERNELS[kind]
    assert kernel() == kernel()
    assert reference.NOMINAL_S[kind] > 0


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_clock_cuts_long_work_and_leaves_probe_time_out(monkeypatch):
    def slow_sample(kind):
        busy(0.05)
        return N

    monkeypatch.setattr(reference, "sample", slow_sample)
    clock = reference.Clock()
    before = signal.getsignal(signal.SIGALRM)
    with clock.periodic(0.1):
        busy(0.45)
    clock.cut()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inner = len(clock.stretches) - 1  # samples taken inside the block
    assert inner >= 2
    assert len(clock.samples) == len(clock.stretches) + 1
    # the block's 0.45 s less the samples inside it
    assert clock.seconds() == pytest.approx(0.45 - 0.05 * inner, abs=0.02)
    assert clock.scaled() == pytest.approx(clock.seconds())


def test_clock_disarms_when_the_work_raises():
    clock = reference.Clock()
    with pytest.raises(KeyError), clock.periodic(0.05):
        raise KeyError("job failed")
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("kind", sorted(reference.KERNELS))
def test_job_done_cuts_only_for_probes_sampled_between_jobs(kind):
    clock = reference.Clock(kind)
    clock.job_done()
    assert len(clock.stretches) == int(reference.BETWEEN_JOBS[kind])


def test_a_cut_stops_the_timer_while_it_samples(monkeypatch):
    armed = []

    def watched_sample(kind):
        armed.append(signal.getitimer(signal.ITIMER_REAL)[0])
        return N

    monkeypatch.setattr(reference, "sample", watched_sample)
    clock = reference.Clock()
    with clock.periodic(5.0):
        clock.job_done()
        assert signal.getitimer(signal.ITIMER_REAL)[0] > 0
    assert armed[1:] == [0.0]
