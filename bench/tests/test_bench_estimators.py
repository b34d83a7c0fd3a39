"""Estimator maths on synthetic series (no library, no clock)."""

import random

import pytest

import calib
from calib import CAL_REF_S, Wave


def synthetic(latency_s, width, slowdowns, cpu_s=None, kernel_s=0.011):
    """Waves of ``width`` jobs finishing at 1/W .. W/W of ``latency_s``.

    ``slowdowns[i]`` is the host's speed factor in gap ``i``; a wave runs
    at the mean of its two gaps, exactly like its calibration pair.
    """
    waves, clock = [], 0.0
    for before, after in zip(slowdowns, slowdowns[1:]):
        host = (before + after) / 2
        makespan = latency_s * host
        waves.append(Wave(
            start=clock, end=clock + makespan,
            latencies=[makespan * (k + 1) / width for k in range(width)],
            cpu=(cpu_s if cpu_s is not None else latency_s) * host,
            cpu_workers=0.0,
            cal_before=kernel_s * before, cal_after=kernel_s * after,
        ))
        clock += makespan + 1.0
    return waves


def test_factor_is_reference_over_pair_mean():
    assert calib.factor(0.0125, 0.0125) == pytest.approx(1.0)
    assert calib.factor(0.020, 0.030) == pytest.approx(CAL_REF_S / 0.025)


def test_common_slowdown_cancels():
    rng = random.Random(5)
    quiet = synthetic(0.150, 1, [1.0] * 41)
    drifting = synthetic(
        0.150, 1, [1.0 + 0.5 * rng.random() + i / 40 for i in range(41)]
    )
    doubled = synthetic(0.150, 1, [2.0] * 41)
    want = calib.latency_mean_ms(quiet)
    assert want == pytest.approx(150.0 * CAL_REF_S / 0.011)
    for series in (drifting, doubled):
        assert calib.latency_mean_ms(series) == pytest.approx(want)
        assert calib.jobs_per_s(series, 1) == pytest.approx(
            calib.jobs_per_s(quiet, 1)
        )
        assert calib.cpu_ms_per_job(series, 1) == pytest.approx(
            calib.cpu_ms_per_job(quiet, 1)
        )


def test_program_slowdown_does_not_cancel():
    """Only the host's part is divided out: a slower program shows."""
    base = synthetic(0.150, 1, [1.3] * 31)
    slower = synthetic(0.165, 1, [1.3] * 31)
    ratio = calib.latency_mean_ms(slower) / calib.latency_mean_ms(base)
    assert ratio == pytest.approx(1.10)


def test_wide_wave_mean_and_makespan():
    waves = synthetic(0.400, 4, [1.0] * 11, kernel_s=CAL_REF_S)
    # Jobs finish at 100, 200, 300, 400 ms: mean 250, makespan 400.
    assert calib.latency_mean_ms(waves) == pytest.approx(250.0)
    assert calib.jobs_per_s(waves, 4) == pytest.approx(10.0)
    assert calib.cpu_ms_per_job(waves, 4) == pytest.approx(100.0)


def test_preempted_waves_do_not_move_the_midmean():
    waves = synthetic(0.150, 1, [1.0] * 31, kernel_s=CAL_REF_S)
    for index in (3, 7, 11, 19, 23):  # a sixth of the waves, hit hard
        waves[index].end += 0.300
        waves[index].latencies = [waves[index].makespan]
    assert calib.latency_mean_ms(waves) == pytest.approx(150.0)
    assert calib.jobs_per_s(waves, 1) == pytest.approx(1 / 0.150)


def test_midmean_follows_a_bimodal_mixture_smoothly():
    """Two batch patterns 16 % apart: the estimate moves with their
    share instead of jumping when the share crosses one half."""
    low, high = 0.70, 0.81
    estimates = [
        calib.midmean([low] * (24 - k) + [high] * k) for k in (10, 12, 14)
    ]
    assert low < estimates[0] < estimates[1] < estimates[2] < high
    steps = [b - a for a, b in zip(estimates, estimates[1:])]
    assert max(steps) < 0.03 * low
    assert calib.midmean([5.0]) == 5.0
    with pytest.raises(ValueError):
        calib.midmean([])


def test_quantised_cpu_ticks_stay_within_one_tick_per_job():
    """Kernels without schedstats report CPU in 10 ms ticks."""
    tick, true_cpu, width = 0.010, 0.1537, 2
    rng = random.Random(9)
    waves, counter = [], rng.random() * tick
    for wave in synthetic(0.160, width, [1.0] * 61, kernel_s=CAL_REF_S):
        before = int(counter / tick)
        counter += true_cpu
        wave.cpu = (int(counter / tick) - before) * tick
        counter += rng.random() * tick  # idle gap, some harness CPU
        waves.append(wave)
    got = calib.cpu_ms_per_job(waves, width)
    assert abs(got - 1e3 * true_cpu / width) <= 1e3 * tick / width


def test_percentile_interpolates():
    assert calib.percentile([1, 2, 3, 4, 5], 50) == 3
    assert calib.percentile([1, 2, 3, 4, 5], 10) == pytest.approx(1.4)
    assert calib.percentile([7], 95) == 7
    with pytest.raises(ValueError):
        calib.percentile([], 50)


def test_kernel_is_deterministic_and_library_free():
    first, second = calib.Calibrator(), calib.Calibrator()
    assert first.kernel() == second.kernel()
    source = (calib.__file__ and open(calib.__file__).read()) or ""
    assert "import repro" not in source and "from repro" not in source
