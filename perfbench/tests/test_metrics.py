"""Tests of how run.py turns call timings into the end-to-end metrics."""

import math

import pytest

import reference
import run


def _call(round_, seconds, slowness):
    return {"round": round_, "seconds": seconds, "slowness": slowness}


def test_call_s_divides_each_call_by_its_own_slowness():
    # a host twice as slow in round 1 doubles the wall time but not call_s
    result = {"setup_s": 0.2, "peak_rss_kb": 1000, "calls": [
        _call(0, 1.0, [1.0, 1.0]), _call(0, 3.0, [1.0, 1.0]),
        _call(1, 2.0, [2.0, 2.0]), _call(1, 6.0, [2.0, 2.0]),
        _call(2, 1.5, [1.0, 2.0]), _call(2, 4.5, [2.0, 1.0]),
    ]}
    metrics, wall = run.end_to_end(result, [0.2, 0.4])
    assert metrics["call_s"]["value"] == pytest.approx(2.0)
    assert wall["call_s"] == pytest.approx(3.0)
    assert wall["slowness"] == pytest.approx(1.5)
    assert metrics["setup_s"]["value"] == pytest.approx(0.2 / 1.5)
    assert metrics["peak_rss_mb"]["value"] == pytest.approx(1.024)


def test_setup_s_is_over_the_median_slowness():
    result = {"setup_s": 0.3, "peak_rss_kb": 1, "calls": [_call(0, 1.0, [1.5, 1.5])]}
    metrics, _ = run.end_to_end(result, [0.3, 0.3])
    assert metrics["setup_s"]["value"] == pytest.approx(0.2)


def test_slowness_is_the_geometric_mean_over_nominal(monkeypatch):
    ref = reference.Reference()
    times = {k: v * f for (k, v), f in zip(reference.NOMINAL_S.items(), (1, 2, 4, 1, 0.5))}
    monkeypatch.setattr(ref, "times", lambda: times)
    assert ref.slowness() == pytest.approx(2 ** 0.4)
    assert math.isfinite(reference.Reference().slowness())
