"""Demand history window, reservation sizing and borrowing."""

from statistics import fmean

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bwbroker.broker import DemandHistory, compute_borrowing, compute_reservation

CAP40 = 40.0


def test_history_rejects_bad_capacity():
    with pytest.raises(ValueError):
        DemandHistory(0, 2.0)


def test_history_rejects_negative_samples():
    h = DemandHistory(3, 2.0)
    with pytest.raises(ValueError):
        h.record_sample(-1)


def test_history_evicts_oldest():
    h = DemandHistory(60, 1.0)
    for i in range(61):
        h.record_sample(i)
    # sample 0 fell out: the mean is over 1..60
    assert compute_reservation(h, 100.0) == 30.5


def test_history_for_config_matches_window(cfg):
    h = DemandHistory.for_config(cfg)
    h.record_sample(20)
    for _ in range(59):
        h.record_sample(0)
    assert compute_reservation(h, CAP40) == 2.0 * 20 / 60
    h.record_sample(0)                  # the 61st sample evicts the first
    assert compute_reservation(h, CAP40) == 0.0


def test_reservation_examples():
    h = DemandHistory(60, 2.0)
    assert compute_reservation(h, CAP40) == 0.0      # cold start
    for k in (10, 15, 20):
        h.record_sample(k)
    assert compute_reservation(h, CAP40) == 30.0

    full = DemandHistory(60, 2.0)
    for _ in range(60):
        full.record_sample(25)
    assert compute_reservation(full, CAP40) == 40.0  # capped


@given(counts=st.lists(st.integers(0, 50), min_size=1, max_size=200),
       rate=st.floats(0.5, 5.0), cap=st.floats(1.0, 60.0))
def test_reservation_is_capped_windowed_mean(counts, rate, cap):
    h = DemandHistory(60, rate)
    for k in counts:
        h.record_sample(k)
    window = counts[-60:]
    got = compute_reservation(h, cap)
    assert got == min(rate * sum(window) / len(window), cap)   # exact integer total
    assert got == pytest.approx(min(fmean(rate * k for k in window), cap), rel=1e-12)
    assert 0.0 <= got <= cap


def test_borrowing_examples():
    assert compute_borrowing(40.0, 25.0) == 15.0
    assert compute_borrowing(40.0, 45.0) == 0.0
    assert compute_borrowing(40.0, 40.0) == 0.0


@given(reserved=st.floats(0.0, 60.0), available=st.floats(0.0, 60.0))
def test_borrowing_is_clamped_shortfall(reserved, available):
    assert compute_borrowing(reserved, available) == max(0.0, reserved - available)

