"""Demand history window, reservation sizing and borrowing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bwbroker.broker import DemandHistory, compute_borrowing, compute_reservation

CAP40 = 40.0


def test_history_rejects_bad_capacity():
    with pytest.raises(ValueError):
        DemandHistory(0)


def test_history_rejects_negative_samples():
    h = DemandHistory(3)
    with pytest.raises(ValueError):
        h.record_sample(-0.1)


def test_history_evicts_oldest():
    h = DemandHistory(60)
    for i in range(61):
        h.record_sample(float(i))
    assert len(h) == 60
    assert h.samples[0] == 1.0     # sample 0 fell out
    assert h.samples[-1] == 60.0


def test_history_for_config_matches_window(cfg):
    h = DemandHistory.for_config(cfg)
    assert h.capacity == 60


def test_reservation_examples():
    h = DemandHistory(60)
    assert compute_reservation(h, CAP40) == 0.0      # cold start
    for v in (20.0, 30.0, 40.0):
        h.record_sample(v)
    assert compute_reservation(h, CAP40) == 30.0

    full = DemandHistory(60)
    for _ in range(60):
        full.record_sample(50.0)
    assert compute_reservation(full, CAP40) == 40.0  # capped


@given(samples=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=60),
       cap=st.floats(1.0, 60.0))
def test_reservation_is_capped_windowed_mean(samples, cap):
    h = DemandHistory(60)
    acc = 0.0
    for v in samples:
        h.record_sample(v)
        acc += v
    got = compute_reservation(h, cap)
    assert got == min(acc / len(samples), cap)       # bitwise, same summation
    assert 0.0 <= got <= cap


def test_borrowing_examples():
    assert compute_borrowing(40.0, 25.0) == 15.0
    assert compute_borrowing(40.0, 45.0) == 0.0
    assert compute_borrowing(40.0, 40.0) == 0.0


@given(reserved=st.floats(0.0, 60.0), available=st.floats(0.0, 60.0))
def test_borrowing_is_clamped_shortfall(reserved, available):
    assert compute_borrowing(reserved, available) == max(0.0, reserved - available)

