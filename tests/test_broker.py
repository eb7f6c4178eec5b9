"""Demand sums, the windowed reservation over them, and the borrowing column."""

from statistics import fmean

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bwbroker.broker import compute_reservation, demand_sums
from bwbroker.model import table1
from test_metrics import leftover_and_borrowing

CAP40 = 40.0


def _after(counts, window, full, cap):
    """The reservation of the step after a play of the given channel counts."""
    return compute_reservation(demand_sums(counts), len(counts), window, full, cap)


def test_sums_are_running_totals_from_zero():
    assert demand_sums([]) == [0]
    assert demand_sums((3, 0, 2)) == [0, 3, 3, 5]


def test_the_window_drops_its_oldest_step():
    # sample 0 fell out of the 60-step window: the mean is over 1..60
    assert _after(range(61), 60, 1.0, 100.0) == 30.5


def test_table1_window_drops_the_first_step_once_full(cfg):
    window, full = cfg.history_samples, cfg.iptv_channel_max_bw_mbps
    counts = [20] + [0] * 59
    assert _after(counts, window, full, CAP40) == 2.0 * 20 / 60
    assert _after(counts + [0], window, full, CAP40) == 0.0  # the 61st step drops the first


def test_reservation_examples():
    assert _after([], 60, 2.0, CAP40) == 0.0      # cold start
    assert _after([10, 15, 20], 60, 2.0, CAP40) == 30.0
    assert _after([25] * 60, 60, 2.0, CAP40) == 40.0  # capped


def test_each_step_reads_only_the_sums_before_it():
    sums = demand_sums([10, 15, 20, 1000])
    assert [compute_reservation(sums, t, 2, 2.0, 100.0) for t in range(4)] == [
        0.0, 20.0, 25.0, 35.0]


@given(counts=st.lists(st.integers(0, 50), min_size=1, max_size=200),
       rate=st.floats(0.5, 5.0), cap=st.floats(1.0, 60.0))
def test_reservation_is_capped_windowed_mean(counts, rate, cap):
    window = counts[-60:]
    got = _after(counts, 60, rate, cap)
    assert got == min(rate * sum(window) / len(window), cap)   # exact integer total
    assert got == pytest.approx(min(fmean(rate * k for k in window), cap), rel=1e-12)
    assert 0.0 <= got <= cap


def test_borrowing_examples(cfg):
    # B_I of 35, 15 and 20 leave B_A of 25, 45 and 40 in table1's 60 Mbps cell
    got = leftover_and_borrowing([(35.0, 40.0), (15.0, 40.0), (20.0, 40.0)], cfg)
    assert got == [(25.0, 15.0), (45.0, 0.0), (40.0, 0.0)]


@given(reserved=st.floats(0.0, 60.0), non_iptv=st.floats(0.0, 120.0))
def test_borrowing_is_clamped_shortfall(reserved, non_iptv):
    [(available, borrowed)] = leftover_and_borrowing([(non_iptv, reserved)], table1())
    assert borrowed == max(0.0, reserved - available)
