"""Seeded random streams, draw procedures and the per-step event feed."""

import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bwbroker.model import table1
from bwbroker.traffic import (
    EventKind,
    RngStream,
    TrafficGenerator,
    channel_probabilities,
    effective_hold_min,
    gen_poisson_count,
    pick_channel,
    sample_holding_time,
    viewer_rate_for_mean_channels,
)


def test_stream_values_are_frozen():
    # pinned outputs; a change here breaks replay of every recorded run
    s = RngStream(123, 0)
    assert [s.random() for _ in range(5)] == [
        0.3806040475696586,
        0.3717578496998839,
        0.8299335199016119,
        0.5108192095801983,
        0.8652900022306158,
    ]
    s1 = RngStream(123, 1)
    assert [s1.random() for _ in range(3)] == [
        0.7424327528439773,
        0.10249281174196512,
        0.5827177689399224,
    ]


def test_streams_with_same_seed_do_not_collide():
    a = RngStream(42, 0)
    b = RngStream(42, 1)
    assert [a.random() for _ in range(8)] != [b.random() for _ in range(8)]


def test_poisson_zero_rate_draws_nothing():
    r = RngStream(5, 0)
    assert gen_poisson_count(0.0, 1.0, r) == 0
    # and must not have consumed any randomness
    assert r.random() == RngStream(5, 0).random()


def test_poisson_counts_are_frozen():
    r = RngStream(7, 0)
    assert [gen_poisson_count(3.0, 1.0, r) for _ in range(8)] == [3, 2, 0, 4, 4, 3, 4, 2]


def test_poisson_mean_converges():
    r = RngStream(11, 0)
    n = 4000
    mean = sum(gen_poisson_count(4.0, 1.0, r) for _ in range(n)) / n
    assert mean == pytest.approx(4.0, abs=3 * math.sqrt(4.0 / n))


def test_poisson_mean_is_exact_past_exp_underflow():
    # exp(-2000) underflows to 0.0, which a single product run cannot reach
    r = RngStream(13, 1)
    n = 200
    mean = sum(gen_poisson_count(2000.0, 1.0, r) for _ in range(n)) / n
    assert mean == pytest.approx(2000.0, abs=4 * math.sqrt(2000.0 / n))


@given(rate=st.floats(0.0, 20.0), seed=st.integers(0, 1000))
def test_poisson_count_is_a_nonnegative_int(rate, seed):
    k = gen_poisson_count(rate, 1.0, RngStream(seed, 0))
    assert isinstance(k, int)
    assert k >= 0


def test_channel_probabilities_uniform():
    probs = channel_probabilities(30, 0.0)
    assert len(probs) == 30
    assert all(p == pytest.approx(1 / 30, abs=1e-12) for p in probs)
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_channel_probabilities_skewed():
    probs = channel_probabilities(3, 1.0)
    assert probs[0] == pytest.approx(6 / 11, abs=1e-12)
    assert probs[1] == pytest.approx(3 / 11, abs=1e-12)
    assert probs[2] == pytest.approx(2 / 11, abs=1e-12)


def test_pick_channel_single_channel_catalog():
    r = RngStream(1, 0)
    assert all(pick_channel(1, 0.0, r) == 1 for _ in range(20))


def test_pick_channel_values_are_frozen():
    r = RngStream(7, 2)
    assert [pick_channel(30, 0.0, r) for _ in range(8)] == [13, 21, 8, 8, 30, 18, 15, 5]


@given(catalog=st.integers(1, 50), skew=st.floats(0.0, 3.0),
       seed=st.integers(0, 10_000))
def test_pick_channel_stays_in_catalog(catalog, skew, seed):
    r = RngStream(seed, 0)
    for _ in range(5):
        assert 1 <= pick_channel(catalog, skew, r) <= catalog


def test_pick_channel_frequencies_uniform():
    r = RngStream(19, 0)
    n = 5000
    counts = [0] * 10
    for _ in range(n):
        counts[pick_channel(10, 0.0, r) - 1] += 1
    bound = 3 * math.sqrt(0.1 * 0.9 / n)
    for c in counts:
        assert c / n == pytest.approx(0.1, abs=bound)


def test_pick_channel_frequencies_skewed():
    r = RngStream(23, 0)
    n = 3000
    hits = sum(pick_channel(3, 1.0, r) == 1 for _ in range(n))
    p = 6 / 11
    assert hits / n == pytest.approx(p, abs=3 * math.sqrt(p * (1 - p) / n))


def test_holding_times_are_frozen():
    r = RngStream(7, 1)
    got = [sample_holding_time(10.0, r) for _ in range(3)]
    assert got == pytest.approx(
        [0.007476574472931331, 1.67228695298674, 7.029282906606057], rel=1e-12)


def test_holding_time_mean_converges():
    r = RngStream(31, 0)
    n = 2000
    mean = sum(sample_holding_time(10.0, r) for _ in range(n)) / n
    assert mean == pytest.approx(10.0, abs=3 * 10.0 / math.sqrt(n))


@given(mean=st.floats(0.1, 100.0), seed=st.integers(0, 1000))
def test_holding_time_is_positive_and_finite(mean, seed):
    tau = sample_holding_time(mean, RngStream(seed, 0))
    assert 0.0 <= tau < math.inf


def test_effective_hold_accounts_for_step_rounding():
    # ceil-to-step rounding stretches a mean hold of h to roughly h + t1/2
    assert effective_hold_min(10.0, 1.0) == pytest.approx(10.508331944775044, rel=1e-12)
    assert effective_hold_min(1000.0, 1.0) == pytest.approx(1000.5, abs=1e-2)


def test_viewer_rate_calibration_hits_target():
    rate = viewer_rate_for_mean_channels(20.0, 30, 0.0, 10.0)
    assert rate == pytest.approx(3.136403459012432, rel=1e-9)
    # closed form: each channel is on air with prob 1 - exp(-rate * p_k * h_eff)
    heff = effective_hold_min(10.0, 1.0)
    mean = sum(1.0 - math.exp(-rate * p * heff)
               for p in channel_probabilities(30, 0.0))
    assert mean == pytest.approx(20.0, abs=1e-6)


def test_viewer_rate_calibration_rejects_bad_targets():
    with pytest.raises(ValueError):
        viewer_rate_for_mean_channels(30.0, 30, 0.0, 10.0)
    with pytest.raises(ValueError):
        viewer_rate_for_mean_channels(0.0, 30, 0.0, 10.0)


def _quiet(cfg):
    return replace(cfg, iptv_viewer_arrival_rate_per_min=0.0,
                   non_iptv_arrival_rate_per_min=0.0)


def test_zero_rates_produce_no_events():
    gen = TrafficGenerator.from_seed(_quiet(table1()), 1)
    assert gen.events_for_step(0) == []
    assert gen.events_for_step(1) == []


def test_first_step_events_are_frozen():
    gen = TrafficGenerator.from_seed(table1(), 1)
    ev = gen.events_for_step(0)
    assert [e.kind for e in ev] == [
        EventKind.NON_IPTV_ARRIVE, EventKind.NON_IPTV_ARRIVE,
        EventKind.NON_IPTV_ARRIVE, EventKind.VIEWER_ARRIVE,
        EventKind.VIEWER_ARRIVE, EventKind.VIEWER_ARRIVE,
    ]
    assert all(e.channel_id is None and e.viewer_id is None for e in ev[:3])
    assert [(e.viewer_id, e.channel_id) for e in ev[3:]] == [(0, 16), (1, 19), (2, 13)]
    # the departure steps the arrivals scheduled: one call each at 2, 36
    # and 4; viewers 0, 1, 2 at 2, 16 and 10 respectively
    assert gen._pending_call == {2: 1, 36: 1, 4: 1}
    assert gen._pending_viewer == {
        2: [(EventKind.VIEWER_DEPART, 16, 0)],
        16: [(EventKind.VIEWER_DEPART, 19, 1)],
        10: [(EventKind.VIEWER_DEPART, 13, 2)],
    }


def test_scheduled_departures_fire_on_time():
    gen = TrafficGenerator.from_seed(_quiet(table1()), 1)
    gen.schedule_viewer_departure(2, viewer_id=7, channel_id=4)
    gen.schedule_call_departure(3)
    assert gen.events_for_step(0) == []
    assert gen.events_for_step(1) == []
    ev2 = gen.events_for_step(2)
    assert len(ev2) == 1
    assert ev2[0].kind is EventKind.VIEWER_DEPART
    assert ev2[0].viewer_id == 7 and ev2[0].channel_id == 4
    ev3 = gen.events_for_step(3)
    assert len(ev3) == 1
    assert ev3[0].kind is EventKind.NON_IPTV_DEPART


def test_every_arrival_departs_exactly_once():
    cfg = replace(table1(), non_iptv_arrival_rate_per_min=0.0,
                  sim_duration_min=400.0, warmup_min=0.0)
    gen = TrafficGenerator.from_seed(cfg, 9)
    arrived = {}
    departed = set()
    for step in range(400):
        for ev in gen.events_for_step(step):
            if ev.kind is EventKind.VIEWER_ARRIVE:
                arrived[ev.viewer_id] = (step, ev.channel_id)
            elif ev.kind is EventKind.VIEWER_DEPART:
                assert arrived[ev.viewer_id][0] < step
                assert arrived[ev.viewer_id][1] == ev.channel_id
                assert ev.viewer_id not in departed
                departed.add(ev.viewer_id)
    # whoever has not left yet is scheduled past the last step, once
    pending = [ev.viewer_id for step, evs in gen._pending_viewer.items()
               for ev in evs if step >= 400]
    assert sum(map(len, gen._pending_viewer.values())) == len(pending)
    assert sorted(pending) == sorted(set(arrived) - departed)


def test_call_concurrency_matches_littles_law():
    cfg = replace(table1(), iptv_viewer_arrival_rate_per_min=0.0,
                  non_iptv_arrival_rate_per_min=2.5,
                  non_iptv_mean_hold_min=20.0,
                  sim_duration_min=10_000.0, warmup_min=0.0)
    gen = TrafficGenerator.from_seed(cfg, 3)
    live = 0
    total = 0
    n = 0
    for step in range(10_000):
        for ev in gen.events_for_step(step):
            if ev.kind is EventKind.NON_IPTV_ARRIVE:
                live += 1
            elif ev.kind is EventKind.NON_IPTV_DEPART:
                live -= 1
        if step >= 200:
            total += live
            n += 1
    # holds are rounded up to whole steps, so the effective mean hold is
    # slightly above the nominal one; compare against the stretched value
    target = 2.5 * effective_hold_min(20.0, 1.0)
    assert total / n == pytest.approx(target, rel=0.05)
