"""Seeded random streams, draw procedures and the per-step event feed."""

import dataclasses
import math
from math import exp as math_exp
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwbroker import traffic
from bwbroker.engine import FIG5_CHANNEL_TARGETS
from bwbroker.model import ScenarioConfig, table1
from bwbroker.traffic import (
    CALL_ARRIVAL,
    CALL_DEPARTURE,
    EventKind,
    RngStream,
    Trace,
    TrafficEvent,
    build_trace,
    call_side,
    channel_probabilities,
    effective_hold_min,
    live_call_series,
    poisson_counter,
    viewer_rate_for_mean_channels,
    viewer_side,
)
from free_play import on_air_series


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
    assert poisson_counter(0.0, 1.0, r)() == 0
    # and must not have consumed any randomness
    assert r.random() == RngStream(5, 0).random()


def test_poisson_counts_are_frozen():
    r = RngStream(7, 0)
    assert [poisson_counter(3.0, 1.0, r)() for _ in range(8)] == [3, 2, 0, 4, 4, 3, 4, 2]


def test_a_reused_poisson_counter_draws_the_frozen_counts():
    # a side checks its rate and finds the threshold once, for every step
    count = poisson_counter(3.0, 1.0, RngStream(7, 0))
    assert [count() for _ in range(8)] == [3, 2, 0, 4, 4, 3, 4, 2]
    r, big = RngStream(13, 1), poisson_counter(2000.0, 1.0, RngStream(13, 1))
    assert [big() for _ in range(5)] == [poisson_counter(2000.0, 1.0, r)() for _ in range(5)]


@pytest.mark.parametrize("rate,dt,message", [
    (-1.0, 1.0, "rate must be non-negative"),
    (1.0, 0.0, "dt must be positive"),
    (1.0, -0.5, "dt must be positive"),
])
def test_poisson_count_rejects_bad_arguments(rate, dt, message):
    with pytest.raises(ValueError, match=message):
        poisson_counter(rate, dt, RngStream(1, 0))()


def test_poisson_mean_converges():
    r = RngStream(11, 0)
    n = 4000
    mean = sum(poisson_counter(4.0, 1.0, r)() for _ in range(n)) / n
    assert mean == pytest.approx(4.0, abs=3 * math.sqrt(4.0 / n))


def test_poisson_mean_is_exact_past_exp_underflow():
    # exp(-2000) underflows to 0.0, which a single product run cannot reach
    r = RngStream(13, 1)
    n = 200
    mean = sum(poisson_counter(2000.0, 1.0, r)() for _ in range(n)) / n
    assert mean == pytest.approx(2000.0, abs=4 * math.sqrt(2000.0 / n))


@given(rate=st.floats(0.0, 20.0), seed=st.integers(0, 1000))
def test_poisson_count_is_a_nonnegative_int(rate, seed):
    k = poisson_counter(rate, 1.0, RngStream(seed, 0))()
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


def _viewers_only(cfg, **fields):
    return replace(cfg, non_iptv_arrival_rate_per_min=0.0, warmup_min=0.0, **fields)


def _arrival_channels(trace):
    return [ev.channel_id for events in trace for ev in events
            if ev.kind is EventKind.VIEWER_ARRIVE]


def test_pick_channel_single_channel_catalog():
    cfg = _viewers_only(table1(), num_channels_catalog=1, sim_duration_min=20.0)
    channels = _arrival_channels(build_trace(cfg, 1))
    assert channels and all(c == 1 for c in channels)


@given(catalog=st.integers(1, 50), skew=st.floats(0.0, 3.0),
       seed=st.integers(0, 10_000))
def test_pick_channel_stays_in_catalog(catalog, skew, seed):
    cfg = _viewers_only(table1(), num_channels_catalog=catalog,
                        channel_popularity_skew=skew, sim_duration_min=5.0)
    for channel in _arrival_channels(build_trace(cfg, seed)):
        assert 1 <= channel <= catalog


def test_pick_channel_frequencies_uniform():
    cfg = _viewers_only(table1(), num_channels_catalog=10,
                        iptv_viewer_arrival_rate_per_min=5.0, sim_duration_min=1000.0)
    channels = _arrival_channels(build_trace(cfg, 19))
    n = len(channels)
    assert n > 4500
    counts = [0] * 10
    for c in channels:
        counts[c - 1] += 1
    probs = channel_probabilities(10, 0.0)
    bound = 3 * math.sqrt(0.1 * 0.9 / n)
    for c, p in zip(counts, probs):
        assert c / n == pytest.approx(p, abs=bound)


def test_pick_channel_frequencies_skewed():
    cfg = _viewers_only(table1(), num_channels_catalog=3, channel_popularity_skew=1.0,
                        iptv_viewer_arrival_rate_per_min=3.0, sim_duration_min=1000.0)
    channels = _arrival_channels(build_trace(cfg, 23))
    n = len(channels)
    assert n > 2700
    hits = channels.count(1)
    p = channel_probabilities(3, 1.0)[0]
    assert hits / n == pytest.approx(p, abs=3 * math.sqrt(p * (1 - p) / n))


def test_holding_time_mean_converges():
    # arrivals before step 1000 of 1200: a hold of 200 minutes at a mean
    # of 10 has probability e^-20, so every one of them departs in the trace
    cfg = _viewers_only(table1(), iptv_viewer_arrival_rate_per_min=2.0,
                        sim_duration_min=1200.0)
    arrived = {}
    residency = []
    for step, events in enumerate(build_trace(cfg, 31)):
        for ev in events:
            if ev.kind is EventKind.VIEWER_ARRIVE and step < 1000:
                arrived[ev.viewer_id] = step
            elif ev.kind is EventKind.VIEWER_DEPART and ev.viewer_id in arrived:
                residency.append(step - arrived[ev.viewer_id])
    n = len(residency)
    assert n == len(arrived) > 1800
    # residency is the hold rounded up to whole steps of 1 minute
    assert sum(residency) / n == pytest.approx(effective_hold_min(10.0, 1.0),
                                               abs=3 * 10.0 / math.sqrt(n))


@given(mean=st.floats(0.1, 100.0), seed=st.integers(0, 1000))
def test_holding_time_is_positive_and_finite(mean, seed):
    # every hold lasts at least one step: nothing departs in its arrival step
    cfg = replace(table1(), iptv_viewer_mean_hold_min=mean, non_iptv_mean_hold_min=mean,
                  sim_duration_min=30.0, warmup_min=0.0)
    viewers = set()
    calls = 0
    for events in build_trace(cfg, seed):
        calls -= sum(ev.kind is EventKind.NON_IPTV_DEPART for ev in events)
        assert calls >= 0
        for ev in events:
            if ev.kind is EventKind.VIEWER_DEPART:
                viewers.remove(ev.viewer_id)
        calls += sum(ev.kind is EventKind.NON_IPTV_ARRIVE for ev in events)
        viewers.update(ev.viewer_id for ev in events if ev.kind is EventKind.VIEWER_ARRIVE)


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


def _bisect_200(target, catalog, skew, hold, dt=1.0):
    """Reference: the same bisection, run for all 200 halvings."""
    probs = channel_probabilities(catalog, skew)
    h = effective_hold_min(hold, dt)

    def mean_active(lam):
        return sum(1.0 - math.exp(-lam * p * h) for p in probs)

    lo, hi = 0.0, 1.0
    while mean_active(hi) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_active(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("target,catalog,skew,hold,dt", [
    (20.0, 30, 0.0, 10.0, 1.0),                                 # fig3 on table1
    *((t, 30, 0.0, 10.0, 1.0) for t in FIG5_CHANNEL_TARGETS),   # fig5 on table1
    (3.0, 7, 1.5, 2.0, 0.5),
    (50.0, 400, 0.8, 10.0, 1.0),
    (900.0, 2000, 1.2, 30.0, 2.0),
    (0.01, 5, 3.0, 0.1, 1.0),
])
def test_calibration_stopped_at_its_fixed_point_matches_200_halvings(
        monkeypatch, target, catalog, skew, hold, dt):
    exps = []

    def counted_exp(x):
        exps.append(x)
        return math_exp(x)

    monkeypatch.setattr(traffic.math, "exp", counted_exp)
    rate = viewer_rate_for_mean_channels(target, catalog, skew, hold, dt)
    monkeypatch.undo()
    assert rate == _bisect_200(target, catalog, skew, hold, dt)
    # one exp for the hold, one a channel per evaluation: well short of 200 halvings
    assert (len(exps) - 1) / catalog < 150


def test_viewer_rate_calibration_rejects_bad_targets():
    with pytest.raises(ValueError):
        viewer_rate_for_mean_channels(30.0, 30, 0.0, 10.0)
    with pytest.raises(ValueError):
        viewer_rate_for_mean_channels(0.0, 30, 0.0, 10.0)


def _quiet(cfg):
    return replace(cfg, iptv_viewer_arrival_rate_per_min=0.0,
                   non_iptv_arrival_rate_per_min=0.0)


def test_zero_rates_produce_no_events():
    cfg = _quiet(table1())
    assert build_trace(cfg, 1) == [[] for _ in range(cfg.n_steps)]


def test_first_step_events_are_frozen():
    trace = build_trace(table1(), 1)
    ev = trace[0]
    assert [e.kind for e in ev] == [
        EventKind.NON_IPTV_ARRIVE, EventKind.NON_IPTV_ARRIVE,
        EventKind.NON_IPTV_ARRIVE, EventKind.VIEWER_ARRIVE,
        EventKind.VIEWER_ARRIVE, EventKind.VIEWER_ARRIVE,
    ]
    assert all(e.channel_id is None and e.viewer_id is None for e in ev[:3])
    assert [(e.viewer_id, e.channel_id) for e in ev[3:]] == [(0, 16), (1, 19), (2, 13)]
    # viewers 0, 1, 2 depart at steps 2, 16 and 10 respectively
    departs = {e.viewer_id: (step, e.channel_id)
               for step, events in enumerate(trace) for e in events
               if e.kind is EventKind.VIEWER_DEPART and e.viewer_id < 3}
    assert departs == {0: (2, 16), 1: (16, 19), 2: (10, 13)}
    # call departures of steps 1-40; the calls of step 0 leave at 2, 36 and 4
    assert [sum(e.kind is EventKind.NON_IPTV_DEPART for e in trace[step])
            for step in range(1, 41)] == [
        0, 1, 1, 1, 0, 0, 2, 1, 2, 1, 2, 3, 0, 0, 2, 1, 1, 0, 0, 1,
        0, 0, 1, 2, 2, 0, 1, 4, 0, 1, 1, 1, 2, 0, 0, 2, 0, 0, 3, 0,
    ]


def test_every_arrival_departs_exactly_once():
    cfg = replace(table1(), non_iptv_arrival_rate_per_min=0.0,
                  sim_duration_min=400.0, warmup_min=0.0)
    short = build_trace(cfg, 9)
    longer = build_trace(replace(cfg, sim_duration_min=800.0), 9)
    # a longer run draws the same events; it only emits more of them
    assert longer[:400] == short
    arrived = {}
    departed = set()
    for step, events in enumerate(longer):
        if step == 400:
            on_air = set(arrived) - departed
        for ev in events:
            if ev.kind is EventKind.VIEWER_ARRIVE:
                arrived[ev.viewer_id] = (step, ev.channel_id)
            elif ev.kind is EventKind.VIEWER_DEPART:
                assert arrived[ev.viewer_id][0] < step
                assert arrived[ev.viewer_id][1] == ev.channel_id
                assert ev.viewer_id not in departed
                departed.add(ev.viewer_id)
    # a hold of 400 minutes at a mean of 10 has probability e^-40
    assert on_air and on_air <= departed


def test_call_concurrency_matches_littles_law():
    cfg = replace(table1(), iptv_viewer_arrival_rate_per_min=0.0,
                  non_iptv_arrival_rate_per_min=2.5,
                  non_iptv_mean_hold_min=20.0,
                  sim_duration_min=10_000.0, warmup_min=0.0)
    live = 0
    total = 0
    n = 0
    for step, events in enumerate(build_trace(cfg, 3)):
        for ev in events:
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


# one new value per config field, each valid on the config of the field before it
NEXT_VALUES = {
    "capacity_mbps": 90.0,
    "iptv_channel_max_bw_mbps": 1.5,
    "iptv_channel_min_bw_mbps": 0.5,
    "iptv_reservation_cap_mbps": 30.0,
    "num_channels_catalog": 12,
    "sample_interval_min": 0.5,
    "history_window_min": 30.0,
    "iptv_viewer_arrival_rate_per_min": 2.0,
    "iptv_viewer_mean_hold_min": 4.0,
    "non_iptv_arrival_rate_per_min": 3.0,
    "non_iptv_call_bw_mbps": 2.0,
    "non_iptv_mean_hold_min": 5.0,
    "channel_popularity_skew": 1.2,
    "sim_duration_min": 90.0,
    "warmup_min": 30.0,
    "replications": 3,
    "base_seed": 8,
}


def test_memoised_sides_match_fresh_builds_whatever_field_changes():
    # a side that read a field its arguments miss would hand back the
    # previous config's draws: compare each build with one from empty caches
    assert list(NEXT_VALUES) == [f.name for f in dataclasses.fields(ScenarioConfig)]
    cfg = replace(table1(), sim_duration_min=120.0, warmup_min=60.0, replications=2)
    build_trace(cfg, 5)
    for name, value in NEXT_VALUES.items():
        cfg = replace(cfg, **{name: value})
        shared = build_trace(cfg, 5)
        viewer_side.cache_clear()
        call_side.cache_clear()
        fresh = build_trace(cfg, 5)
        assert shared == fresh, name
        assert (shared.on_air, shared.live_calls) == (fresh.on_air, fresh.live_calls), name


def test_a_traces_free_play_is_that_of_its_events():
    # the series the sides derive as they draw are those recomputed from the
    # trace's own events
    trace = build_trace(replace(table1(), sim_duration_min=200.0, warmup_min=0.0), 4)

    def of_kind(kind):
        return [tuple(ev for ev in events if ev.kind is kind) for events in trace]

    viewers_out, viewers_in = of_kind(EventKind.VIEWER_DEPART), of_kind(EventKind.VIEWER_ARRIVE)
    calls_out, calls_in = ([len(evs) for evs in of_kind(kind)]
                           for kind in (EventKind.NON_IPTV_DEPART, EventKind.NON_IPTV_ARRIVE))
    assert (list(trace.viewers_out), list(trace.viewers_in)) == (viewers_out, viewers_in)
    assert trace.on_air == on_air_series(viewers_out, viewers_in)
    assert trace.live_calls == live_call_series(calls_out, calls_in)
    assert max(trace.on_air) > 0 and max(trace.live_calls) > 0


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), n_steps=st.integers(1, 150), dt=st.floats(0.5, 2.0),
       rate=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
       hold=st.one_of(st.floats(1e-6, 0.01), st.floats(0.01, 60.0), st.floats(1e4, 1e9)),
       catalog=st.one_of(st.just(1), st.integers(1, 60)), skew=st.floats(0.0, 2.0))
def test_the_on_air_series_a_viewer_side_counts_is_that_of_its_events(
        seed, n_steps, dt, rate, hold, catalog, skew):
    # holds far below one step depart the next step; holds far past the run never do
    viewers_out, viewers_in, on_air = viewer_side(seed, n_steps, dt, rate, hold, catalog, skew)
    assert on_air == on_air_series(viewers_out, viewers_in)


def _viewer(kind, channel, viewer):
    return TrafficEvent(kind, channel_id=channel, viewer_id=viewer)


def test_free_play_ignores_departures_of_viewers_not_on_their_channel():
    arrive, depart = EventKind.VIEWER_ARRIVE, EventKind.VIEWER_DEPART
    viewers_out = ((),
                   (_viewer(depart, 1, 0), _viewer(depart, 2, 9), _viewer(depart, 3, 1)),
                   (_viewer(depart, 1, 1), _viewer(depart, 1, 1)),
                   (_viewer(depart, 2, 2),))
    viewers_in = ((_viewer(arrive, 1, 0), _viewer(arrive, 1, 1), _viewer(arrive, 2, 2)),
                  (), (), (_viewer(arrive, 2, 2),))
    calls_out, calls_in = (0, 0, 0, 1), (0, 0, 2, 0)
    trace = Trace((viewers_out, viewers_in, on_air_series(viewers_out, viewers_in)),
                  (calls_out, calls_in, live_call_series(calls_out, calls_in)))
    assert trace.on_air == (2, 2, 1, 1)
    assert trace.live_calls == (0, 0, 2, 1)
    # merged in play order: viewer departures, call departures, call arrivals, viewer arrivals
    assert trace == [list(viewers_in[0]), list(viewers_out[1]),
                     [*viewers_out[2], CALL_ARRIVAL, CALL_ARRIVAL],
                     [*viewers_out[3], CALL_DEPARTURE, *viewers_in[3]]]


def test_sides_of_different_lengths_are_refused():
    # a trace of the shorter side's steps would silently drop the longer side's rest
    viewers = ((),) * 3, ((),) * 3, (0,) * 3
    calls = (0, 0), (0, 0), (0, 0)
    assert len(Trace(viewers, ((0,) * 3,) * 3)) == 3
    with pytest.raises(ValueError):
        Trace(viewers, calls)
    with pytest.raises(ValueError):
        Trace(tuple(side[:1] for side in viewers), calls)


def test_a_call_departure_needs_a_live_call():
    assert live_call_series((0, 1, 0), (1, 1, 0)) == (1, 1, 1)
    with pytest.raises(ValueError, match="step 1: 2 calls depart, but 1 are live"):
        live_call_series((0, 2), (1, 0))
