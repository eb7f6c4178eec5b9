"""Seeded random streams, draw procedures and the per-step event feed."""

import dataclasses
import functools
import hashlib
import math
import operator
import random
from math import exp as math_exp
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwbroker import traffic
from bwbroker.allocation import PolicyKind
from bwbroker.engine import FIG5_CHANNEL_TARGETS, fig5_sweep, run_trace
from bwbroker.model import MAX_SEED, ScenarioConfig, table1
from bwbroker.traffic import (
    CALL_ARRIVAL,
    CALL_DEPARTURE,
    VIEWER_ARRIVAL,
    VIEWER_DEPARTURE,
    EventKind,
    RngStream,
    Trace,
    build_trace,
    call_side,
    channel_probabilities,
    effective_hold_min,
    poisson_counter,
    viewer_rate_for_mean_channels,
    viewer_side,
)
from free_play import event_viewer_side, live_call_series, on_air_series


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


@pytest.mark.parametrize("stream_id", [0, 1])
@pytest.mark.parametrize("seed", [0, 42, -MAX_SEED, MAX_SEED])
def test_a_stream_is_seeded_with_the_sha256_of_its_name(seed, stream_id):
    # the contract is SHA-256, whichever module supplies it (traffic takes the built-in one)
    material = f"bwbroker|{seed}|{stream_id}".encode()
    expected = random.Random(int.from_bytes(hashlib.sha256(material).digest(), "big"))
    assert RngStream(seed, stream_id).random() == expected.random()


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


@pytest.mark.parametrize("rate,counts", [
    (500.0, [489, 449, 496, 480, 516]),
    (500.5, [489, 451, 493, 482, 519]),
    (2000.0, [1914, 1980, 2039, 1952, 1911]),
], ids=["one-chunk", "two-chunks", "four-chunks"])
def test_a_poisson_counter_of_one_or_more_chunks_draws_the_frozen_counts(rate, counts):
    # a mean past POISSON_CHUNK_MEAN is drawn as equal chunks, one after another
    # from the same stream; these counts pin the draws and their order
    count = poisson_counter(rate, 1.0, RngStream(13, 1))
    assert [count() for _ in range(5)] == counts


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
    return list(trace.channels)


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
    trace = build_trace(cfg, 31)
    arrived = {viewer: step for step in range(1000)
               for viewer in range(trace.starts[step], trace.starts[step + 1])}
    residency = [step - arrived[viewer] for step, ids in enumerate(trace.leaving)
                 for viewer in ids if viewer in arrived]
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
    trace = build_trace(cfg, seed)
    for step, events in enumerate(trace):
        calls -= sum(ev.kind is EventKind.NON_IPTV_DEPART for ev in events)
        assert calls >= 0
        for viewer in trace.leaving[step]:
            viewers.remove(viewer)
        calls += sum(ev.kind is EventKind.NON_IPTV_ARRIVE for ev in events)
        viewers.update(range(trace.starts[step], trace.starts[step + 1]))


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


def test_fig5_calibrated_viewer_rates_are_frozen():
    # fig5's sweep_value column prints these; the calibration sums by a left fold, which
    # every supported Python computes alike (the builtin sum compensates from 3.12 on)
    assert [rate for rate, _ in fig5_sweep(table1()).points] == [
        0.5205057027664848, 1.1575531975170517, 1.97885026149538,
        3.1364034590124312, 5.115253720507816, 16.283600017486215]


def _bisect_200(target, catalog, skew, hold, dt=1.0):
    """Reference: the same bisection, run for all 200 halvings, summing by a left fold."""
    probs = channel_probabilities(catalog, skew)
    h = effective_hold_min(hold, dt)

    def mean_active(lam):
        return functools.reduce(operator.add, (1.0 - math.exp(-lam * p * h) for p in probs))

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
    assert ev == [CALL_ARRIVAL] * 3 + [VIEWER_ARRIVAL] * 3  # shared, id-free markers
    assert [(v, trace.channels[v]) for v in range(trace.starts[0], trace.starts[1])] == [
        (0, 16), (1, 19), (2, 13)]
    # viewers 0, 1, 2 depart at steps 2, 16 and 10 respectively
    departs = {v: (step, trace.channels[v])
               for step, ids in enumerate(trace.leaving) for v in ids if v < 3}
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
    # a longer run draws the same viewers; it only emits more of them
    assert longer[:400] == short
    assert longer.leaving[:400] == short.leaving and longer.starts[:401] == short.starts
    assert longer.channels[:len(short.channels)] == short.channels
    arrived = {}
    departed = set()
    for step, ids in enumerate(longer.leaving):
        if step == 400:
            on_air = set(arrived) - departed
        for viewer in ids:  # a departure's channel is its viewer's: channels[viewer]
            assert arrived[viewer] < step
            assert viewer not in departed
            departed.add(viewer)
        arrived.update((viewer, step)
                       for viewer in range(longer.starts[step], longer.starts[step + 1]))
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
        assert (shared.leaving, shared.channels, shared.starts) == (
            fresh.leaving, fresh.channels, fresh.starts), name
        assert (shared.on_air, shared.live_calls) == (fresh.on_air, fresh.live_calls), name


def test_a_traces_free_play_is_that_of_its_events():
    # the series the sides derive as they draw are those recomputed from the
    # trace's own viewers and events, and its lists hold as many of each kind
    # of event as the sides say
    trace = build_trace(replace(table1(), sim_duration_min=200.0, warmup_min=0.0), 4)

    def counts(kind):
        return [sum(ev.kind is kind for ev in events) for events in trace]

    arrivals = [end - start for start, end in zip(trace.starts, trace.starts[1:])]
    assert counts(EventKind.VIEWER_DEPART) == list(map(len, trace.leaving))
    assert counts(EventKind.VIEWER_ARRIVE) == arrivals
    calls_out, calls_in = counts(EventKind.NON_IPTV_DEPART), counts(EventKind.NON_IPTV_ARRIVE)
    assert trace.on_air == on_air_series(trace.leaving, trace.channels, trace.starts)
    assert trace.live_calls == live_call_series(calls_out, calls_in)
    assert max(trace.on_air) > 0 and max(trace.live_calls) > 0


# holds far below one step depart the next step; holds far past the run never do
side_args = dict(
    seed=st.integers(0, 2**32), n_steps=st.integers(1, 150), dt=st.floats(0.5, 2.0),
    rate=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
    hold=st.one_of(st.floats(1e-6, 0.01), st.floats(0.01, 60.0), st.floats(1e4, 1e9)))
viewer_sides = given(**side_args, catalog=st.one_of(st.just(1), st.integers(1, 60)),
                     skew=st.floats(0.0, 2.0))


@settings(max_examples=150, deadline=None)
@given(**side_args)
def test_the_live_calls_a_call_side_counts_are_those_of_its_counts(
        seed, n_steps, dt, rate, hold):
    calls_out, calls_in, live_calls = call_side(seed, n_steps, dt, rate, hold)
    assert live_calls == live_call_series(calls_out, calls_in)


@settings(max_examples=150, deadline=None)
@viewer_sides
def test_the_on_air_series_a_viewer_side_counts_is_that_of_its_events(
        seed, n_steps, dt, rate, hold, catalog, skew):
    leaving, channels, starts, on_air = viewer_side(seed, n_steps, dt, rate, hold, catalog, skew)
    assert on_air == on_air_series(leaving, channels, starts)


@settings(max_examples=150, deadline=None)
@viewer_sides
def test_the_viewer_side_draws_the_viewers_of_the_event_list_side(
        seed, n_steps, dt, rate, hold, catalog, skew):
    # the same channels, ids, departure steps and on-air counts as the side that
    # drew a (channel, viewer) event per arrival and departure
    leaving, channels, starts, on_air = viewer_side(seed, n_steps, dt, rate, hold, catalog, skew)
    departures, arrivals, expected_on_air = event_viewer_side(
        seed, n_steps, dt, rate, hold, catalog, skew)
    assert [[(channels[v], v) for v in ids] for ids in leaving] == departures
    assert [[(channels[v], v) for v in range(start, end)]
            for start, end in zip(starts, starts[1:])] == arrivals
    assert (len(starts), starts[0], len(channels)) == (n_steps + 1, 0, starts[-1])
    assert on_air == expected_on_air


@pytest.mark.parametrize("seed", [3, 17, 2011])
def test_one_channel_whose_runs_end_where_the_next_ones_start(seed):
    # holds under a step, about one viewer a step: each viewer leaves the step after
    # it came, so the channel's run on air often ends at the step the next one starts
    args = (seed, 200, 1.0, 1.0, 0.01, 1, 0.0)
    leaving, channels, starts, on_air = viewer_side(*args)
    back_to_back = [t for t, ids in enumerate(leaving) if ids and starts[t + 1] > starts[t]]
    assert len(back_to_back) > 10
    assert 0 in on_air and 1 in on_air
    assert on_air == on_air_series(leaving, channels, starts) == event_viewer_side(*args)[2]


@pytest.mark.parametrize("seed,catalog,skew", [(5, 1, 0.0), (8, 12, 0.0), (42, 30, 1.0)])
def test_holds_too_long_to_count_in_steps_never_depart(seed, catalog, skew):
    # a hold of 1e308 min is inf steps for a draw near 1, so the `hold_steps <
    # n_steps` test must come before ceil, which refuses inf
    assert -1e308 * math.log1p(-0.9) == math.inf
    args = (seed, 60, 1.0, 2.0, 1e308, catalog, skew)
    leaving, channels, starts, on_air = viewer_side(*args)
    assert not any(leaving) and len(channels) > 60
    assert list(on_air) == [len(set(channels[:end])) for end in starts[1:]]
    assert on_air == on_air_series(leaving, channels, starts) == event_viewer_side(*args)[2]


def test_free_play_ignores_departures_of_viewers_not_on_their_channel():
    # a departure names a viewer id, and its channel is that viewer's; so a
    # viewer is off its channel only if the policy's cell blocked or dropped it,
    # and the cell ignores its departure.  Viewers 0, 1 and 2 arrive on channels
    # 1, 2 and 3, viewer 3 on channel 3 at step 1, and viewer 4 on channel 3 at step 4.
    leaving, channels = ((), (0,), (2,), (), (), (3,)), (1, 2, 3, 3, 3)
    starts = (0, 3, 4, 4, 4, 5, 5)
    calls_out, calls_in = (0, 0, 0, 0, 2, 0), (116, 0, 0, 2, 0, 0)
    trace = Trace((leaving, channels, starts, on_air_series(leaving, channels, starts)),
                  (calls_out, calls_in, live_call_series(calls_out, calls_in)))
    # the free play admits every viewer, so it plays every departure
    assert trace.on_air == (3, 2, 2, 2, 2, 2)
    assert trace.live_calls == (116, 116, 116, 118, 116, 116)
    # merged in play order: viewer departures, call departures, call arrivals, viewer arrivals
    assert trace == [[CALL_ARRIVAL] * 116 + [VIEWER_ARRIVAL] * 3,
                     [VIEWER_DEPARTURE, VIEWER_ARRIVAL], [VIEWER_DEPARTURE], [CALL_ARRIVAL] * 2,
                     [CALL_DEPARTURE] * 2 + [VIEWER_ARRIVAL], [VIEWER_DEPARTURE]]
    # in a 60 Mbps cell, 116 calls leave room for two 2 Mbps channels at the 1 Mbps
    # minimum: equal degradation blocks viewer 2 at step 0 and drops channel 3,
    # viewer 3's, when two more calls come at step 3.  Viewer 4 brings channel 3
    # back at step 4, and neither the blocked viewer's departure (step 2) nor the
    # dropped one's (step 5) takes it off air
    records = run_trace(table1(), PolicyKind.NON_SLA, trace)
    assert [r.active_channels for r in records] == [2, 2, 2, 2, 2, 2]
    assert [(r.blocks, r.drops) for r in records] == [(1, 0), (0, 0), (0, 0), (0, 1),
                                                      (0, 0), (0, 0)]


def _side(steps):
    """A hand-made viewer side of steps steps without a viewer."""
    return ((),) * steps, (), (0,) * (steps + 1), (0,) * steps


def test_sides_of_different_lengths_are_refused():
    # a trace of the shorter side's steps would silently drop the longer side's rest
    calls = (0, 0), (0, 0), (0, 0)
    assert len(Trace(_side(2), calls)) == 2
    with pytest.raises(ValueError, match="3 leaving, 3 on air, 2 and 2 calls"):
        Trace(_side(3), calls)
    with pytest.raises(ValueError, match="1 leaving, 1 on air, 2 and 2 calls"):
        Trace(_side(1), calls)


@pytest.mark.parametrize("side,message", [
    ((((),) * 2, (), (0, 0), (0, 0)), "2 starts, 2 leaving, 2 on air"),
    ((((),) * 2, (), (0, 0, 0), (0,)), "3 starts, 2 leaving, 1 on air"),
    ((((),) * 2, (1,), (0, 0, 0), (0, 0)), "the starts count 0 viewers, the channels 1"),
    ((((),) * 2, (), (0, 0, 1), (0, 0)), "the starts count 1 viewers, the channels 0"),
], ids=["starts-too-short", "on-air-too-short", "a-channel-past-the-starts",
        "a-start-past-the-channels"])
def test_a_viewer_side_that_disagrees_with_itself_is_refused(side, message):
    # found when the trace is made, not deep in a run
    with pytest.raises(ValueError, match=message):
        Trace(side, ((0, 0), (0, 0), (0, 0)))


def test_a_call_departure_needs_a_live_call():
    assert live_call_series((0, 1, 0), (1, 1, 0)) == (1, 1, 1)
    with pytest.raises(ValueError, match="step 1: 2 calls depart, but 1 are live"):
        live_call_series((0, 2), (1, 0))
