"""Seeded traffic generation: the viewers and the background calls of a replication.

Determinism contract
--------------------
Every random draw comes from a Mersenne Twister stream (random.Random)
whose initial state is derived from a (seed, stream_id) pair with
SHA-256.  That SHA-256 is the interpreter's built-in module (_sha2 from
3.12, _sha256 before), as random takes its SHA-512, with hashlib only as
the fallback: the digest is the same either way, and hashlib loads
OpenSSL's libcrypto, about 3.6 MB of every command's peak memory, for two
digests a replication.  The only primitive consumed is Random.random(),
whose output is guaranteed stable across Python releases and platforms;
all distributions are built on top of it with the fixed inversion
formulas in this module.  A (seed, stream_id) pair therefore pins the
entire event sequence, bit for bit, everywhere.

Each traffic class has its own stream, drawn only by its side (viewer_side,
call_side): a pure function of the seed and that side's own config fields,
memoised on them, so sweep points equal in those fields share one build.
The viewer side holds its viewers, numbered in arrival order, in the shape
the engine reads them; the call side holds counts, since calls are alike.

The free play
-------------
Besides its steps, a Trace carries what a cell that admitted every viewer
would hold after each step: on_air[t], its channels on air, and
live_calls[t], its live calls.  Both are policy-blind.  Each side derives
its series as it draws, so sweep points that share a side share its series
too.  The viewer side draws a viewer's departure step as it arrives, so it
knows each channel's runs of steps on air as it goes, and counts on_air
from the steps at which runs start and end; the call side sums live_calls,
its running count of arrivals less departures.  A Trace is made only from
its two sides: a hand-made one from hand-made sides, which supply their own
series (tests/free_play.py computes both from a side's draws alone).
The engine scores a policy's steps from these series until the policy first
blocks or drops a channel (see engine.run_trace).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Callable
from enum import Enum
from functools import lru_cache, reduce
from itertools import accumulate, islice
from math import ceil, log1p
from operator import add, sub
from typing import NamedTuple

from .model import ScenarioConfig

# the built-in SHA-256 first (see the determinism contract above)
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256


class RngStream:
    """An independent, portable random stream named by (seed, stream_id)."""

    def __init__(self, seed: int, stream_id: int = 0):
        material = f"bwbroker|{seed}|{stream_id}".encode()
        rng = random.Random(int.from_bytes(sha256(material).digest(), "big"))
        # uniform draw in [0, 1), bound once: it is called per arrival
        self.random = rng.random


class EventKind(Enum):
    VIEWER_ARRIVE = "viewer_arrive"
    VIEWER_DEPART = "viewer_depart"
    NON_IPTV_ARRIVE = "non_iptv_arrive"
    NON_IPTV_DEPART = "non_iptv_depart"


# plain names for the members, cheaper to look up per event than EventKind.X
VIEWER_ARRIVE, VIEWER_DEPART, NON_IPTV_ARRIVE, NON_IPTV_DEPART = EventKind


class TrafficEvent(NamedTuple):
    """One arrival or departure, of a viewer or a call; it carries no ids."""

    kind: EventKind


# every event of a kind is alike, so all events are these four shared objects
VIEWER_ARRIVAL, VIEWER_DEPARTURE = TrafficEvent(VIEWER_ARRIVE), TrafficEvent(VIEWER_DEPART)
CALL_ARRIVAL, CALL_DEPARTURE = TrafficEvent(NON_IPTV_ARRIVE), TrafficEvent(NON_IPTV_DEPART)


class _Runs(dict):
    """The runs of one event by length, seeded with the run of 1: each other run is made
    when a merge first asks for it, then kept, one for each step count seen."""

    def __missing__(self, length: int) -> tuple[TrafficEvent, ...]:
        run = self[length] = self[1] * length
        return run


_RUNS = [_Runs({1: (event,)})
         for event in (VIEWER_DEPARTURE, CALL_DEPARTURE, CALL_ARRIVAL, VIEWER_ARRIVAL)]


class Trace(list):
    """Every step of one replication, made from its two sides.

    viewers is (leaving, channels, starts, on_air), as viewer_side returns it;
    calls is (calls_out, calls_in, live_calls), as call_side returns it: per
    step, the call departure and arrival counts, and the calls live after it.
    The Trace takes both series as given and checks neither: the sides count
    them as they draw, and a hand-made side supplies its own, which the tests
    compute with tests/free_play.py.  ValueError unless leaving, on_air,
    calls_out and calls_in have one entry a step, starts one more, and
    starts[-1] is len(channels).  As a list, a Trace holds one list a step
    of shared, id-free markers, in play order: viewer departures, call
    departures, call arrivals, then viewer arrivals.  Only the benchmark
    harness (perfbench/) reads it, to count events by kind; it goes when the
    harness reads the engine's own counts (ROADMAP item 1(b)).
    """

    __slots__ = ("leaving", "channels", "starts", "on_air", "live_calls")

    def __init__(self, viewers, calls):
        self.leaving, self.channels, self.starts, self.on_air = viewers
        calls_out, calls_in, self.live_calls = calls
        leaving, starts, on_air = self.leaving, self.starts, self.on_air
        if not len(starts) - 1 == len(leaving) == len(on_air) == len(calls_out) == len(calls_in):
            raise ValueError(f"step counts differ: {len(starts)} starts, {len(leaving)} leaving,"
                             f" {len(on_air)} on air, {len(calls_out)} and {len(calls_in)} calls")
        if starts[-1] != len(self.channels):
            raise ValueError(f"the starts count {starts[-1]} viewers,"
                             f" the channels {len(self.channels)}")
        leave, hang_up, call, join = _RUNS
        steps = zip(leaving, calls_out, calls_in, starts, islice(starts, 1, None))
        super().__init__([[*leave[len(ids)], *hang_up[out], *call[into], *join[end - start]]
                          for ids, out, into, start, end in steps])


# Largest mean drawn with one run of the product method: exp(-500) is far
# from underflow, while exp(-mean) for a mean past ~745 is exactly 0.0.
POISSON_CHUNK_MEAN = 500.0


def poisson_counter(rate_per_min: float, dt_min: float, rng: RngStream) -> Callable[[], int]:
    """A draw of the number of arrivals in an interval of length dt at the given rate.

    Knuth's product method on uniform draws.  A mean above
    POISSON_CHUNK_MEAN is split into equal chunks no larger than that,
    whose counts add up to a Poisson count of the whole mean (sums of
    independent Poisson variables are Poisson), so the threshold
    exp(-chunk) never underflows and the count is exact at any mean.
    The threshold is found once: each call of the returned function
    draws one count from rng.
    """
    mean = rate_per_min * dt_min
    if mean == 0.0:
        return lambda: 0  # and no draw
    chunks = math.ceil(mean / POISSON_CHUNK_MEAN) if mean > POISSON_CHUNK_MEAN else 1
    threshold = math.exp(-mean / chunks)
    draw = rng.random

    def count() -> int:  # one chunk
        n = 0
        product = draw()
        while product > threshold:
            n += 1
            product *= draw()
        return n

    return count if chunks == 1 else lambda: sum([count() for _ in range(chunks)])


@lru_cache(maxsize=64)
def _popularity_cdf(catalog_size: int, skew: float) -> tuple[float, ...]:
    # weight of channel k is 1 / k^skew; skew 0 makes the lineup uniform.  The running sums
    # fold left, and the last, which ends the table at exactly 1.0, is the total
    cumulative = list(accumulate(1.0 / (k ** skew) for k in range(1, catalog_size + 1)))
    total = cumulative[-1]
    return tuple(acc / total for acc in cumulative)


def channel_probabilities(catalog_size: int, skew: float) -> tuple[float, ...]:
    """Stationary pick probability of each channel id (1-based)."""
    cdf = _popularity_cdf(catalog_size, skew)
    probs = []
    prev = 0.0
    for c in cdf:
        probs.append(c - prev)
        prev = c
    return tuple(probs)


def effective_hold_min(mean_hold_min: float, sample_interval_min: float) -> float:
    """Mean residency of an exponential hold once rounded up to whole steps.

    Events only take effect on step boundaries, so a hold of tau minutes
    occupies ceil(tau / t1) steps.  The expectation of that is
    t1 / (1 - exp(-t1 / mean)), slightly above the nominal mean.
    """
    t1 = sample_interval_min
    return t1 / (1.0 - math.exp(-t1 / mean_hold_min))


def viewer_rate_for_mean_channels(
    target_mean_channels: float,
    catalog_size: int,
    skew: float,
    mean_hold_min: float,
    sample_interval_min: float = 1.0,
) -> float:
    """Viewer arrival rate whose stationary mean on-air channel count hits a target.

    Viewers arriving at rate lam pick channel k with probability p_k and
    stay an exponential hold, so each channel is an independent infinite
    server queue: it is on air with probability 1 - exp(-lam p_k h) where
    h is the step-rounded mean residency.  The total on-air mean is
    monotone in lam, so a bisection nails the target.
    """
    probs = channel_probabilities(catalog_size, skew)
    h = effective_hold_min(mean_hold_min, sample_interval_min)

    def mean_active(lam: float) -> float:
        # a left fold: the builtin sum of floats is compensated from Python 3.12 on
        return reduce(add, [1.0 - math.exp(-lam * p * h) for p in probs])

    lo, hi = 0.0, 1.0
    while mean_active(hi) < target_mean_channels:
        hi *= 2.0
        if hi > 1e12:  # a steep skew leaves some channels all but never watched
            raise ValueError("calibration failed to bracket the target")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        bounds = (mid, hi) if mean_active(mid) < target_mean_channels else (lo, mid)
        if bounds == (lo, hi):
            break  # a fixed point: every later iteration would repeat this one
        lo, hi = bounds
    return 0.5 * (lo + hi)


@lru_cache(maxsize=1)
def viewer_side(seed: int, n_steps: int, dt_min: float, rate_per_min: float,
                mean_hold_min: float, catalog_size: int,
                skew: float) -> tuple[tuple, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(leaving, channels, starts, on_air): leaving[t], the ids of the viewers that depart
    at step t; channels[v], viewer v's channel, ids in arrival order; step t's arrivals,
    range(starts[t], starts[t + 1]); and on_air[t], the channels then on air had every
    viewer been admitted, counted as drawn.  Stream 0 draws a count, then each viewer's
    channel and hold."""
    viewer_side.cache_clear()  # a miss: drop the old side first, so two never coexist
    rng = RngStream(seed, 0)
    draw, cdf = rng.random, _popularity_cdf(catalog_size, skew)
    arrivals_in_step = poisson_counter(rate_per_min, dt_min, rng)
    leaving: list[list[int]] = [[] for _ in range(n_steps)]
    channels: list[int] = []
    starts = [0]
    # a viewer keeps its channel on air from its arrival step to its departure step, so
    # a channel's steps on air form runs.  until[c] is the step channel c's current run
    # ends, -1 before its first; change[t] is the change in channels on air at step t.
    # A run that ends where the next starts nets 0.  change[n_steps], which is also
    # change[-1], lies past the last step and is never summed
    until = [-1] * (catalog_size + 1)
    change = [0] * (n_steps + 1)
    viewer_id = 0
    for step in range(n_steps):
        for _ in range(arrivals_in_step()):
            channel = bisect_right(cdf, draw()) + 1
            hold_steps = -mean_hold_min * log1p(-draw()) / dt_min
            # a hold is never negative, so `ceil or 1` is max(1, ceil)
            if hold_steps < n_steps and (depart := step + (ceil(hold_steps) or 1)) < n_steps:
                leaving[depart].append(viewer_id)
            else:
                depart = n_steps
            channels.append(channel)
            if step >= (end := until[channel]):  # a new run
                change[step] += 1
                change[end] -= 1
                until[channel] = depart
            elif depart > end:
                until[channel] = depart
            viewer_id += 1
        starts.append(viewer_id)
    for end in until:
        change[end] -= 1
    on_air = accumulate(islice(change, n_steps))
    return tuple(map(tuple, leaving)), tuple(channels), tuple(starts), tuple(on_air)


@lru_cache(maxsize=1)
def call_side(seed: int, n_steps: int, dt_min: float, rate_per_min: float,
              mean_hold_min: float) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Per step, the call departure and arrival counts and the calls then live, their
    running sum of arrivals less departures; stream 1 draws a count, then each hold.  A
    call departs only at a step after its arrival, so no step has more departures than
    live calls."""
    rng = RngStream(seed, 1)
    draw, arrivals_in_step = rng.random, poisson_counter(rate_per_min, dt_min, rng)
    departures = [0] * n_steps
    arrivals = []
    for step in range(n_steps):
        arrivals.append(n := arrivals_in_step())
        for _ in range(n):
            hold_steps = -mean_hold_min * log1p(-draw()) / dt_min
            if hold_steps < n_steps and (depart := step + (ceil(hold_steps) or 1)) < n_steps:
                departures[depart] += 1
    live = accumulate(map(sub, arrivals, departures))
    return tuple(departures), tuple(arrivals), tuple(live)


def build_trace(config: ScenarioConfig, seed: int) -> Trace:
    """The trace of one replication: its two memoised sides, and a fresh list a step.

    The trace is policy-blind: it holds every arrival and its departure,
    and the engine ignores departures of viewers it never admitted, so
    both policies can be compared on one trace.  A hold of tau minutes
    lasts ceil(tau / t1) steps, at least one; a hold of n_steps steps or
    more (even inf) is dropped unrounded, since its departure would fall
    past the last step.
    """
    n, t1 = config.n_steps, config.sample_interval_min
    return Trace(
        viewer_side(seed, n, t1, config.iptv_viewer_arrival_rate_per_min,
                    config.iptv_viewer_mean_hold_min, config.num_channels_catalog,
                    config.channel_popularity_skew),
        call_side(seed, n, t1, config.non_iptv_arrival_rate_per_min,
                  config.non_iptv_mean_hold_min))
