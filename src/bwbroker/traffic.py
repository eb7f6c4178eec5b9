"""Seeded traffic generation: viewer and background-call event streams.

Determinism contract
--------------------
Every random draw comes from a Mersenne Twister stream (random.Random)
whose initial state is derived from a (seed, stream_id) pair with
SHA-256.  The only primitive consumed is Random.random(), whose output
is guaranteed stable across Python releases and platforms; all
distributions are built on top of it with the fixed inversion formulas
in this module.  A (seed, stream_id) pair therefore pins the entire
event sequence, bit for bit, everywhere.

Each traffic class has its own stream, drawn only by its side (viewer_side,
call_side): a pure function of the seed and that side's own config fields,
memoised on them, so sweep points equal in those fields share one build.

The free play
-------------
Besides its events, a Trace carries what a cell that admitted every viewer
would hold after each step: on_air[t], its channels on air, and
live_calls[t], its live calls.  Both are policy-blind.  Each side derives
its series as it draws: the viewer side counts on_air from a viewer count a
channel, the call side sums live_calls (live_call_series), so sweep points
that share a side share its series too.  A Trace is made only from its two
sides: a hand-made one from hand-made sides, which supply their own series.
The engine scores a policy's steps from these series until the policy first
blocks or drops a channel (see engine.run_trace).
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from collections.abc import Callable
from enum import Enum
from functools import lru_cache
from math import ceil, log1p
from typing import NamedTuple

from .model import ScenarioConfig


class RngStream:
    """An independent, portable random stream named by (seed, stream_id)."""

    def __init__(self, seed: int, stream_id: int = 0):
        material = f"bwbroker|{seed}|{stream_id}".encode()
        rng = random.Random(int.from_bytes(hashlib.sha256(material).digest(), "big"))
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
    """One arrival or departure; call events carry no ids."""

    kind: EventKind
    channel_id: int | None = None
    viewer_id: int | None = None


# every call is alike, so all call events are these two shared objects
CALL_ARRIVAL = TrafficEvent(NON_IPTV_ARRIVE)
CALL_DEPARTURE = TrafficEvent(NON_IPTV_DEPART)


class Trace(list):
    """Every step of one replication, made from its two sides.

    viewers is (viewers_out, viewers_in, on_air), as viewer_side returns it:
    per step, the viewer departures and arrivals, and the channels on air
    after the step had every viewer been admitted.  calls is (calls_out,
    calls_in, live_calls), as call_side returns it: per step, the call
    departure and arrival counts, and the calls live after the step.  The
    Trace takes both series as given: the sides count them as they draw, and a
    hand-made side supplies its own.  As a list, a Trace holds one list of
    events a step, in play order: viewer departures, call departures, call
    arrivals, then viewer arrivals, so a new viewer meets the step's updated
    call load.  ValueError if the sides differ in step count.
    """

    __slots__ = ("viewers_out", "viewers_in", "on_air", "live_calls")

    def __init__(self, viewers, calls):
        self.viewers_out, self.viewers_in, self.on_air = viewers
        calls_out, calls_in, self.live_calls = calls
        steps = zip(self.viewers_out, calls_out, calls_in, self.viewers_in, strict=True)
        super().__init__([[*v_out, *(CALL_DEPARTURE,) * c_out, *(CALL_ARRIVAL,) * c_in, *v_in]
                          for v_out, c_out, c_in, v_in in steps])


def live_call_series(calls_out, calls_in) -> tuple[int, ...]:
    """Per step, the calls live after it: the running sum of arrivals less departures.

    A step's call departures go before its arrivals; ValueError if more
    calls depart than are live.
    """
    live, series = 0, []
    for step, (out, into) in enumerate(zip(calls_out, calls_in)):
        if out > live:
            raise ValueError(f"step {step}: {out} calls depart, but {live} are live")
        live += into - out
        series.append(live)
    return tuple(series)


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
    The arguments are checked, and the threshold found, once: each call
    of the returned function draws one count from rng.
    """
    if rate_per_min < 0:
        raise ValueError("rate must be non-negative")
    if dt_min <= 0:
        raise ValueError("dt must be positive")
    mean = rate_per_min * dt_min
    if mean == 0.0:
        return lambda: 0  # and no draw
    chunks = math.ceil(mean / POISSON_CHUNK_MEAN) if mean > POISSON_CHUNK_MEAN else 1
    threshold = math.exp(-mean / chunks)
    draw = rng.random

    def count() -> int:
        n = 0
        for _ in range(chunks):
            product = draw()
            while product > threshold:
                n += 1
                product *= draw()
        return n

    return count


@lru_cache(maxsize=64)
def _popularity_cdf(catalog_size: int, skew: float) -> tuple[float, ...]:
    # weight of channel k is 1 / k^skew; skew 0 makes the lineup uniform
    weights = [1.0 / (k ** skew) for k in range(1, catalog_size + 1)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    cdf[-1] = 1.0
    return tuple(cdf)


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
    if not 0 < target_mean_channels < catalog_size:
        raise ValueError("target must lie strictly between 0 and the catalog size")
    probs = channel_probabilities(catalog_size, skew)
    h = effective_hold_min(mean_hold_min, sample_interval_min)

    def mean_active(lam: float) -> float:
        return sum(1.0 - math.exp(-lam * p * h) for p in probs)

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
                skew: float) -> tuple[tuple, tuple, tuple[int, ...]]:
    """Per step, the viewer departures, the viewer arrivals and the channels then on
    air had every viewer been admitted, counted as they are drawn; stream 0 draws a
    count, then each viewer's channel and hold."""
    viewer_side.cache_clear()  # a miss: drop the old side first, so two never coexist
    rng = RngStream(seed, 0)
    draw, cdf = rng.random, _popularity_cdf(catalog_size, skew)
    # TrafficEvent's own __new__ is a Python-level call; tuple.__new__ is not
    event = tuple.__new__
    arrivals_in_step = poisson_counter(rate_per_min, dt_min, rng)
    departures: list[list[TrafficEvent]] = [[] for _ in range(n_steps)]
    arrivals: list[list[TrafficEvent]] = [[] for _ in range(n_steps)]
    # viewers on each channel id; every departure is of an earlier arrival on its
    # channel, so the counts give the channels on air exactly
    watching = [0] * (catalog_size + 1)
    on_air: list[int] = []
    viewer_id = on = 0
    for step, joined in enumerate(arrivals):
        for _, channel, _ in departures[step]:  # complete: a hold lasts a step or more
            watching[channel] -= 1
            if not watching[channel]:
                on -= 1
        for _ in range(arrivals_in_step()):
            channel = bisect_right(cdf, draw()) + 1
            hold_steps = -mean_hold_min * log1p(-draw()) / dt_min
            # a hold is never negative, so `ceil or 1` is max(1, ceil)
            if hold_steps < n_steps and (depart := step + (ceil(hold_steps) or 1)) < n_steps:
                departures[depart].append(event(TrafficEvent, (VIEWER_DEPART, channel, viewer_id)))
            joined.append(event(TrafficEvent, (VIEWER_ARRIVE, channel, viewer_id)))
            if not watching[channel]:
                on += 1
            watching[channel] += 1
            viewer_id += 1
        on_air.append(on)
    return tuple(map(tuple, departures)), tuple(map(tuple, arrivals)), tuple(on_air)


@lru_cache(maxsize=1)
def call_side(seed: int, n_steps: int, dt_min: float, rate_per_min: float,
              mean_hold_min: float) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Per step, the call departure and arrival counts and the calls then live; stream 1
    draws a count, then each hold."""
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
    departures, arrivals = tuple(departures), tuple(arrivals)
    return departures, arrivals, live_call_series(departures, arrivals)


def build_trace(config: ScenarioConfig, seed: int) -> Trace:
    """The ordered event list of every step of one replication.

    The trace is policy-blind: it holds every arrival and its departure,
    and the engine ignores departures of viewers it never admitted, so
    both policies can be compared on one trace.  A hold of tau minutes lasts ceil(tau / t1) steps, at least one; a
    hold of n_steps steps or more (even inf) is dropped unrounded, since
    its departure would fall past the last step.  Each call returns
    fresh lists, merged from the memoised sides, with the sides' series.
    """
    n, t1 = config.n_steps, config.sample_interval_min
    return Trace(
        viewer_side(seed, n, t1, config.iptv_viewer_arrival_rate_per_min,
                    config.iptv_viewer_mean_hold_min, config.num_channels_catalog,
                    config.channel_popularity_skew),
        call_side(seed, n, t1, config.non_iptv_arrival_rate_per_min,
                  config.non_iptv_mean_hold_min))
