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

Each traffic class gets its own stream, so the IPTV side of a trace can
be replayed or perturbed without touching the non-IPTV side.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .model import ScenarioConfig


class RngStream:
    """An independent, portable random stream named by (seed, stream_id)."""

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = seed
        self.stream_id = stream_id
        material = f"bwbroker|{seed}|{stream_id}".encode()
        rng = random.Random(int.from_bytes(hashlib.sha256(material).digest(), "big"))
        # random() -> uniform draw in [0, 1); bound straight to the
        # generator, since it is called several times per arrival
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


# Largest mean drawn with one run of the product method: exp(-500) is far
# from underflow, while exp(-mean) for a mean past ~745 is exactly 0.0.
POISSON_CHUNK_MEAN = 500.0


def gen_poisson_count(rate_per_min: float, dt_min: float, rng: RngStream) -> int:
    """Number of arrivals in an interval of length dt at the given rate.

    Knuth's product method on uniform draws.  A mean above
    POISSON_CHUNK_MEAN is split into equal chunks no larger than that,
    whose counts add up to a Poisson count of the whole mean (sums of
    independent Poisson variables are Poisson), so the threshold
    exp(-chunk) never underflows and the count is exact at any mean.
    """
    if rate_per_min < 0:
        raise ValueError("rate must be non-negative")
    if dt_min <= 0:
        raise ValueError("dt must be positive")
    mean = rate_per_min * dt_min
    if mean == 0.0:
        return 0
    chunks = math.ceil(mean / POISSON_CHUNK_MEAN) if mean > POISSON_CHUNK_MEAN else 1
    threshold = math.exp(-mean / chunks)
    draw = rng.random
    count = 0
    for _ in range(chunks):
        product = draw()
        while product > threshold:
            count += 1
            product *= draw()
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


def pick_channel(catalog_size: int, skew: float, rng: RngStream) -> int:
    """Draw a channel id in 1..catalog_size, popularity-weighted.

    Consumes exactly one uniform draw (inverse CDF lookup).
    """
    if catalog_size < 1:
        raise ValueError("catalog_size must be at least 1")
    if skew < 0:
        raise ValueError("skew must be non-negative")
    cdf = _popularity_cdf(catalog_size, skew)
    return bisect_right(cdf, rng.random()) + 1


def sample_holding_time(mean_min: float, rng: RngStream) -> float:
    """Exponential holding time with the given mean, one uniform draw."""
    if mean_min <= 0:
        raise ValueError("mean must be positive")
    return -mean_min * math.log1p(-rng.random())


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
        if mean_active(mid) < target_mean_channels:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TrafficGenerator:
    """Emits the merged, ordered event list of each simulation step.

    The generator is policy-blind: it draws and emits every arrival and
    the matching departure unconditionally.  Whether a viewer actually got
    on air is the engine's business; the engine simply ignores departures
    of viewers it never admitted.  That keeps the draw sequence identical
    across allocation policies, which is what makes paired comparisons on
    a common trace possible.
    """

    def __init__(self, config: ScenarioConfig, viewer_rng: RngStream, call_rng: RngStream):
        self._cfg = config
        self._viewer_rng = viewer_rng
        self._call_rng = call_rng
        # step -> the viewer departures due then, and the number of call departures
        self._pending_viewer: dict[int, list[TrafficEvent]] = {}
        self._pending_call: dict[int, int] = {}
        self._next_viewer_id = 0

    @classmethod
    def from_seed(cls, config: ScenarioConfig, seed: int) -> "TrafficGenerator":
        # stream 0 drives viewers, stream 1 drives non-IPTV calls
        return cls(config, RngStream(seed, 0), RngStream(seed, 1))

    def schedule_viewer_departure(self, step: int, viewer_id: int, channel_id: int) -> None:
        event = TrafficEvent(VIEWER_DEPART, channel_id, viewer_id)
        self._pending_viewer.setdefault(step, []).append(event)

    def schedule_call_departure(self, step: int) -> None:
        self._pending_call[step] = self._pending_call.get(step, 0) + 1

    def events_for_step(self, step: int) -> list[TrafficEvent]:
        """All events taking effect at the given step, departures first.

        Order within the step is fixed: viewer departures, call
        departures, call arrivals, then viewer arrivals, so a new viewer
        is admitted against the step's already-updated background load.
        Each call arrival draws its holding time; each viewer arrival
        draws its channel, then its holding time, with the same single
        draws as pick_channel and sample_holding_time.  A hold of tau
        minutes lasts ceil(tau / t1) steps, at least one.
        """
        cfg = self._cfg
        t1 = cfg.sample_interval_min
        ceil, log1p = math.ceil, math.log1p
        events = self._pending_viewer.pop(step, [])
        events += [CALL_DEPARTURE] * self._pending_call.pop(step, 0)

        rng = self._call_rng
        n = gen_poisson_count(cfg.non_iptv_arrival_rate_per_min, t1, rng)
        schedule = self.schedule_call_departure
        mean_hold = cfg.non_iptv_mean_hold_min
        draw = rng.random
        for _ in range(n):
            schedule(step + max(1, ceil(-mean_hold * log1p(-draw()) / t1)))
        events += [CALL_ARRIVAL] * n

        rng = self._viewer_rng
        n = gen_poisson_count(cfg.iptv_viewer_arrival_rate_per_min, t1, rng)
        schedule = self.schedule_viewer_departure
        cdf = _popularity_cdf(cfg.num_channels_catalog, cfg.channel_popularity_skew)
        mean_hold = cfg.iptv_viewer_mean_hold_min
        draw = rng.random
        first = self._next_viewer_id
        self._next_viewer_id += n
        for viewer_id in range(first, first + n):
            channel = bisect_right(cdf, draw()) + 1
            schedule(step + max(1, ceil(-mean_hold * log1p(-draw()) / t1)), viewer_id, channel)
            events.append(TrafficEvent(VIEWER_ARRIVE, channel, viewer_id))

        return events
