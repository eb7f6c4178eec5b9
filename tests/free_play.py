"""Oracles of the free play: its on-air and live-call series, and the viewer side's
draws as event lists.

traffic.viewer_side counts its on_air series as it draws.  on_air_series
recomputes it from the side's viewers alone, with a set of viewers a
channel: the oracle for the drawn series, and the series of a hand-made
side.  live_call_series does the same for traffic.call_side's live_calls,
from its departure and arrival counts, and checks that no step has more
departures than live calls, which a hand-made side could break.
event_viewer_side draws the same viewers as lists of events, one a step and
each a (channel, viewer) pair, with its own copy of the side's arithmetic:
the oracle that viewer_side draws exactly these viewers.
"""

from bisect import bisect_right
from math import ceil, log1p

from bwbroker.traffic import RngStream, _popularity_cdf, poisson_counter


def on_air_series(leaving, channels, starts) -> tuple[int, ...]:
    """Per step, the channels on air after it, had every viewer been admitted.

    leaving[t] holds the ids of the viewers that depart at step t, channels[v]
    is viewer v's channel, and step t's arrivals are range(starts[t],
    starts[t + 1]).  A step's viewer departures go before its arrivals.  A
    departure of a viewer not on its channel is ignored, and a channel is on
    air while a viewer is on it, as in model.CellState.
    """
    watching: dict[int, set[int]] = {}
    on_air = []
    for step, ids in enumerate(leaving):
        for viewer in ids:
            viewers = watching.get(channels[viewer])
            if viewers is not None and viewer in viewers:
                viewers.remove(viewer)
                if not viewers:
                    del watching[channels[viewer]]
        for viewer in range(starts[step], starts[step + 1]):
            watching.setdefault(channels[viewer], set()).add(viewer)
        on_air.append(len(watching))
    return tuple(on_air)


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


def event_viewer_side(seed, n_steps, dt_min, rate_per_min, mean_hold_min, catalog_size, skew):
    """Per step, the viewer departures, the viewer arrivals and the channels then on air,
    each viewer a (channel, viewer) pair: stream 0 draws a count, then each viewer's
    channel and hold, with the arithmetic of traffic.viewer_side."""
    rng = RngStream(seed, 0)
    draw, cdf = rng.random, _popularity_cdf(catalog_size, skew)
    arrivals_in_step = poisson_counter(rate_per_min, dt_min, rng)
    departures = [[] for _ in range(n_steps)]
    arrivals = [[] for _ in range(n_steps)]
    watching = [0] * (catalog_size + 1)
    on_air = []
    viewer_id = on = 0
    for step, joined in enumerate(arrivals):
        for channel, _ in departures[step]:
            watching[channel] -= 1
            if not watching[channel]:
                on -= 1
        for _ in range(arrivals_in_step()):
            channel = bisect_right(cdf, draw()) + 1
            hold_steps = -mean_hold_min * log1p(-draw()) / dt_min
            if hold_steps < n_steps and (depart := step + (ceil(hold_steps) or 1)) < n_steps:
                departures[depart].append((channel, viewer_id))
            joined.append((channel, viewer_id))
            if not watching[channel]:
                on += 1
            watching[channel] += 1
            viewer_id += 1
        on_air.append(on)
    return departures, arrivals, tuple(on_air)
