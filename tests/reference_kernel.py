"""A slow, literal statement of one replication, written from the module docstrings.

It is the differential reference for the simulation loop: it shares no
code with `bwbroker.engine` or `bwbroker.allocation`, only the traffic
sides it plays.  Viewers are a dict of sets, calls an integer, the broker
window a plain list, and channels are shed one at a time.

One step, in order:

1. The reservation: under the SLA, the mean offered IPTV demand over the
   last `history_samples` steps (none yet: 0), capped at the reservation
   ceiling; without an SLA, 0.
2. Viewer departures; a viewer not on its channel (blocked, or dropped with
   its channel) is ignored, and a channel with no viewer left goes off air.
3. Call departures, then call arrivals.
4. Viewer arrivals.  A viewer of a channel on air joins it.  A viewer of a
   channel off air activates it only if the policy's per-channel rate with
   one more channel on air clears the minimum; else the viewer is blocked.
5. Allocation: while the per-channel rate of the channels on air is below
   the minimum, drop the least watched channel, ties toward the higher id.
6. The record; under the SLA the step's offered demand joins the window.
"""

from __future__ import annotations

from bwbroker.allocation import PolicyKind
from bwbroker.traffic import call_side, viewer_side

TOL = 1e-9  # bandwidth comparisons are fuzzy by this much, as model.BW_TOL says


def reference_steps(config, seed):
    """Per step: (viewer departures, call departures, call arrivals, viewer arrivals),
    each viewer a (channel, viewer) pair, read from the two traffic sides."""
    n, dt = config.n_steps, config.sample_interval_min
    sides = viewer_side(seed, n, dt, config.iptv_viewer_arrival_rate_per_min,
                        config.iptv_viewer_mean_hold_min, config.num_channels_catalog,
                        config.channel_popularity_skew)
    viewers_out, viewers_in = sides[0], sides[1]  # the side also carries its free play
    calls_out, calls_in, _ = call_side(seed, n, dt, config.non_iptv_arrival_rate_per_min,
                                       config.non_iptv_mean_hold_min)

    def pairs(events):
        return [(ev.channel_id, ev.viewer_id) for ev in events]

    return [(pairs(v_out), c_out, c_in, pairs(v_in))
            for v_out, c_out, c_in, v_in in zip(viewers_out, calls_out, calls_in, viewers_in)]


def per_channel_rate(config, sla, n, calls_mbps, reserved):
    """Per-channel grant with n >= 1 channels on air.

    Without an SLA every flow is scaled by capacity over total demand when
    demand exceeds capacity.  With an SLA the channels split the larger of
    the leftover and the reservation, at most capacity, capped at full rate.
    """
    cap, full = config.capacity_mbps, config.iptv_channel_max_bw_mbps
    if not sla:
        total = full * n + calls_mbps
        return full if total <= cap + TOL else full * cap / total
    budget = min(cap, max(cap - calls_mbps, 0.0, reserved))
    return min(full, budget / n)


def reference_run(config, policy, steps):
    """One policy over the given steps: per step, the values of a StepRecord."""
    sla = policy is PolicyKind.SLA
    cap, full = config.capacity_mbps, config.iptv_channel_max_bw_mbps
    floor = config.iptv_channel_min_bw_mbps - TOL
    on_air: dict[int, set[int]] = {}
    calls = 0
    window: list[float] = []
    out = []
    for step, (leaving, calls_out, calls_in, joining) in enumerate(steps):
        reserved = 0.0
        if sla and window:
            reserved = min(sum(window) / len(window), config.iptv_reservation_cap_mbps)
        for channel, viewer in leaving:
            if viewer in on_air.get(channel, ()):
                on_air[channel].remove(viewer)
                if not on_air[channel]:
                    del on_air[channel]
        calls = calls - calls_out + calls_in
        calls_mbps = calls * config.non_iptv_call_bw_mbps
        blocks = 0
        for channel, viewer in joining:
            if channel in on_air:
                on_air[channel].add(viewer)
            elif per_channel_rate(config, sla, len(on_air) + 1, calls_mbps, reserved) >= floor:
                on_air[channel] = {viewer}
            else:
                blocks += 1

        offered = len(on_air)
        drops = 0
        while on_air and per_channel_rate(config, sla, len(on_air), calls_mbps, reserved) < floor:
            least = min(on_air, key=lambda c: (len(on_air[c]), -c))
            del on_air[least]
            drops += 1
        survivors = len(on_air)
        per = per_channel_rate(config, sla, survivors, calls_mbps, reserved) if survivors else 0.0
        iptv = per * survivors
        if sla:
            grant = min(calls_mbps, max(0.0, cap - iptv))
        else:
            total = full * survivors + calls_mbps
            grant = calls_mbps if total <= cap + TOL else calls_mbps * cap / total
        demand = full * (offered + blocks)
        satisfaction = 1.0 if demand <= TOL else min(1.0, iptv / demand)
        available = max(0.0, cap - calls_mbps)
        out.append((step * config.sample_interval_min, calls_mbps, full * offered, available,
                    reserved, max(0.0, reserved - available), offered, per, satisfaction,
                    (iptv + grant) / cap, blocks, drops))
        if sla:
            window = (window + [full * offered])[-config.history_samples:]
    return out
