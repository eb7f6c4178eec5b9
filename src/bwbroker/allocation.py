"""Per-step bandwidth allocation under the two policies.

Without an SLA the cell degrades every flow by one common factor until
total demand fits.  With an SLA the broker's reservation acts as a
protected budget for IPTV and the non-IPTV class absorbs the squeeze.
Either way a channel that cannot be given the minimum watchable rate is
dropped rather than starved.

Allocation reads only which channels are on air and the aggregate non-IPTV
demand.  active maps each on-air channel to its viewers, and only the drop
order reads the viewers or the channel ids; it is worked out only on a step
that sheds.  So a step that sheds nothing may pass range(n) for its n
channels on air (engine.run_trace does on a free step) and get the same
decision as from any n-channel viewer map.
"""

from __future__ import annotations

from enum import Enum

from .model import BW_TOL, AllocationDecision, ScenarioConfig


class PolicyKind(Enum):
    NON_SLA = "nonsla"
    SLA = "sla"


# plain names for the members, cheaper to look up on every call than PolicyKind.X
NON_SLA, SLA = PolicyKind

# AllocationDecision's own __new__ is a Python-level call; tuple.__new__ is not
_decision = tuple.__new__

# the channels on air, each with the ids of its viewers; or range(n) where nothing is shed
OnAir = dict[int, set[int]] | range


def per_channel(
    policy: PolicyKind,
    n: int,
    non_iptv_mbps: float,
    reserved_mbps: float,
    config: ScenarioConfig,
) -> float:
    """Per-channel grant with n >= 1 channels on air under a policy.

    Without an SLA both classes share one scale factor, so the channel
    rate is full quality scaled by capacity over total demand.  With an
    SLA the channels split the protected budget (the larger of the
    leftover and the reservation, never more than capacity), capped at
    full quality.  reserved_mbps is ignored without an SLA.  The grant
    only improves as n shrinks.
    """
    cap = config.capacity_mbps
    full = config.iptv_channel_max_bw_mbps
    if policy is NON_SLA:
        total = full * n + non_iptv_mbps
        return full if total <= cap + BW_TOL else cap / total * full
    # min(cap, max(leftover, reserved)), spelled out: the builtins and the checks of
    # model.available_bandwidth cost more.  Clamping at zero last gives the same budget.
    budget = cap - non_iptv_mbps
    if reserved_mbps > budget:
        budget = reserved_mbps
    if budget < 0.0:
        budget = 0.0
    share = (budget if budget < cap else cap) / n
    return full if share >= full else share


def _drop_order(active: OnAir) -> list[int]:
    # least-watched channels go first; ties broken toward the higher id
    return sorted(active, key=lambda cid: (len(active[cid]), -cid))


def _shed_until_viable(
    active: OnAir,
    policy: PolicyKind,
    non_iptv_mbps: float,
    reserved_mbps: float,
    config: ScenarioConfig,
) -> tuple[int, float, tuple[int, ...]]:
    """Drop channels until the survivors clear the minimum watchable rate.

    The per-channel grant only improves as channels go, so shedding one
    at a time finds the largest viable survivor count.  The drop order is
    only worked out when the channels on air are not viable as they are.
    Returns (survivors, per_channel, dropped_ids); with no survivors the
    per-channel rate is 0.0.
    """
    n = len(active)
    if n == 0:
        return 0, 0.0, ()
    floor = config.iptv_channel_min_bw_mbps - BW_TOL
    per = per_channel(policy, n, non_iptv_mbps, reserved_mbps, config)
    if per >= floor:
        return n, per, ()
    order = _drop_order(active)
    for survivors in range(n - 1, 0, -1):
        per = per_channel(policy, survivors, non_iptv_mbps, reserved_mbps, config)
        if per >= floor:
            return survivors, per, tuple(order[: n - survivors])
    return 0, 0.0, tuple(order)


def allocate_non_sla(
    active: OnAir, non_iptv_mbps: float, config: ScenarioConfig
) -> AllocationDecision:
    """Equal-degradation allocation: both classes share one scale factor.

    If everything fits, everyone gets full rate.  Otherwise demand is
    scaled to capacity uniformly, and channels are shed (least watched
    first) while the scaled per-channel rate sits below the minimum.
    """
    cap = config.capacity_mbps
    survivors, per, dropped = _shed_until_viable(active, NON_SLA, non_iptv_mbps, 0.0, config)

    total = config.iptv_channel_max_bw_mbps * survivors + non_iptv_mbps
    grant = non_iptv_mbps if total <= cap + BW_TOL else cap / total * non_iptv_mbps

    return _decision(AllocationDecision, (per, grant, survivors, dropped))


def allocate_sla(
    active: OnAir, non_iptv_mbps: float, reserved_mbps: float, config: ScenarioConfig
) -> AllocationDecision:
    """Reservation-backed allocation: IPTV spends a protected budget.

    The budget is the larger of the current leftover and the reservation
    (never more than capacity).  Per-channel grants are capped at full
    quality; channels are shed while the fair share sits below the
    minimum.  Non-IPTV gets whatever IPTV leaves unspent, so any
    borrowed bandwidth comes straight out of its share.
    """
    cap = config.capacity_mbps
    if reserved_mbps < -BW_TOL:
        raise ValueError("reservation must be non-negative")
    if reserved_mbps > cap + BW_TOL:
        raise ValueError("reservation exceeds cell capacity")

    survivors, per, dropped = _shed_until_viable(active, SLA, non_iptv_mbps, reserved_mbps, config)

    spent = per * survivors
    headroom = cap - spent
    if headroom < 0.0:
        headroom = 0.0
    grant = non_iptv_mbps if non_iptv_mbps <= headroom else headroom

    return _decision(AllocationDecision, (per, grant, survivors, dropped))


def admit_channel(
    policy: PolicyKind,
    n: int,
    non_iptv_mbps: float,
    reserved_mbps: float,
    config: ScenarioConfig,
) -> bool:
    """Would a channel activated with n already on air still be watchable? Admit iff yes.

    Evaluates the policy's per-channel rate with n + 1 channels on air;
    admission requires it to clear the minimum rate.  Only channel
    activations pass through here: a viewer joining a channel that is
    already on air never needs admission.
    """
    per = per_channel(policy, n + 1, non_iptv_mbps, reserved_mbps, config)
    return per >= config.iptv_channel_min_bw_mbps - BW_TOL
