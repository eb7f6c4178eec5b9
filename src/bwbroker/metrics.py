"""Per-step measurements and cross-replication aggregation."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .model import BW_TOL, AllocationDecision, ScenarioConfig


class StepRecord(NamedTuple):
    """One simulated step of one policy, everything a later plot needs.

    The fields are in the column order of the steps CSV.  active_channels
    counts the channels that were on air when allocation ran, including
    any the allocator then dropped, so iptv_demand_mbps is always the
    per-channel demand times active_channels.
    """

    t_min: float
    non_iptv_demand_mbps: float
    iptv_demand_mbps: float
    available_mbps: float
    reserved_mbps: float
    borrowed_mbps: float
    active_channels: int
    per_channel_bw_mbps: float
    satisfaction: float
    utilization: float
    blocks: int
    drops: int


@dataclass(frozen=True)
class RunSummary:
    """Post-warmup means of one policy, averaged across replications.

    block_rate and drop_rate are mean events per step.  Standard errors
    are across replications (0.0 for a single replication).
    """

    mean_satisfaction: float
    se_satisfaction: float
    mean_utilization: float
    se_utilization: float
    block_rate: float
    drop_rate: float
    mean_active_channels: float
    replications: int


def step_satisfaction(decision: AllocationDecision, demand_mbps: float) -> float:
    """Delivered share of this step's IPTV demand, in [0, 1].

    The demand argument should include full-rate credit for channel
    requests that were blocked or dropped this step; those delivered
    nothing, which is exactly how they depress the ratio.
    """
    if demand_mbps < 0:
        raise ValueError("demand must be non-negative")
    if demand_mbps <= BW_TOL:
        return 1.0
    return min(1.0, decision.delivered_iptv_mbps / demand_mbps)


def step_utilization(decision: AllocationDecision, config: ScenarioConfig) -> float:
    """Granted bandwidth (both classes) as a fraction of cell capacity."""
    used = decision.delivered_iptv_mbps + decision.non_iptv_grant_mbps
    return used / config.capacity_mbps


class ReplicationMeans(NamedTuple):
    """Post-warmup step count and per-step means of one policy in one replication."""

    steps: int
    satisfaction: float
    utilization: float
    blocks: float
    drops: float
    active_channels: float


def replication_means(records: Sequence[StepRecord], warmup_min: float) -> ReplicationMeans:
    """Drop the warmup and average each column, exactly as statistics.fmean would."""
    post = [r for r in records if r.t_min >= warmup_min - 1e-9]
    if not post:
        raise ValueError("no post-warmup steps in a replication")
    n = len(post)
    column = StepRecord._make(zip(*post))
    # the integer columns sum exactly, so their int sum is fmean's float sum
    return ReplicationMeans(
        n,
        math.fsum(column.satisfaction) / n,
        math.fsum(column.utilization) / n,
        sum(column.blocks) / n,
        sum(column.drops) / n,
        sum(column.active_channels) / n,
    )


def summarize(per_rep: Sequence[ReplicationMeans]) -> RunSummary:
    """Average the per-replication means across replications."""
    if not per_rep:
        raise ValueError("need at least one replication")
    column = ReplicationMeans._make(zip(*per_rep))
    if len(set(column.steps)) != 1:
        raise ValueError("replications disagree on post-warmup step count")

    def se(values: tuple[float, ...]) -> float:
        return statistics.stdev(values) / math.sqrt(len(values)) if len(values) > 1 else 0.0

    return RunSummary(
        mean_satisfaction=statistics.fmean(column.satisfaction),
        se_satisfaction=se(column.satisfaction),
        mean_utilization=statistics.fmean(column.utilization),
        se_utilization=se(column.utilization),
        block_rate=statistics.fmean(column.blocks),
        drop_rate=statistics.fmean(column.drops),
        mean_active_channels=statistics.fmean(column.active_channels),
        replications=len(per_rep),
    )


def aggregate(records_by_rep: Sequence[Sequence[StepRecord]], warmup_min: float) -> RunSummary:
    """Drop the warmup, average within each replication, then across them."""
    return summarize([replication_means(r, warmup_min) for r in records_by_rep])
