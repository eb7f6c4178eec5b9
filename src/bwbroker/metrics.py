"""Per-step measurements, their rows in the steps CSV, and cross-replication aggregation."""

from __future__ import annotations

import csv
import io
import math
import operator
import statistics
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Iterable, NamedTuple, Sequence

from .broker import compute_borrowing
from .model import BW_TOL, AllocationDecision, ScenarioConfig, available_bandwidth


class StepRecord(NamedTuple):
    """One simulated step of one policy: what it was given and what it decided.

    active_channels counts the channels that were on air when allocation
    ran, including any the allocator then dropped.
    """

    t_min: float
    non_iptv_demand_mbps: float
    reserved_mbps: float
    active_channels: int
    per_channel_bw_mbps: float
    satisfaction: float
    utilization: float
    blocks: int
    drops: int


STEP_CSV_HEADER = ["replication", "t_min", "B_I", "B_IPTV_demand", "B_A", "B_R", "B_B",
                   "N_IPTV", "per_channel_bw", "SL", "utilization", "blocks", "drops"]


def csv_text(rows: Iterable[Sequence]) -> str:
    """rows as CSV text in the dialect of every file bwbroker writes."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


def step_rows_csv(replication: int, records: Sequence[StepRecord], config: ScenarioConfig) -> str:
    """The steps-CSV rows of one replication as text, formatted a column at a time as csv_text
    would write them: a float by repr, an int by str, neither quoted.  B_IPTV_demand, B_A and
    B_B follow from the record: the full rate times N_IPTV, the leftover after B_I, the
    borrowing."""
    if not records:
        return ""
    full, capacity = config.iptv_channel_max_bw_mbps, config.capacity_mbps
    t, non_iptv, reserved, n, rate, sl, util, blocks, drops = zip(*records)
    available = tuple(map(available_bandwidth, repeat(capacity), non_iptv))
    columns = (repeat(str(replication)), map(repr, t), map(repr, non_iptv),
               map(repr, [full * k for k in n]), map(repr, available), map(repr, reserved),
               map(repr, map(compute_borrowing, reserved, available)), map(str, n),
               map(repr, rate), map(repr, sl), map(repr, util), map(str, blocks), map(str, drops))
    return "\n".join(map(",".join, zip(*columns))) + "\n"


@dataclass(frozen=True)
class RunSummary:
    """Post-warmup means of one policy, averaged across replications.

    block_rate and drop_rate are mean events per step.  Standard errors
    are across replications (0.0 for a single replication).  The last six
    fields span all steps, warmup included: their count and the capacity
    extremes (min_survivor_per_channel_mbps is inf if none kept a channel).
    """

    mean_satisfaction: float
    se_satisfaction: float
    mean_utilization: float
    se_utilization: float
    block_rate: float
    drop_rate: float
    mean_active_channels: float
    replications: int
    scanned_steps: int
    max_utilization: float
    max_per_channel_mbps: float
    min_survivor_per_channel_mbps: float
    min_reserved_mbps: float
    max_reserved_mbps: float


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
    # the delivered IPTV: the survivors' rate times their count
    share = decision.per_channel_bw_mbps * decision.num_active_channels / demand_mbps
    return share if share < 1.0 else 1.0


def step_utilization(decision: AllocationDecision, config: ScenarioConfig) -> float:
    """Granted bandwidth (both classes) as a fraction of cell capacity."""
    iptv = decision.per_channel_bw_mbps * decision.num_active_channels
    return (iptv + decision.non_iptv_grant_mbps) / config.capacity_mbps


class ReplicationMeans(NamedTuple):
    """One policy in one replication, in RunSummary's terms: its means and its extremes."""

    steps: int
    satisfaction: float
    utilization: float
    blocks: float
    drops: float
    active_channels: float
    scanned_steps: int
    max_utilization: float
    max_per_channel_mbps: float
    min_survivor_per_channel_mbps: float
    min_reserved_mbps: float
    max_reserved_mbps: float


def replication_means(records: Sequence[StepRecord], warmup_min: float) -> ReplicationMeans:
    """Average each post-warmup column exactly as statistics.fmean would,
    and take the extremes over every step."""
    if not records or records[-1].t_min < warmup_min - 1e-9:
        raise ValueError("no post-warmup steps in a replication")
    column = StepRecord._make(zip(*records))
    # the records are in time order, so the warmup is a prefix
    start = bisect_left(column.t_min, warmup_min - 1e-9)
    n = len(records) - start
    survivors = map(operator.gt, column.active_channels, column.drops)
    # the integer columns sum exactly, so their int sum is fmean's float sum
    return ReplicationMeans(
        n,
        math.fsum(column.satisfaction[start:]) / n,
        math.fsum(column.utilization[start:]) / n,
        sum(column.blocks[start:]) / n,
        sum(column.drops[start:]) / n,
        sum(column.active_channels[start:]) / n,
        len(records),
        max(column.utilization),
        max(column.per_channel_bw_mbps),
        min(compress(column.per_channel_bw_mbps, survivors), default=math.inf),
        min(column.reserved_mbps),
        max(column.reserved_mbps),
    )


def summarize(per_rep: Sequence[ReplicationMeans]) -> RunSummary:
    """Average the per-replication means, and fold their extremes, across replications."""
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
        scanned_steps=sum(column.scanned_steps),
        max_utilization=max(column.max_utilization),
        max_per_channel_mbps=max(column.max_per_channel_mbps),
        min_survivor_per_channel_mbps=min(column.min_survivor_per_channel_mbps),
        min_reserved_mbps=min(column.min_reserved_mbps),
        max_reserved_mbps=max(column.max_reserved_mbps),
    )


def aggregate(records_by_rep: Sequence[Sequence[StepRecord]], warmup_min: float) -> RunSummary:
    """Drop the warmup, average within each replication, then across them."""
    return summarize([replication_means(r, warmup_min) for r in records_by_rep])
