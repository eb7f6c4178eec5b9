"""Per-step measurements, their rows in the steps CSV, and cross-replication aggregation.

The steps CSV's columns are formatted through memos of repr, one per type, that
each process keeps and bounds: a table1 run formats about 260,000 floats that hold
about 5,400 distinct values, and 86,400 counts.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, repeat
from math import copysign
from operator import not_
from typing import Iterable, Iterator, NamedTuple, Sequence

from .model import BW_TOL, WARMUP_TOL, AllocationDecision, ScenarioConfig


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


# Most values a repr memo holds before it is emptied.  An entry is a value and its text,
# about 130 bytes with the dict's slots for 17-digit floats (tracemalloc: a full float
# memo holds 4.3 MB); table1's whole run has about 5,400 distinct floats.
REPR_MEMO_CAP = 1 << 15


class _ReprMemo(dict):
    """repr of the values of one type formatted in this process, keyed by value.  It is
    emptied before it would pass REPR_MEMO_CAP entries, so its text is repr's whatever was
    formatted before."""

    def __missing__(self, value: object) -> str:
        if len(self) >= REPR_MEMO_CAP:
            self.clear()
        self[value] = text = repr(value)
        return text


# one memo per type, so that 3 and 3.0 keep their own text
_repr_memos = {int: _ReprMemo(), float: _ReprMemo()}


def _reprs(column: Sequence) -> Iterator[str]:
    """repr of each of column's values, which csv.writer writes for an int, a bool or a float:
    from their type's memo when they share one, since a run repeats few distinct values.  The
    float memo may hold 0.0 (0.0 == -0.0), so a column with a -0.0 keeps off it."""
    kind, *others = set(map(type, column))
    memo = None if others else _repr_memos.get(kind)
    if memo is None or (kind is float and 0.0 in column and -1.0 in map(
            copysign, repeat(1.0), compress(column, map(not_, column)))):
        return map(repr, column)
    return map(memo.__getitem__, column)


def step_rows_csv(replication: int, records: Sequence[StepRecord], config: ScenarioConfig) -> str:
    """The steps-CSV rows of one replication as text, formatted a column at a time as csv_text
    would write them: a float by repr, an int by str, neither quoted.  B_IPTV_demand, B_A and
    B_B follow from the record: the full rate times N_IPTV, the leftover after B_I, and what
    B_R borrows beyond B_A, both clamped at zero.  Each column takes its text from _reprs."""
    if not records:
        return ""
    full, capacity = config.iptv_channel_max_bw_mbps, config.capacity_mbps
    t, non_iptv, reserved, n, rate, sl, util, blocks, drops = zip(*records)
    available = [x if (x := capacity - b) > 0.0 else 0.0 for b in non_iptv]
    borrowed = [x if (x := r - a) > 0.0 else 0.0 for r, a in zip(reserved, available)]
    columns = (repeat(str(replication)), _reprs(t), _reprs(non_iptv),
               _reprs([full * k for k in n]), _reprs(available), _reprs(reserved),
               _reprs(borrowed), _reprs(n),
               _reprs(rate), _reprs(sl), _reprs(util), _reprs(blocks), _reprs(drops))
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
    column = StepRecord._make(zip(*records))
    # the records are in time order, so the warmup is a prefix
    start = bisect_left(column.t_min, warmup_min - WARMUP_TOL)
    n = len(records) - start
    survivors = map(operator.gt, column.active_channels, column.drops)
    # the integer columns sum exactly, so their int sum is fmean's float sum
    return ReplicationMeans(
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


# bits of the scaled variance whose integer square root _stdev rounds to float once:
# 2 * 53 + 3, so the root keeps two bits past a float's 53
_SQRT_BITS = 109


def _stdev(values: Sequence[float]) -> float:
    """The sample standard deviation of two or more finite floats, correctly rounded: the
    square root of their exact variance, taken in integers and rounded to float once.  This
    is what statistics.stdev computes from Python 3.11 on; 3.10's is not correctly rounded."""
    ratios = [v.as_integer_ratio() for v in values]
    # a float's denominator is a power of two, so the largest is a multiple of each
    scale = max(d for _, d in ratios)
    scaled = [numerator * (scale // d) for numerator, d in ratios]
    n = len(scaled)
    num = n * sum(x * x for x in scaled) - sum(scaled) ** 2
    den = n * (n - 1) * scale * scale
    # num / den times 4**-shift has about _SQRT_BITS bits; its isqrt is made odd when
    # inexact (round to odd), so the one rounding to float below is correct
    shift = (num.bit_length() - den.bit_length() - _SQRT_BITS) // 2
    num, den = (num, den << 2 * shift) if shift >= 0 else (num << -2 * shift, den)
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


def summarize(per_rep: Sequence[ReplicationMeans]) -> RunSummary:
    """Average the per-replication means, and fold their extremes, across replications."""
    column = ReplicationMeans._make(zip(*per_rep))

    def mean(values: tuple[float, ...]) -> float:
        return math.fsum(values) / len(values)

    def se(values: tuple[float, ...]) -> float:
        return _stdev(values) / math.sqrt(len(values)) if len(values) > 1 else 0.0

    return RunSummary(
        mean_satisfaction=mean(column.satisfaction),
        se_satisfaction=se(column.satisfaction),
        mean_utilization=mean(column.utilization),
        se_utilization=se(column.utilization),
        block_rate=mean(column.blocks),
        drop_rate=mean(column.drops),
        mean_active_channels=mean(column.active_channels),
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
