"""Per-step scoring, the steps-CSV rows and cross-replication aggregation."""

import csv
import io
import math
import random
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bwbroker.broker import compute_borrowing
from bwbroker.metrics import (
    STEP_CSV_HEADER,
    RunSummary,
    StepRecord,
    aggregate,
    csv_text,
    replication_means,
    step_rows_csv,
    step_satisfaction,
    step_utilization,
)
from bwbroker.model import AllocationDecision, available_bandwidth, table1

bw = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def decision(per, n, grant=0.0, drops=()):
    return AllocationDecision(
        per_channel_bw_mbps=per,
        non_iptv_grant_mbps=grant,
        num_active_channels=n,
        dropped_channel_ids=tuple(drops),
    )


def rec(t, sl, util=0.5, blocks=0, drops=0, n=10):
    return StepRecord(
        t_min=t, non_iptv_demand_mbps=0.0, reserved_mbps=0.0,
        active_channels=n, per_channel_bw_mbps=2.0,
        satisfaction=sl, utilization=util, blocks=blocks, drops=drops,
    )


INTEGER_COLUMNS = {"replication", "N_IPTV", "blocks", "drops"}


def written_rows(records, config, replication=0):
    """The rows step_rows_csv writes for records, parsed back: a dict a row, by column name."""
    text = io.StringIO(step_rows_csv(replication, records, config))
    return [{name: (int if name in INTEGER_COLUMNS else float)(value) for name, value in row.items()}
            for row in csv.DictReader(text, fieldnames=STEP_CSV_HEADER)]


def rows_one_at_a_time(replication, records, config):
    """The steps-CSV text as csv.writer writes it, a row at a time: step_rows_csv's oracle."""
    full, capacity = config.iptv_channel_max_bw_mbps, config.capacity_mbps
    return csv_text(
        (replication, t, non_iptv, full * n, (available := available_bandwidth(capacity, non_iptv)),
         reserved, compute_borrowing(reserved, available), n, rate, sl, util, blocks, drops)
        for t, non_iptv, reserved, n, rate, sl, util, blocks, drops in records)


# finite floats, the edge values among them often: signed zeros, subnormals, the least
# normal, reprs with an exponent and the largest float
EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-05, 1e16,
               1.7976931348623157e308)
finite = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
# available_bandwidth refuses a negative B_I; -0.0 is not negative
non_negative = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(min_value=0.0, allow_infinity=False))
count = st.integers(0, 2**40)
step_record = st.builds(StepRecord, finite, non_negative, finite, count, finite, finite, finite,
                        count, count)


@settings(max_examples=300, deadline=None)
@given(replication=count, records=st.lists(step_record, max_size=30))
@example(replication=3, records=[])
def test_step_rows_are_the_text_csv_writer_writes(replication, records):
    cfg = table1()
    assert step_rows_csv(replication, records, cfg) == rows_one_at_a_time(replication, records, cfg)


def test_step_satisfaction_examples():
    assert step_satisfaction(decision(1.5, 20), 40.0) == 0.75
    assert step_satisfaction(decision(2.0, 20), 40.0) == 1.0
    assert step_satisfaction(decision(0.0, 0), 0.0) == 1.0
    # delivery above demand is still full satisfaction, never more
    assert step_satisfaction(decision(2.0, 30), 40.0) == 1.0


def test_step_satisfaction_rejects_negative_demand():
    with pytest.raises(ValueError):
        step_satisfaction(decision(1.0, 1), -1.0)


@given(delivered=bw, demand=bw)
def test_step_satisfaction_in_unit_interval(delivered, demand):
    assert 0.0 <= step_satisfaction(decision(delivered, 1), demand) <= 1.0


@given(demand=st.floats(min_value=1.0, max_value=1e6), a=bw, b=bw)
def test_step_satisfaction_monotone_in_delivered(demand, a, b):
    lo, hi = sorted((a, b))
    assert step_satisfaction(decision(lo, 1), demand) <= step_satisfaction(decision(hi, 1), demand)


def test_step_utilization_examples(cfg):
    assert step_utilization(decision(2.0, 20, grant=20.0), cfg) == 1.0
    assert step_utilization(decision(2.0, 10), cfg) == pytest.approx(20.0 / 60.0)
    # the shed-and-rescale overload case fills the cell exactly
    assert step_utilization(decision(1.0, 15, grant=45.0), cfg) == 1.0
    assert step_utilization(decision(0.0, 0), cfg) == 0.0


def test_aggregate_single_replication_has_zero_se():
    s = aggregate([[rec(0.0, 1.0), rec(1.0, 0.5)]], warmup_min=0.0)
    assert s.mean_satisfaction == 0.75
    assert s.se_satisfaction == 0.0
    assert s.replications == 1


def test_aggregate_two_replications():
    a = [rec(0.0, 1.0), rec(1.0, 0.5)]     # mean 0.75
    b = [rec(0.0, 1.0), rec(1.0, 1.0)]     # mean 1.00
    s = aggregate([a, b], warmup_min=0.0)
    assert s.mean_satisfaction == pytest.approx(0.875)
    assert s.se_satisfaction == pytest.approx(0.125)
    assert s.replications == 2


def test_aggregate_order_of_replications_is_irrelevant():
    a = [rec(0.0, 0.9), rec(1.0, 0.7)]
    b = [rec(0.0, 0.6), rec(1.0, 1.0)]
    assert aggregate([a, b], 0.0) == aggregate([b, a], 0.0)


def test_aggregate_discards_warmup():
    reps = [[rec(0.0, 0.0), rec(1.0, 1.0)]]
    s = aggregate(reps, warmup_min=1.0)
    assert s.mean_satisfaction == 1.0


def test_aggregate_event_rates_are_per_step():
    reps = [[rec(0.0, 1.0, blocks=2, drops=0), rec(1.0, 1.0, blocks=0, drops=1)]]
    s = aggregate(reps, 0.0)
    assert s.block_rate == 1.0
    assert s.drop_rate == 0.5


def test_aggregate_mean_channel_count():
    reps = [[rec(0.0, 1.0, n=10), rec(1.0, 1.0, n=20)]]
    assert aggregate(reps, 0.0).mean_active_channels == 15.0


def test_aggregate_rejects_degenerate_input():
    with pytest.raises(ValueError):
        aggregate([], 0.0)
    with pytest.raises(ValueError):
        aggregate([[rec(0.0, 1.0)]], warmup_min=1.0)       # nothing post-warmup
    with pytest.raises(ValueError):
        aggregate([[rec(0.0, 1.0), rec(1.0, 1.0)], [rec(1.0, 1.0)]], 0.0)


def _fmean_means(records, warmup_min):
    """The per-replication means as statistics.fmean over the post-warmup steps gives them."""
    post = [r for r in records if r.t_min >= warmup_min - 1e-9]
    return (
        len(post),
        statistics.fmean(r.satisfaction for r in post),
        statistics.fmean(r.utilization for r in post),
        statistics.fmean(r.blocks for r in post),
        statistics.fmean(r.drops for r in post),
        statistics.fmean(r.active_channels for r in post),
    )


def test_replication_means_equal_fmean_bit_for_bit():
    rng = random.Random(5)
    for _ in range(300):
        dt = rng.choice([1.0, 0.1, 0.25, 1 / 3])
        n = rng.randint(2, 400)
        warmup = rng.randint(0, n - 1) * dt
        times = [i * dt for i in range(n)]
        # at, just inside the 1e-9 slack below, and just under the warmup
        times += [warmup, warmup - 5e-10, warmup - 1e-9, warmup - 2e-9, warmup - 1e-6]
        records = [
            rec(t, rng.random(), util=rng.random(), blocks=rng.randint(0, 9),
                drops=rng.randint(0, 3), n=rng.randint(0, 30))
            for t in sorted(times)
        ]
        # the fields past the means are the extremes, checked on their own below
        assert replication_means(records, warmup)[:6] == _fmean_means(records, warmup)


def test_extremes_cover_every_step_and_only_survivors():
    def step(t, util, reserved, per, n=10, drops=0):
        return rec(t, 1.0, util=util, n=n, drops=drops)._replace(
            reserved_mbps=reserved, per_channel_bw_mbps=per)

    records = [
        step(0.0, util=0.9, reserved=4.0, per=1.5),            # warmup, still scanned
        step(1.0, util=0.4, reserved=9.0, per=0.0, drops=10),  # every channel dropped
        step(2.0, util=0.6, reserved=6.0, per=1.8),
        step(3.0, util=0.5, reserved=5.0, per=0.0, n=0),       # nothing on air
    ]
    m = replication_means(records, warmup_min=1.0)
    assert (m.steps, m.scanned_steps) == (3, 4)
    assert m.utilization == 0.5                    # the means still skip the warmup
    assert m.max_utilization == 0.9
    assert (m.min_reserved_mbps, m.max_reserved_mbps) == (4.0, 9.0)
    assert m.max_per_channel_mbps == 1.8
    assert m.min_survivor_per_channel_mbps == 1.5

    none_kept = [step(float(t), util=0.2, reserved=0.0, per=0.0, drops=10) for t in range(4)]
    assert replication_means(none_kept, 1.0).min_survivor_per_channel_mbps == math.inf

    # across replications the extremes fold with min and max, the step counts add up
    s = aggregate([records, none_kept], warmup_min=1.0)
    assert s.scanned_steps == 8
    assert (s.max_utilization, s.max_per_channel_mbps) == (0.9, 1.8)
    assert s.min_survivor_per_channel_mbps == 1.5
    assert (s.min_reserved_mbps, s.max_reserved_mbps) == (0.0, 9.0)


def test_summary_is_a_plain_value_object():
    s = RunSummary(1.0, 0.0, 0.5, 0.0, 0.0, 0.0, 10.0, 1, 720, 0.5, 2.0, 2.0, 0.0, 40.0)
    assert s == RunSummary(1.0, 0.0, 0.5, 0.0, 0.0, 0.0, 10.0, 1, 720, 0.5, 2.0, 2.0, 0.0, 40.0)
