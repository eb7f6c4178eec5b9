"""Per-step scoring, the steps-CSV rows and cross-replication aggregation."""

import csv
import io
import math
import random
import statistics
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bwbroker import metrics
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
from bwbroker.model import AllocationDecision, table1

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


def leftover_and_borrowing(steps, config):
    """(B_A, B_B) of each steps-CSV row written for steps given as (B_I, B_R) pairs."""
    records = [StepRecord(0.0, b_i, b_r, 0, 0.0, 1.0, 0.0, 0, 0) for b_i, b_r in steps]
    return [(row["B_A"], row["B_B"]) for row in written_rows(records, config)]


def rows_one_at_a_time(replication, records, config):
    """The steps-CSV text as csv.writer writes it, a row at a time: step_rows_csv's oracle.
    B_A is the leftover after B_I and B_B what B_R borrows beyond it, both clamped at zero."""
    full, capacity = config.iptv_channel_max_bw_mbps, config.capacity_mbps
    return csv_text(
        (replication, t, non_iptv, full * n, (available := max(0.0, capacity - non_iptv)),
         reserved, max(0.0, reserved - available), n, rate, sl, util, blocks, drops)
        for t, non_iptv, reserved, n, rate, sl, util, blocks, drops in records)


# finite floats, the edge values among them often: signed zeros, subnormals, the least
# normal, reprs with an exponent and the largest float
EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-05, 1e16,
               1.7976931348623157e308)
finite = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
count = st.integers(0, 2**40)
step_record = st.builds(StepRecord, finite, finite, finite, count, finite, finite, finite,
                        count, count)


@settings(max_examples=300, deadline=None)
@given(replication=count, records=st.lists(step_record, max_size=30))
@example(replication=3, records=[])
# table1's capacity is 60 Mbps: B_I above it leaves B_A at zero, one below zero leaves more
@example(replication=0, records=[StepRecord(0.0, 75.0, 40.0, 20, 1.0, 0.5, 0.9, 1, 0),
                                 StepRecord(1.0, -5.0, 40.0, 20, 2.0, 1.0, 0.9, 0, 0)])
# B_R equal to B_A borrows nothing
@example(replication=1, records=[StepRecord(0.0, 30.0, 30.0, 15, 2.0, 1.0, 1.0, 0, 0)])
def test_step_rows_are_the_text_csv_writer_writes(replication, records):
    cfg = table1()
    assert step_rows_csv(replication, records, cfg) == rows_one_at_a_time(replication, records, cfg)


def same_value_record(v):
    """A record whose every float column is v."""
    return StepRecord(v, v, v, 1, v, v, v, 0, 0)


def clear_repr_memos():
    for memo in metrics._repr_memos.values():
        memo.clear()


@pytest.mark.parametrize("first, then", [(-0.0, 0.0), (0.0, -0.0), (3.0, 3), (3, 3.0)])
def test_step_rows_keep_equal_values_of_other_sign_or_type_apart(first, then):
    clear_repr_memos()  # so the first value formatted is first
    cfg = table1()
    for records in ([same_value_record(first)], [same_value_record(then)],
                    [same_value_record(first), same_value_record(then)]):
        assert step_rows_csv(0, records, cfg) == rows_one_at_a_time(0, records, cfg)


@pytest.mark.parametrize("column", [
    (1.5, 0.0, 2.25, -0.0, 0.0, 1.5),  # both signs among other values, 0.0 first
    (1.5, -0.0, 2.25, 0.0, -0.0, 1.5),  # and -0.0 first
    (0.0, 0.0, 0.0),
    (-0.0, -0.0, -0.0),
])
def test_a_float_column_keeps_the_sign_of_each_zero(column):
    clear_repr_memos()
    cfg = table1()
    # a column of 0.0 first, so that the float memo may hold 0.0 when the column comes
    for records in ([same_value_record(0.0)] * 2, [same_value_record(v) for v in column],
                    [same_value_record(-0.0)] * 2, [same_value_record(v) for v in column[::-1]]):
        assert step_rows_csv(0, records, cfg) == rows_one_at_a_time(0, records, cfg)


def same_count_record(k):
    """A record whose N_IPTV, blocks and drops are k."""
    return StepRecord(0.5, 0.5, 0.5, k, 0.5, 0.5, 0.5, k, k)


@pytest.mark.parametrize("counts", [(3, 3.0, True, 1), (True, 1, 3.0, 3)])
def test_count_columns_keep_equal_values_of_other_type_apart(counts):
    clear_repr_memos()
    cfg = table1()
    # each value alone, so that its type's memo holds it, then all of them in one column
    for records in (*([same_count_record(k)] for k in counts),
                    list(map(same_count_record, counts))):
        assert step_rows_csv(0, records, cfg) == rows_one_at_a_time(0, records, cfg)


# equal values that csv.writer writes differently, so that two lists often share one
alike = st.sampled_from((0, 0.0, -0.0, 3, 3.0, 0.5, 10**16, 1e16))
any_float = st.one_of(alike, finite)
any_count = st.one_of(count, alike, st.booleans())
memo_record = st.builds(StepRecord, any_float, any_float, any_float, any_count,
                        any_float, any_float, any_float, any_count, any_count)


@settings(max_examples=150, deadline=None)
@given(first=st.lists(memo_record, max_size=10), then=st.lists(memo_record, max_size=10))
def test_step_rows_are_exact_whatever_was_formatted_before(first, then):
    cfg = table1()
    for replication, records in enumerate((first, then)):
        assert step_rows_csv(replication, records, cfg) == rows_one_at_a_time(replication, records, cfg)


@pytest.mark.parametrize("cap", [20, metrics.REPR_MEMO_CAP])
def test_the_repr_memo_stays_within_its_cap(monkeypatch, cap):
    sizes = {int: [], float: []}

    class WatchedMemo(metrics._ReprMemo):
        def __init__(self, kind):
            self.kind = kind

        def __setitem__(self, key, text):
            super().__setitem__(key, text)
            sizes[self.kind].append(len(self))

    monkeypatch.setattr(metrics, "_repr_memos", {kind: WatchedMemo(kind) for kind in sizes})
    monkeypatch.setattr(metrics, "REPR_MEMO_CAP", cap)
    cfg = table1()
    # eight or nine distinct floats a record, the leftover and the borrowing among them,
    # and three distinct counts
    records = [StepRecord(i + 0.25, 1 / (i + 2), i + 0.5, 3 * i, i + 0.75, -i - 0.25, -i - 0.5,
                          3 * i + 1, 3 * i + 2) for i in range(cap // 2)]
    for chunk in (records[:cap // 4], records, records[cap // 4:]):
        assert step_rows_csv(0, chunk, cfg) == rows_one_at_a_time(0, chunk, cfg)
    assert len(sizes[float]) > 2 * cap
    for kind_sizes in sizes.values():
        assert max(kind_sizes) == cap and kind_sizes.count(1) > 1


def test_step_satisfaction_examples():
    assert step_satisfaction(decision(1.5, 20), 40.0) == 0.75
    assert step_satisfaction(decision(2.0, 20), 40.0) == 1.0
    assert step_satisfaction(decision(0.0, 0), 0.0) == 1.0
    # delivery above demand is still full satisfaction, never more
    assert step_satisfaction(decision(2.0, 30), 40.0) == 1.0


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


finite = st.floats(min_value=-1e300, max_value=1e300)


@given(st.one_of(
    st.lists(finite, min_size=2, max_size=30),
    # values a few ulps apart, where a float formula would cancel
    st.tuples(finite, st.lists(st.integers(-2**20, 2**20), min_size=2, max_size=30)).map(
        lambda drawn: [drawn[0] + k * math.ulp(drawn[0]) for k in drawn[1]])))
def test_stdev_is_the_correctly_rounded_root_of_the_exact_variance(values):
    s = metrics._stdev(values)
    data = list(map(Fraction, values))
    mean = sum(data) / len(data)
    variance = sum((x - mean) ** 2 for x in data) / (len(data) - 1)
    # s is the float nearest the root when the root lies between the midpoints from s to
    # its neighbours, and a root at a midpoint rounds to the float with an even significand
    below = (Fraction(math.nextafter(s, 0.0)) + Fraction(s)) / 2
    above = (Fraction(s) + Fraction(math.nextafter(s, math.inf))) / 2
    assert below ** 2 <= variance <= above ** 2
    if variance in (below ** 2, above ** 2):
        assert struct.unpack("<q", struct.pack("<d", s))[0] % 2 == 0


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


def _fmean_means(records, warmup_min):
    """The per-replication means as statistics.fmean over the post-warmup steps gives them."""
    post = [r for r in records if r.t_min >= warmup_min - 1e-9]
    return (
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
        assert replication_means(records, warmup)[:5] == _fmean_means(records, warmup)


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
    assert m.scanned_steps == 4
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
