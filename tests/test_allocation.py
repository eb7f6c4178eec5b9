"""Per-step bandwidth division for both policies, plus admission control."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwbroker import allocation
from bwbroker.allocation import (
    PolicyKind,
    admit_channel,
    allocate_non_sla,
    allocate_sla,
    per_channel,
)
from bwbroker.broker import compute_borrowing
from bwbroker.engine import run_paired
from bwbroker.model import available_bandwidth, table1

BW_TOL = 1e-9


def make_state(n_channels):
    """On-air map of n single-viewer channels, ids 1..n: channel k + 1 has viewer k."""
    return {k + 1: {k} for k in range(n_channels)}


def test_non_sla_scales_both_classes(cfg):
    # 20 channels wanting 40 plus 30 of call traffic, in a 60 cell
    d = allocate_non_sla(make_state(20), 30.0, cfg)
    scale = 60.0 / 70.0
    assert d.per_channel_bw_mbps == pytest.approx(2.0 * scale, rel=1e-12)
    assert d.non_iptv_grant_mbps == pytest.approx(30.0 * scale, rel=1e-12)
    assert d.num_active_channels == 20
    assert d.dropped_channel_ids == ()
    assert d.per_channel_bw_mbps * d.num_active_channels == pytest.approx(40.0 * scale, rel=1e-12)


def test_non_sla_underload_passes_demand_through(cfg):
    d = allocate_non_sla(make_state(10), 20.0, cfg)    # 20 + 20 = 40 <= 60
    assert d.per_channel_bw_mbps == 2.0
    assert d.non_iptv_grant_mbps == 20.0
    assert d.dropped_channel_ids == ()


def test_non_sla_sheds_channels_below_floor(cfg):
    # 30 channels against 90 of call traffic: equal scaling would leave
    # 0.8 per channel, under the 1.0 floor, so channels must come off air
    d = allocate_non_sla(make_state(30), 90.0, cfg)
    assert d.num_active_channels == 15
    assert d.per_channel_bw_mbps == pytest.approx(1.0, abs=1e-12)
    assert len(d.dropped_channel_ids) == 15
    # fewest viewers first, higher id breaks ties; all equal here
    assert d.dropped_channel_ids == tuple(range(30, 15, -1))
    assert d.non_iptv_grant_mbps == pytest.approx(45.0, rel=1e-12)
    delivered = d.per_channel_bw_mbps * d.num_active_channels
    assert delivered + d.non_iptv_grant_mbps == pytest.approx(60.0)


def test_drop_order_prefers_fewest_viewers(cfg):
    active = make_state(30)
    active[25].add(100)            # channel 25 now has two viewers
    d = allocate_non_sla(active, 90.0, cfg)
    assert 25 not in d.dropped_channel_ids
    assert d.dropped_channel_ids[0] == 30


def test_sla_reservation_shields_channels(cfg):
    # same 20/30 split, but a reservation of 40 keeps IPTV at full rate
    d = allocate_sla(make_state(20), 30.0, 40.0, cfg)
    assert d.per_channel_bw_mbps == 2.0
    assert d.non_iptv_grant_mbps == 20.0
    assert d.dropped_channel_ids == ()
    # the leftover and the borrowing are the step's, not the allocator's
    available = available_bandwidth(cfg.capacity_mbps, 30.0)
    assert available == 30.0
    assert compute_borrowing(40.0, available) == 10.0


def test_sla_splits_budget_across_channels(cfg):
    d = allocate_sla(make_state(30), 50.0, 40.0, cfg)
    assert d.per_channel_bw_mbps == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert d.non_iptv_grant_mbps == 20.0
    assert d.num_active_channels == 30
    available = available_bandwidth(cfg.capacity_mbps, 50.0)
    assert available == 10.0
    assert compute_borrowing(40.0, available) == 30.0


def test_sla_rejects_nonsense_reservation(cfg):
    active = make_state(5)
    with pytest.raises(ValueError):
        allocate_sla(active, 0.0, -0.5, cfg)
    with pytest.raises(ValueError):
        allocate_sla(active, 0.0, 61.0, cfg)


def test_sla_share_trails_equal_degradation_when_the_reservation_fits_the_leftover():
    # with B_R <= cap - B_I and full*n + B_I > cap, SLA splits the leftover n ways
    # and non-SLA gives cap*full/(full*n + B_I): the ratio of the two is below 1
    rng = random.Random(20110318)
    base = table1()
    checked = 0
    for _ in range(20_000):
        cap, full = rng.uniform(10.0, 100.0), rng.uniform(1.0, 4.0)
        cfg = replace(base, capacity_mbps=cap, iptv_channel_max_bw_mbps=full,
                      iptv_channel_min_bw_mbps=0.5 * full, iptv_reservation_cap_mbps=cap)
        n, b_i = rng.randint(1, 60), rng.uniform(1e-3, cap)
        reserved = rng.uniform(0.0, cap - b_i)
        if full * n + b_i <= cap + 1e-6:      # clear of BW_TOL: demand must overflow
            continue
        sla = per_channel(PolicyKind.SLA, n, b_i, reserved, cfg)
        non_sla = per_channel(PolicyKind.NON_SLA, n, b_i, reserved, cfg)
        assert sla <= non_sla
        assert abs(sla / non_sla - (1 + b_i * (cap - full * n - b_i) / (cap * full * n))) <= 1e-9
        checked += 1
    assert checked > 10_000


def test_admit_first_channel_into_idle_cell(cfg):
    assert admit_channel(PolicyKind.SLA, 0, 0.0, 0.0, cfg)
    assert admit_channel(PolicyKind.NON_SLA, 0, 0.0, 0.0, cfg)


def test_sla_blocks_when_budget_is_spread_too_thin(cfg):
    # 40 channels on a 40 budget sit exactly at the floor; one more
    # would push the share to 40/41 and has to be refused
    assert not admit_channel(PolicyKind.SLA, 40, 30.0, 40.0, cfg)


def test_non_sla_admits_while_floor_holds(cfg):
    assert admit_channel(PolicyKind.NON_SLA, 29, 0.0, 0.0, cfg)   # 30 * 2 = 60
    assert admit_channel(PolicyKind.NON_SLA, 59, 0.0, 0.0, cfg)   # scale 0.5, at floor
    assert not admit_channel(PolicyKind.NON_SLA, 60, 0.0, 0.0, cfg)


channels = st.integers(min_value=0, max_value=50)
call_load = st.floats(min_value=0.0, max_value=120.0)
reservations = st.floats(min_value=0.0, max_value=60.0)


@settings(max_examples=200, deadline=None)
@given(n=channels, b_i=call_load)
def test_non_sla_never_oversubscribes(n, b_i):
    cfg = table1()
    d = allocate_non_sla(make_state(n), b_i, cfg)
    used = d.per_channel_bw_mbps * d.num_active_channels + d.non_iptv_grant_mbps
    assert used <= cfg.capacity_mbps + BW_TOL
    assert 0.0 <= d.per_channel_bw_mbps <= cfg.iptv_channel_max_bw_mbps + BW_TOL
    if d.num_active_channels:
        assert d.per_channel_bw_mbps >= cfg.iptv_channel_min_bw_mbps - BW_TOL


@settings(max_examples=200, deadline=None)
@given(n=channels, b_i=call_load)
def test_non_sla_scales_classes_equally(n, b_i):
    cfg = table1()
    d = allocate_non_sla(make_state(n), b_i, cfg)
    if b_i > 0 and d.num_active_channels == n and n > 0:
        # no drops: both classes shrink by one common factor
        # (compare products, not ratios: dividing by a tiny b_i turns one
        # ulp of rounding into a visible gap)
        f_iptv = d.per_channel_bw_mbps / cfg.iptv_channel_max_bw_mbps
        assert d.non_iptv_grant_mbps == pytest.approx(f_iptv * b_i, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(n=channels, b_i=call_load, reserved=reservations)
def test_sla_never_oversubscribes(n, b_i, reserved):
    cfg = table1()
    d = allocate_sla(make_state(n), b_i, reserved, cfg)
    used = d.per_channel_bw_mbps * d.num_active_channels + d.non_iptv_grant_mbps
    assert used <= cfg.capacity_mbps + BW_TOL
    assert 0.0 <= d.per_channel_bw_mbps <= cfg.iptv_channel_max_bw_mbps + BW_TOL
    if d.num_active_channels:
        assert d.per_channel_bw_mbps >= cfg.iptv_channel_min_bw_mbps - BW_TOL
    available = available_bandwidth(cfg.capacity_mbps, b_i)
    assert available == max(0.0, cfg.capacity_mbps - b_i)
    assert compute_borrowing(reserved, available) == max(0.0, reserved - available)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 49), b_i=call_load, reserved=reservations)
def test_sla_share_shrinks_as_channels_join(n, b_i, reserved):
    cfg = table1()
    a = allocate_sla(make_state(n), b_i, reserved, cfg)
    b = allocate_sla(make_state(n + 1), b_i, reserved, cfg)
    if not a.dropped_channel_ids and not b.dropped_channel_ids:
        assert b.per_channel_bw_mbps <= a.per_channel_bw_mbps + BW_TOL


def test_no_drop_order_is_sorted_when_nothing_is_shed(monkeypatch):
    def no_sort(active):
        raise AssertionError("drop order sorted on a step that sheds nothing")

    monkeypatch.setattr(allocation, "_drop_order", no_sort)
    cfg = table1()
    out = run_paired(cfg, cfg.base_seed)
    for records in out.values():
        assert len(records) == cfg.n_steps
        assert all(r.drops == 0 for r in records)


# --- the shed rule as it was first written: one channel at a time, with the
# per-channel rate restated per policy; kept as the reference

def _ref_rate(policy, non_iptv, reserved, cfg):
    cap, full = cfg.capacity_mbps, cfg.iptv_channel_max_bw_mbps
    if policy is PolicyKind.NON_SLA:
        def rate(n):
            total = full * n + non_iptv
            if total <= cap + BW_TOL:
                return full
            return cap / total * full
    else:
        budget = min(cap, max(available_bandwidth(cap, non_iptv), reserved))

        def rate(n):
            share = budget / n
            return full if share >= full else share
    return rate


def _ref_shed(active, rate, cfg):
    order = sorted(active, key=lambda cid: (len(active[cid]), -cid))
    n = len(order)
    dropped = []
    while n > 0:
        per = rate(n)
        if per >= cfg.iptv_channel_min_bw_mbps - BW_TOL:
            return n, per, tuple(dropped)
        dropped.append(order[len(dropped)])
        n -= 1
    return 0, 0.0, tuple(dropped)


def _largest_viable(rate, cfg, limit=1000):
    k = 0
    while k < limit and rate(k + 1) >= cfg.iptv_channel_min_bw_mbps - BW_TOL:
        k += 1
    return k


def _boundary_case(rng, policy, cfg):
    """Demand and reservation that put m channels within a few BW_TOL of a threshold."""
    cap, full, floor = (cfg.capacity_mbps, cfg.iptv_channel_max_bw_mbps,
                        cfg.iptv_channel_min_bw_mbps)
    m = rng.randint(1, 60)
    nudge = rng.choice((-3, -1, 0, 1, 3)) * BW_TOL
    non_iptv, reserved = rng.uniform(0.0, 1.5 * cap), rng.uniform(0.0, cap)
    if policy is PolicyKind.NON_SLA:
        # the floor (cap * full / (full * m + b) == floor) or the point where all fits
        edge = cap * full / floor if rng.random() < 0.5 else cap
        non_iptv = edge - full * m + nudge
    elif rng.random() < 0.5:
        reserved = floor * m + nudge              # budget/m == floor via the reservation
        non_iptv = rng.uniform(cap - reserved, 1.5 * cap)
    else:
        non_iptv = cap - floor * m + nudge        # ... or via the leftover
        reserved = rng.uniform(0.0, cap - non_iptv)
    return max(0.0, non_iptv), min(cap, max(0.0, reserved))


def test_per_channel_rule_matches_one_at_a_time_shed():
    rng = random.Random(20111105)
    base = table1()
    checked = 0
    for _ in range(600):
        cap = rng.uniform(10.0, 100.0)
        full = rng.uniform(1.0, 4.0)
        cfg = replace(base, capacity_mbps=cap, iptv_channel_max_bw_mbps=full,
                      iptv_channel_min_bw_mbps=rng.uniform(0.4, 1.0) * full,
                      iptv_reservation_cap_mbps=rng.uniform(full, cap))
        cfg.validate()
        floor = cfg.iptv_channel_min_bw_mbps - BW_TOL
        policy = rng.choice(list(PolicyKind))
        if rng.random() < 0.7:
            non_iptv, reserved = _boundary_case(rng, policy, cfg)
        else:
            non_iptv, reserved = rng.uniform(0.0, 1.5 * cap), rng.uniform(0.0, cap)
        rate = _ref_rate(policy, non_iptv, reserved, cfg)
        k = _largest_viable(rate, cfg)
        for n in {k, k + 1, rng.randint(0, k + 5)}:
            active, viewer = {}, 0
            for cid in range(1, n + 1):
                active[cid] = set(range(viewer, viewer + rng.randint(1, 3)))
                viewer += len(active[cid])

            if n:
                assert per_channel(policy, n, non_iptv, reserved, cfg) == rate(n)
            admitted = admit_channel(policy, n, non_iptv, reserved, cfg)
            assert admitted == (per_channel(policy, n + 1, non_iptv, reserved, cfg) >= floor)
            assert admitted == (n + 1 <= k)

            survivors, per, dropped = _ref_shed(active, rate, cfg)
            # a step that sheds nothing may pass range(n) for its channels (a free step)
            for channels in (active, range(n)) if not dropped else (active,):
                if policy is PolicyKind.SLA:
                    d = allocate_sla(channels, non_iptv, reserved, cfg)
                else:
                    d = allocate_non_sla(channels, non_iptv, cfg)
                assert d.num_active_channels == survivors == min(n, k)
                assert d.per_channel_bw_mbps == per
                assert d.dropped_channel_ids == dropped
            checked += 1
    assert checked > 1000
