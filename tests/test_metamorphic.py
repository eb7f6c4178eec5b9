"""Metamorphic relations: how a run's records move when its config moves, with no oracle.

Both relations hold on every valid config, so they check the whole replication
(traffic, broker, admission, allocation, shedding and scoring) end to end,
where the closed forms of test_acceptance.py reach only single steps.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from bwbroker.engine import replication_seed, run_paired
from test_acceptance import EQ_TOL
from test_properties import small_configs

MBPS_FIELDS = ("capacity_mbps", "iptv_channel_max_bw_mbps", "iptv_channel_min_bw_mbps",
               "iptv_reservation_cap_mbps", "non_iptv_call_bw_mbps")
RATES = ("non_iptv_demand_mbps", "reserved_mbps", "per_channel_bw_mbps")
DECISIONS = ("t_min", "active_channels", "satisfaction", "utilization", "blocks", "drops")


def _paired_runs(config):
    return [run_paired(config, replication_seed(config.base_seed, rep))
            for rep in range(config.replications)]


@settings(max_examples=40, deadline=None)
@given(config=small_configs(), k=st.sampled_from([2.0, 0.5, 8.0]))
def test_scaling_every_bandwidth_by_a_power_of_two_scales_every_rate_exactly(config, k):
    # a power of two scales every product, quotient and sum exactly, so every comparison,
    # and every ratio (SL, utilization), is unchanged; only BW_TOL does not scale
    scaled = dataclasses.replace(config, **{f: getattr(config, f) * k for f in MBPS_FIELDS})
    for runs, scaled_runs in zip(_paired_runs(config), _paired_runs(scaled)):
        assert runs.keys() == scaled_runs.keys()
        for policy, records in runs.items():
            scaled_records = scaled_runs[policy]
            assert len(records) == len(scaled_records) == config.n_steps
            for r, s in zip(records, scaled_records):
                assert [getattr(s, f) for f in DECISIONS] == [getattr(r, f) for f in DECISIONS]
                assert [getattr(s, f) for f in RATES] == [getattr(r, f) * k for f in RATES]


@settings(max_examples=40, deadline=None)
@given(config=small_configs())
def test_without_calls_both_policies_decide_alike(config):
    # the SLA's protected budget is then the whole capacity, so its channels split what
    # equal degradation gives them; cap / (full * n) * full and cap / n may round apart
    quiet = dataclasses.replace(config, non_iptv_arrival_rate_per_min=0.0)
    for runs in _paired_runs(quiet):
        non_sla, sla = runs.values()
        for a, b in zip(non_sla, sla, strict=True):
            assert (a.active_channels, a.blocks, a.drops) == (b.active_channels, b.blocks, b.drops)
            assert a.non_iptv_demand_mbps == b.non_iptv_demand_mbps == 0.0
            for field in ("satisfaction", "utilization", "per_channel_bw_mbps"):
                assert abs(getattr(a, field) - getattr(b, field)) <= EQ_TOL, field
