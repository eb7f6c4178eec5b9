"""The simulation loop against a literal reference kernel (reference_kernel.py).

Every record of run_paired must match the reference's, for both policies:
the integer columns exactly, the float columns within EQ_TOL.  Random small
configs cover the common case; an overload strategy makes sure the blocking
and shedding paths are compared too, including runs whose first block or
drop falls on the first step or on the last.
"""

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bwbroker.allocation import PolicyKind
from bwbroker.engine import run_paired
from bwbroker.metrics import StepRecord
from bwbroker.model import ScenarioConfig, table1
from reference_kernel import reference_run, reference_steps
from test_acceptance import EQ_TOL
from test_properties import small_configs

INTEGER_COLUMNS = {"active_channels", "blocks", "drops"}


def _first_fork(records):
    """The first step with a block or a drop, or None."""
    return next((i for i, r in enumerate(records) if r.blocks or r.drops), None)


def _compare(config):
    """Check run_paired against the reference on the config's base seed; per policy,
    the step of its first block or drop (None if it had none) and whether it dropped."""
    seed = config.base_seed
    steps = reference_steps(config, seed)
    forks = {}
    for policy, records in run_paired(config, seed).items():
        expected = reference_run(config, policy, steps)
        assert len(records) == len(expected) == config.n_steps
        for step, (got, want) in enumerate(zip(records, expected)):
            for name, a, b in zip(StepRecord._fields, got, want):
                if name in INTEGER_COLUMNS:
                    assert a == b, (policy, step, name, a, b)
                else:
                    assert abs(a - b) <= EQ_TOL, (policy, step, name, a, b)
        forks[policy] = _first_fork(records), any(r.drops for r in records)
    return forks


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(config=small_configs())
def test_random_configs_match_the_reference_kernel(config):
    _compare(config)


@st.composite
def overloaded_configs(draw):
    """Short runs of a small cell under heavy viewer and call traffic."""
    full = draw(st.floats(0.5, 4.0))
    capacity = full * draw(st.floats(1.0, 8.0))
    call_bw = draw(st.floats(0.1, 2.0))
    call_hold = draw(st.floats(1.0, 20.0))
    n_steps = draw(st.integers(8, 30))
    config = ScenarioConfig(
        capacity_mbps=capacity,
        iptv_channel_max_bw_mbps=full,
        iptv_channel_min_bw_mbps=full * draw(st.floats(0.3, 1.0)),
        iptv_reservation_cap_mbps=draw(st.floats(full, capacity)),
        num_channels_catalog=draw(st.integers(2, 30)),
        sample_interval_min=1.0,
        history_window_min=float(draw(st.integers(1, 10))),
        iptv_viewer_arrival_rate_per_min=draw(st.floats(2.0, 8.0)),
        iptv_viewer_mean_hold_min=draw(st.floats(2.0, 10.0)),
        # offered call load from a fifth of the capacity to three times it
        non_iptv_arrival_rate_per_min=(
            draw(st.floats(0.2, 3.0)) * capacity / (call_hold * call_bw)),
        non_iptv_call_bw_mbps=call_bw,
        non_iptv_mean_hold_min=call_hold,
        channel_popularity_skew=draw(st.floats(0.0, 1.5)),
        sim_duration_min=float(n_steps),
        warmup_min=0.0,
        replications=1,
        base_seed=draw(st.integers(0, 10**6)),
    )
    config.validate()
    return config


# table1 shrunk to 8 steps under 8 calls a minute: at seed 81 both policies first
# block on the last step, and at capacity 4 every run blocks on the first
FORK_AT_LAST_STEP = replace(
    table1(), capacity_mbps=30.0, iptv_reservation_cap_mbps=30.0, history_window_min=4.0,
    iptv_viewer_arrival_rate_per_min=4.0, non_iptv_arrival_rate_per_min=8.0,
    sim_duration_min=8.0, warmup_min=0.0, replications=1, base_seed=81)
FORK_AT_FIRST_STEP = replace(FORK_AT_LAST_STEP, capacity_mbps=4.0, iptv_reservation_cap_mbps=4.0)


def test_overloaded_configs_match_the_reference_kernel():
    forks = []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(config=overloaded_configs())
    @example(config=FORK_AT_LAST_STEP)
    @example(config=FORK_AT_FIRST_STEP)
    def check(config):
        forks.extend((fork, config.n_steps, dropped) for fork, dropped in _compare(config).values())

    check()
    runs = len(forks)
    forked = [(fork, n) for fork, n, _ in forks if fork is not None]
    # the blocking and shedding paths must really be compared, not only the free one
    assert len(forked) >= runs // 2, (len(forked), runs)
    assert sum(dropped for *_, dropped in forks) >= runs // 5
    assert any(fork == 0 for fork, n in forked)
    assert any(fork == n - 1 > 0 for fork, n in forked)
