"""Property tests: random small valid configs keep every step's invariants,
and random invalid config files are always rejected with exit code 2."""

import dataclasses
import math
import tempfile
from pathlib import Path
from unittest import mock

import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bwbroker import cli
from bwbroker.allocation import PolicyKind
from bwbroker.engine import replication_seed, run_paired
from bwbroker.metrics import aggregate
from bwbroker.model import ScenarioConfig
from bwbroker.traffic import NON_IPTV_ARRIVE, NON_IPTV_DEPART, build_trace
from test_acceptance import EQ_TOL
from test_metrics import written_rows


class StepMonitor:
    """Reference scan of the capacity invariants over every step it is shown."""

    def __init__(self, config):
        self.floor = config.iptv_channel_min_bw_mbps
        self.steps = 0
        self.max_utilization = -math.inf
        self.max_per_channel = -math.inf
        self.min_floor_margin = math.inf
        self.min_reserved = math.inf
        self.max_reserved = -math.inf

    def __call__(self, records):
        for r in records:
            self.steps += 1
            if r.utilization > self.max_utilization:
                self.max_utilization = r.utilization
            if r.per_channel_bw_mbps > self.max_per_channel:
                self.max_per_channel = r.per_channel_bw_mbps
            survivors = r.active_channels - r.drops
            if survivors > 0:
                margin = r.per_channel_bw_mbps - self.floor
                if margin < self.min_floor_margin:
                    self.min_floor_margin = margin
            if r.reserved_mbps < self.min_reserved:
                self.min_reserved = r.reserved_mbps
            if r.reserved_mbps > self.max_reserved:
                self.max_reserved = r.reserved_mbps


@st.composite
def small_configs(draw):
    """Valid scenarios of at most 120 steps and 2 replications."""
    dt = draw(st.sampled_from([0.5, 1.0, 2.0]))
    n_steps = draw(st.integers(1, 120))
    full = draw(st.floats(0.5, 5.0))
    capacity = draw(st.floats(full, 100.0))
    return ScenarioConfig(
        capacity_mbps=capacity,
        iptv_channel_max_bw_mbps=full,
        iptv_channel_min_bw_mbps=full * draw(st.floats(0.2, 1.0)),
        iptv_reservation_cap_mbps=draw(st.floats(full, capacity)),
        num_channels_catalog=draw(st.integers(1, 40)),
        sample_interval_min=dt,
        history_window_min=dt * draw(st.integers(1, 60)),
        iptv_viewer_arrival_rate_per_min=draw(st.floats(0.0, 10.0)),
        iptv_viewer_mean_hold_min=draw(st.floats(0.5, 30.0)),
        non_iptv_arrival_rate_per_min=draw(st.floats(0.0, 10.0)),
        non_iptv_call_bw_mbps=draw(st.floats(0.1, 5.0)),
        non_iptv_mean_hold_min=draw(st.floats(0.5, 60.0)),
        channel_popularity_skew=draw(st.floats(0.0, 2.0)),
        sim_duration_min=dt * n_steps,
        warmup_min=dt * draw(st.integers(0, n_steps - 1)),
        replications=draw(st.integers(1, 2)),
        base_seed=draw(st.integers(0, 10**6)),
    )


@settings(max_examples=40, deadline=None)
@given(config=small_configs())
def test_random_valid_configs_keep_step_invariants(config):
    monitors = {policy: StepMonitor(config) for policy in PolicyKind}
    runs = {policy: [] for policy in PolicyKind}
    for rep in range(config.replications):
        seed = replication_seed(config.base_seed, rep)
        # non-IPTV demand of each step, replayed from the trace's call events
        live, call_demand = 0, []
        for events in build_trace(config, seed):
            kinds = [ev.kind for ev in events]
            live += kinds.count(NON_IPTV_ARRIVE) - kinds.count(NON_IPTV_DEPART)
            call_demand.append(live * config.non_iptv_call_bw_mbps)
        for policy, records in run_paired(config, seed).items():
            assert [r.non_iptv_demand_mbps for r in records] == call_demand
            monitors[policy](records)
            runs[policy].append(records)
            for r, row in zip(records, written_rows(records, config)):
                assert 0.0 <= r.satisfaction <= 1.0
                delivered_iptv = r.per_channel_bw_mbps * (r.active_channels - r.drops)
                delivered = r.utilization * config.capacity_mbps
                assert delivered_iptv <= row["B_IPTV_demand"] + EQ_TOL
                assert delivered - delivered_iptv <= r.non_iptv_demand_mbps + EQ_TOL
                assert row["B_B"] == max(0.0, row["B_R"] - row["B_A"])
    for policy, monitor in monitors.items():
        # the reduction a sweep worker makes agrees with the reference scan, field by field
        s = aggregate(runs[policy], config.warmup_min)
        assert s.scanned_steps == monitor.steps
        assert s.max_utilization == monitor.max_utilization
        assert s.max_per_channel_mbps == monitor.max_per_channel
        assert s.min_survivor_per_channel_mbps - monitor.floor == monitor.min_floor_margin
        assert s.min_reserved_mbps == monitor.min_reserved
        assert s.max_reserved_mbps == monitor.max_reserved

        assert monitor.steps == config.replications * config.n_steps
        assert monitor.max_utilization <= 1.0 + EQ_TOL
        assert monitor.max_per_channel <= config.iptv_channel_max_bw_mbps + EQ_TOL
        assert monitor.min_floor_margin >= -EQ_TOL
        assert monitor.min_reserved >= 0.0
        assert monitor.max_reserved <= config.iptv_reservation_cap_mbps + EQ_TOL


class _Accepted(BaseException):
    """Raised in place of a run, past the CLI's own exception handlers."""


def _accepted(*args, **kwargs):
    raise _Accepted


FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig)]
values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**6, 10**6),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
)
keys = st.one_of(st.sampled_from(FIELDS + ["capacity_mbs", "seed"]), st.integers(-3, 3))
documents = st.one_of(st.dictionaries(keys, values, min_size=1, max_size=4), values)


@settings(max_examples=150, deadline=None)
@given(document=documents,
       command=st.sampled_from([["run"], ["sweep", "--figure", "fig3"],
                                ["sweep", "--figure", "fig5"]]))
def test_random_invalid_configs_exit_2(document, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.yaml"
        # unsorted: integer and string keys do not sort together
        path.write_text(yaml.safe_dump(document, sort_keys=False))
        argv = [command[0], str(path), *command[1:], "--out", str(Path(tmp) / "out"),
                "--jobs", "1"]
        with mock.patch.object(cli, "run_policies", _accepted), \
                mock.patch.object(cli, "run_experiment", _accepted):
            try:
                code = cli.main(argv)
            except _Accepted:
                code = None
        assume(code is not None)     # the config is valid: nothing to check
        assert code == 2
        assert not (Path(tmp) / "out").exists()
