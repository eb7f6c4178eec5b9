"""Core state containers, the scenario config, and the leftover bandwidth column."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bwbroker.engine import run_paired
from bwbroker.model import (
    MAX_CHANNELS,
    MAX_MBPS,
    MAX_REPLICATIONS,
    MAX_SEED,
    MAX_STEPS,
    CellState,
    ConfigError,
    table1,
)
from test_metrics import leftover_and_borrowing, written_rows

bw = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def test_leftover_column_examples(cfg):
    # table1's capacity is 60 Mbps
    got = leftover_and_borrowing([(30.0, 0.0), (0.0, 0.0), (75.0, 0.0)], cfg)
    assert [b_a for b_a, _ in got] == [30.0, 60.0, 0.0]


@given(capacity=st.floats(min_value=40.0, max_value=1e6), demand=bw)
def test_leftover_column_is_clamped_leftover(capacity, demand):
    config = dataclasses.replace(table1(), capacity_mbps=capacity)
    [(left, _)] = leftover_and_borrowing([(demand, 0.0)], config)
    assert left == max(0.0, capacity - demand)
    assert 0.0 <= left <= capacity


def test_table1_constants():
    c = table1()
    assert c.capacity_mbps == 60.0
    assert c.iptv_channel_max_bw_mbps == 2.0
    assert c.iptv_channel_min_bw_mbps == 1.0
    assert c.iptv_reservation_cap_mbps == 40.0
    assert c.num_channels_catalog == 30
    assert c.sample_interval_min == 1.0
    assert c.history_window_min == 60.0
    assert c.sim_duration_min == 720.0
    assert c.replications == 20


def test_step_and_window_counts():
    c = table1()
    assert c.n_steps == 720
    assert c.history_samples == 60


def test_zero_arrival_rates_are_legal():
    dataclasses.replace(
        table1(),
        iptv_viewer_arrival_rate_per_min=0.0,
        non_iptv_arrival_rate_per_min=0.0,
    )


@pytest.mark.parametrize("field,value", [
    ("iptv_channel_min_bw_mbps", 3.0),            # floor above ceiling
    ("iptv_channel_min_bw_mbps", 0.0),
    ("iptv_channel_min_bw_mbps", 5e-10),          # at or below BW_TOL nothing is ever shed
    ("iptv_channel_max_bw_mbps", 45.0),           # ceiling above reservation cap
    ("iptv_reservation_cap_mbps", 61.0),          # cap above cell capacity
    ("capacity_mbps", 0.0),
    ("num_channels_catalog", 0),
    ("num_channels_catalog", MAX_CHANNELS + 1),   # a popularity table past the ceiling
    ("sample_interval_min", 0.0),
    ("sample_interval_min", 7.0),                 # does not divide the window
    ("history_window_min", -1.0),
    ("iptv_viewer_arrival_rate_per_min", -0.1),
    ("channel_popularity_skew", -0.5),
    ("channel_popularity_skew", 1e300),           # 30 ** skew overflows
    ("iptv_viewer_mean_hold_min", 0.0),
    ("non_iptv_call_bw_mbps", 0.0),
    ("non_iptv_call_bw_mbps", 2 * MAX_MBPS),      # past MAX_MBPS
    ("capacity_mbps", 2 * MAX_MBPS),              # past MAX_MBPS
    ("sim_duration_min", 0.5),                    # not a whole number of steps
    ("warmup_min", 720.0),                        # nothing left after warmup
    ("warmup_min", 719.5),                        # past the last step, which starts at 719
    ("warmup_min", -1.0),
    ("replications", 0),
    ("replications", 2.7),                        # not a whole number
    ("replications", MAX_REPLICATIONS + 1),       # a seed list past the ceiling
    ("capacity_mbps", float("nan")),
    ("non_iptv_arrival_rate_per_min", float("inf")),
    ("non_iptv_arrival_rate_per_min", -0.1),
    ("non_iptv_mean_hold_min", 0.0),
    ("sample_interval_min", 1.0e-300),            # 7.2e302 steps, past MAX_STEPS
    ("sample_interval_min", 5e-324),              # the step ratio overflows to inf
    ("sim_duration_min", 60.0 * (MAX_STEPS + 1)),  # one step past MAX_STEPS
    ("history_window_min", 1.0e300),              # a window past MAX_STEPS samples
    ("non_iptv_arrival_rate_per_min", 1.0e12),    # 7.2e14 arrivals, past MAX_ARRIVALS
    ("base_seed", MAX_SEED - 18),                 # the 20th replication's seed past MAX_SEED
    ("base_seed", -MAX_SEED - 1),
    # base_seed + 1 has 4,301 digits, too many to format as text
    pytest.param("base_seed", int("9" * 4300), id="base_seed-4300-nines"),
])
def test_validate_rejects(field, value):
    with pytest.raises(ConfigError):
        dataclasses.replace(table1(), **{field: value})


def test_a_warmup_up_to_the_last_step_is_accepted():
    dataclasses.replace(table1(), warmup_min=719.0)
    dataclasses.replace(table1(), sample_interval_min=0.5, history_window_min=30.0,
                        warmup_min=719.5)


def test_seeds_up_to_max_seed_are_accepted():
    dataclasses.replace(table1(), base_seed=MAX_SEED - 19)
    dataclasses.replace(table1(), base_seed=-MAX_SEED)


def test_max_steps_itself_is_accepted():
    dataclasses.replace(table1(), sim_duration_min=float(MAX_STEPS))


def test_cell_tracks_channels_and_demand():
    cell = CellState()
    cell.admit_viewer(0, 5)
    cell.admit_viewer(1, 5)
    cell.admit_viewer(2, 9)
    assert len(cell.active_channels) == 2
    assert len(cell.active_channels[5]) == 2

    cell.viewer_departs(0, 5)
    assert len(cell.active_channels) == 2   # channel 5 still has a viewer
    cell.viewer_departs(1, 5)
    assert len(cell.active_channels) == 1   # channel 5 off air
    cell.viewer_departs(1, 5)               # repeated departure is a no-op
    assert len(cell.active_channels) == 1


def test_dropped_channel_forgets_its_viewers():
    cell = CellState()
    cell.admit_viewer(0, 3)
    cell.admit_viewer(1, 3)
    cell.drop_channel(3)
    assert len(cell.active_channels) == 0
    # a departure for a viewer lost in the drop must not resurrect anything
    cell.viewer_departs(0, 3)
    assert len(cell.active_channels) == 0
    # nor take a viewer off the channel once it is back on air for another
    cell.admit_viewer(2, 3)
    cell.viewer_departs(1, 3)
    assert cell.active_channels == {3: {2}}


def test_call_bookkeeping():
    cell = CellState()
    cell.add_call()
    cell.add_call()
    assert cell.calls == 2
    cell.call_departs()
    assert cell.calls == 1
    cell.call_departs()
    assert cell.calls == 0
    with pytest.raises(ValueError):
        cell.call_departs()                 # no call is live


def test_every_channel_on_air_is_charged_the_full_rate(short_cfg):
    # the cell holds no channel rate: run_trace charges each channel on air the full one
    full = short_cfg.iptv_channel_max_bw_mbps
    for records in run_paired(short_cfg, 7).values():
        assert max(r.active_channels for r in records) > 1
        assert all(row["B_IPTV_demand"] == full * row["N_IPTV"]
                   for row in written_rows(records, short_cfg))
