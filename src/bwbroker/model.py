"""Core domain types and the viewer ledger of a simulated cell.

One wireless cell with a fixed downlink capacity carries two traffic
classes.  IPTV channels are broadcast: a channel is on air while at least
one viewer is tuned to it and always demands the full per-channel rate.
Everything else (voice, data) is lumped into "non-IPTV" calls that each
hold the same fixed bandwidth for their lifetime, so they are only ever
counted, and the trace counts them (traffic.Trace.live_calls); the cell
ledger tracks viewers alone.  All bandwidth is in Mbps, all times in minutes.
The leftover for IPTV after non-IPTV demand, and what the SLA borrows back
from it, are implied by the SLA's budget (allocation.per_channel); metrics
reports them as B_A and B_B.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

# Tolerance for bandwidth comparisons, in Mbps.  The allocation rules
# produce non-terminating fractions, so every threshold test is fuzzy.
BW_TOL = 1e-9

# Slack, in minutes, when a step's start time is compared with warmup_min: step
# times are products of floats, so a step meant to start at the warmup may miss it.
WARMUP_TOL = 1e-9

# Smallest iptv_channel_min_bw_mbps, so BW_TOL is at most 0.1% of the minimum
# rate.  At or below BW_TOL the fuzzy floor test passes even at 0.0 Mbps, and
# admission and shedding silently stop.
MIN_MBPS = 1e-6

# Most steps one run may take, about 1,400 times the 720 of table1.  Each
# replication holds its events and records in memory, and `run` keeps the
# records of all of them, so a much finer grid would exhaust memory.
MAX_STEPS = 1_000_000

# Largest channel catalog, about 3,300 times table1's 30.  Each replication
# builds a popularity table of about 85 bytes a channel: 1e9 would need 85 GB.
MAX_CHANNELS = 100_000

# Most arrivals one replication may expect, about 780 times fig5's top point.
# Each costs draws and trace events, so far higher rates would never finish.
MAX_ARRIVALS = 10_000_000

# Largest capacity_mbps and non_iptv_call_bw_mbps, about 17 million times table1's
# 60; every other bandwidth is at most capacity_mbps.  So every demand a run forms
# stays far below float overflow (1.8e308): IPTV at most 1e9 * MAX_CHANNELS = 1e14,
# the broker window's total 1e9 * MAX_CHANNELS * MAX_STEPS = 1e20, and live calls,
# about MAX_ARRIVALS = 1e7 at most, about 1e16.
MAX_MBPS = 1e9

# Most replications, 500 times table1's 20.  A sweep keeps only their means;
# what `run` keeps of them is bounded by MAX_STEP_RECORDS.
MAX_REPLICATIONS = 10_000

# Largest seed magnitude, the largest signed 64-bit integer.  A replication's seed
# enters its streams' SHA-256 material as decimal text (traffic.RngStream; the
# interpreter's built-in SHA-256, or hashlib's where there is none, the same
# digest either way, so that no command loads OpenSSL), and Python by default
# refuses to format an integer of more than 4,300 digits, so without this bound a
# run could fail at a later replication, after --out was made.
MAX_SEED = 2**63 - 1

# Most step records a `run` may hold, about 100 times table1's 28,800.  The parent
# keeps each as its steps-CSV row, about 80 bytes of text (tracemalloc over
# run_policies at table1: 77 bytes a record held), so that is about 240 MB.  A pool
# worker adds its block of replications (engine.MAX_BLOCK_RECORDS) and the steps
# CSV's repr memos: at --jobs 2 and 1,041 table1 replications (1,499,040 records, half
# the ceiling), blocks of 34 (48,960 records) took a worker's peak RSS from 19.6 MB to
# 32.5-34.4 MB, about 8 MB of it the block and 4.3 MB the full float memo; the parent's
# peaked at 139-146 MB, and the run wrote 113 MB of steps CSVs, about 75 bytes a row.
MAX_STEP_RECORDS = 3_000_000


class ConfigError(ValueError):
    """A scenario configuration, or the input it was read from, is invalid."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Every knob of one simulation scenario.

    Field names double as the keys of the flat config file accepted by
    the command line tools, so renames here are interface changes.  Every
    construction checks itself, dataclasses.replace included, so no
    inconsistent config exists.
    """

    capacity_mbps: float
    iptv_channel_max_bw_mbps: float
    iptv_channel_min_bw_mbps: float
    iptv_reservation_cap_mbps: float
    num_channels_catalog: int
    sample_interval_min: float
    history_window_min: float
    iptv_viewer_arrival_rate_per_min: float
    iptv_viewer_mean_hold_min: float
    non_iptv_arrival_rate_per_min: float
    non_iptv_call_bw_mbps: float
    non_iptv_mean_hold_min: float
    channel_popularity_skew: float
    sim_duration_min: float
    warmup_min: float
    replications: int
    base_seed: int

    def __post_init__(self) -> None:
        """Raise ConfigError unless the scenario is internally consistent."""
        c = self
        for f in dataclasses.fields(c):
            value = getattr(c, f.name)
            if f.type == "int" and not isinstance(value, int):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if not MIN_MBPS <= c.iptv_channel_min_bw_mbps <= c.iptv_channel_max_bw_mbps + BW_TOL:
            raise ConfigError(f"need {MIN_MBPS:g} <= iptv_channel_min_bw_mbps"
                              " <= iptv_channel_max_bw_mbps")
        if c.iptv_channel_max_bw_mbps > c.iptv_reservation_cap_mbps + BW_TOL:
            raise ConfigError(
                "iptv_channel_max_bw_mbps exceeds iptv_reservation_cap_mbps"
            )
        if c.iptv_reservation_cap_mbps > c.capacity_mbps + BW_TOL:
            raise ConfigError("iptv_reservation_cap_mbps exceeds capacity_mbps")
        for name in ("capacity_mbps", "non_iptv_call_bw_mbps"):
            if not 0 < getattr(c, name) <= MAX_MBPS:
                raise ConfigError(f"{name} must be positive and at most {MAX_MBPS:g}")
        if not 1 <= c.num_channels_catalog <= MAX_CHANNELS:
            raise ConfigError(f"num_channels_catalog must be between 1 and {MAX_CHANNELS}")
        if c.sample_interval_min <= 0 or c.history_window_min <= 0:
            raise ConfigError("sample_interval_min and history_window_min must be positive")
        samples = c.history_window_min / c.sample_interval_min
        if not _is_whole_count(samples):
            raise ConfigError(
                "history_window_min must be a whole multiple of sample_interval_min"
            )
        for name in (
            "iptv_viewer_arrival_rate_per_min",
            "non_iptv_arrival_rate_per_min",
            "channel_popularity_skew",
        ):
            if getattr(c, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        try:
            # channel k is weighted 1 / k^skew, as traffic._popularity_cdf does
            c.num_channels_catalog ** c.channel_popularity_skew
        except OverflowError:
            raise ConfigError(
                "channel_popularity_skew is too steep for num_channels_catalog"
            ) from None
        for name in ("iptv_viewer_mean_hold_min", "non_iptv_mean_hold_min"):
            if getattr(c, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if c.sim_duration_min <= 0:
            raise ConfigError("sim_duration_min must be positive")
        steps = c.sim_duration_min / c.sample_interval_min
        for name, ratio in (("sim_duration_min", steps), ("history_window_min", samples)):
            if ratio > MAX_STEPS:
                raise ConfigError(
                    f"{name} / sample_interval_min is {ratio:.3g} steps,"
                    f" more than the {MAX_STEPS} a run may take"
                )
        if not _is_whole_count(steps):
            raise ConfigError(
                "sim_duration_min must be a whole multiple of sample_interval_min"
            )
        arrivals = (
            c.iptv_viewer_arrival_rate_per_min + c.non_iptv_arrival_rate_per_min
        ) * c.sim_duration_min
        if arrivals > MAX_ARRIVALS:
            raise ConfigError(
                f"the arrival rates expect {arrivals:.3g} arrivals a replication,"
                f" more than the {MAX_ARRIVALS} one may take"
            )
        # the last step starts at (n_steps - 1) * sample_interval_min; a warmup past it
        # leaves no step to average
        if c.warmup_min < 0 or (c.n_steps - 1) * c.sample_interval_min < c.warmup_min - WARMUP_TOL:
            raise ConfigError("warmup_min must lie between 0 and the start of the last step,"
                              " sim_duration_min - sample_interval_min")
        if not 1 <= c.replications <= MAX_REPLICATIONS:
            raise ConfigError(f"replications must be between 1 and {MAX_REPLICATIONS}")
        if not -MAX_SEED <= c.base_seed <= c.base_seed + c.replications - 1 <= MAX_SEED:
            raise ConfigError(f"every replication seed, base_seed to base_seed + replications - 1,"
                              f" must lie between -{MAX_SEED} and {MAX_SEED}")

    @property
    def n_steps(self) -> int:
        return int(round(self.sim_duration_min / self.sample_interval_min))

    @property
    def history_samples(self) -> int:
        """Length of the demand history window, in samples."""
        return int(round(self.history_window_min / self.sample_interval_min))


def _is_whole_count(ratio: float) -> bool:
    # finite first: round() of an overflowed ratio raises OverflowError
    return math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9 and round(ratio) >= 1


def table1() -> ScenarioConfig:
    """Default preset: a 60 Mbps cell with a 30 channel lineup.

    The viewer arrival rate is tuned so the long run mean number of
    on-air channels is 20 of 30 (see traffic.viewer_rate_for_mean_channels
    for the calibration), which puts peak IPTV demand right at the
    reservation cap.
    """
    return ScenarioConfig(
        capacity_mbps=60.0,
        iptv_channel_max_bw_mbps=2.0,
        iptv_channel_min_bw_mbps=1.0,
        iptv_reservation_cap_mbps=40.0,
        num_channels_catalog=30,
        sample_interval_min=1.0,
        history_window_min=60.0,
        iptv_viewer_arrival_rate_per_min=3.136403459012432,
        iptv_viewer_mean_hold_min=10.0,
        non_iptv_arrival_rate_per_min=1.5,
        non_iptv_call_bw_mbps=1.0,
        non_iptv_mean_hold_min=20.0,
        channel_popularity_skew=0.0,
        sim_duration_min=720.0,
        warmup_min=60.0,
        replications=20,
        base_seed=42,
    )


PRESETS = {"table1": table1}


# ---------------------------------------------------------------------------
# live state


class CellState:
    """The viewer ledger of a cell: its on-air channels and their viewers.

    A departure names the viewer's channel, so one scheduled for a viewer
    who was blocked at admission, or whose channel was dropped, finds no
    such viewer there and is ignored.  It holds no rate and no call demand:
    every on-air channel demands the config's full rate, and the trace
    counts the live calls.
    """

    def __init__(self) -> None:
        # on-air channel id -> ids of the viewers tuned to it, never empty
        self.active_channels: dict[int, set[int]] = {}
        self.calls = 0

    def admit_viewer(self, viewer_id: int, channel_id: int) -> None:
        """Register a viewer; activates the channel if it was off air."""
        viewers = self.active_channels.get(channel_id)
        if viewers is None:
            viewers = self.active_channels[channel_id] = set()
        viewers.add(viewer_id)

    def viewer_departs(self, viewer_id: int, channel_id: int) -> None:
        """Remove a viewer from its channel; a viewer not on it is ignored."""
        viewers = self.active_channels.get(channel_id)
        if viewers is not None:
            viewers.discard(viewer_id)
            if not viewers:
                del self.active_channels[channel_id]

    def drop_channel(self, channel_id: int) -> None:
        """Force a channel off air, discarding all of its viewers."""
        del self.active_channels[channel_id]

    def add_call(self) -> None:
        """Count one more live call.

        Uncalled in bwbroker, as is call_departs: the benchmark harness
        (perfbench/layers.py) wraps all five mutators by name.  Both go with
        ROADMAP item 5 once the harness change, item 1(b), lands.
        """
        self.calls += 1

    def call_departs(self) -> None:
        """End one live call; ValueError when none is live.  Kept as add_call is."""
        if not self.calls:
            raise ValueError("no call is live")
        self.calls -= 1


class AllocationDecision(NamedTuple):
    """Outcome of one allocation round.

    num_active_channels counts the survivors after any forced drops, so
    per_channel_bw_mbps * num_active_channels is the bandwidth actually
    delivered to IPTV this step.
    """

    per_channel_bw_mbps: float
    non_iptv_grant_mbps: float
    num_active_channels: int
    dropped_channel_ids: tuple[int, ...] = ()
