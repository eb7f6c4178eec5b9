"""Simulation loop: step composition, replications and parameter sweeps.

run_trace plays one replication of one policy.  Each step runs a fixed
sequence: fix the reservation, apply departures, admit arrivals, allocate,
then record what the step was given and decided.  Only the SLA has a
broker: step t reserves the capped mean of the channels its policy offered
in the min(t, W) steps before it, so a reservation only ever sees past
steps; without an SLA it stays zero.

A policy plays a replication in two phases, through one step body.  Until
it first blocks or drops a channel, its cell is the trace's free play, the
cell that admitted every viewer (traffic.Trace), so a step is scored from
the free play's on-air count and live calls alone.  Step t is free while
on_air[t] is 0 or the policy's per-channel rate with on_air[t] channels on
air clears the minimum.  That test is exact: allocation.per_channel never
rises as channels are added, and the step-by-step play tests this same
value at the step's last channel activation and again in allocation, so a
free step blocks and drops nothing.  Since it sheds nothing, allocation
never reads which channels are on air.  The phase decides only where a
step's channels come from: a free step takes range(on_air[t]) and demands
full quality for them.  At the first step that fails the test, the policy
builds its cell, a model.CellState viewer ledger, from the earlier steps'
viewers, every one admitted, and from then on plays the viewers itself,
with admission: a step's leaving ids depart, then its new ids arrive, each
viewer on its channel, trace.channels[id]; its demand adds full quality for
each blocked activation.  Either way the step then calls the allocator once
and records the step; only the policy's own cell drops the channels the
allocator shed.  Free SLA steps read their reservations from one list a
viewer side (the last is kept, so sweep points share it); from its fork the
policy's own demand sums grow by its count.  The engine never
reads the trace's event lists.  Calls are never played: both phases take
the step's non-IPTV demand from the trace's running count, live_calls,
which the call side derives as it draws.

The step records of a replication stay in the process that played it:
a pool worker returns only what the parent needs of them, each policy's
means (metrics.replication_means) and, for a run, its steps-CSV rows as
text (metrics.step_rows_csv).  A run's worker takes a block of consecutive
replications, at most its share of them and MAX_BLOCK_RECORDS step records
unless one replication alone has more, and sends the block's results back
in one message.

The two replication tasks, paired_means and paired_steps, run with
CPython's cyclic garbage collector paused, and restore it after, so that
the tens of thousands of tuples a replication allocates do not keep
triggering collections that re-walk the memoised traffic sides.  This is
safe because a replication makes no reference cycles: its reference
counts free everything it drops, and the collector would find nothing.
tests/test_engine.py::test_a_replication_makes_no_reference_cycles guards
that premise.  The pause is made by the task itself, in whatever process
runs it, so it does not depend on the pool's start method.
"""

from __future__ import annotations

import gc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache, wraps

from .allocation import PolicyKind, admit_channel, allocate_non_sla, allocate_sla, per_channel
from .broker import compute_reservation, demand_sums
from .metrics import ReplicationMeans, RunSummary, StepRecord, replication_means
from .metrics import step_rows_csv, step_satisfaction, step_utilization, summarize
from .metrics import aggregate  # noqa: F401 - uncalled; perfbench/layers.py wraps engine.aggregate
from .model import BW_TOL, MAX_STEP_RECORDS, CellState, ConfigError, ScenarioConfig
from .traffic import Trace, build_trace, viewer_rate_for_mean_channels


def _admitted_cell(trace: Trace, steps: int) -> CellState:
    """The viewer ledger after the first steps of trace, every viewer admitted."""
    state, channels, starts = CellState(), trace.channels, trace.starts
    for step, leaving in enumerate(trace.leaving[:steps]):
        for viewer_id in leaving:
            state.viewer_departs(viewer_id, channels[viewer_id])
        for viewer_id in range(starts[step], starts[step + 1]):
            state.admit_viewer(viewer_id, channels[viewer_id])
    return state


@lru_cache(maxsize=1)
def _reservations(counts: tuple[int, ...], window: int, full_mbps: float,
                  cap_mbps: float) -> list[float]:
    """The reservation at each step of a play whose step t offers counts[t] channels: for
    the free play of the last viewer side and broker run_trace played, which sweep points
    on one viewer side share.  Read it, never change it."""
    sums, reservation = demand_sums(counts), compute_reservation
    return [reservation(sums, t, window, full_mbps, cap_mbps) for t in range(len(counts))]


def run_trace(config: ScenarioConfig, policy_kind: PolicyKind, trace: Trace) -> list[StepRecord]:
    """Play a trace through one policy: one replication, one record a step.

    Free and played steps share one body: the free test only decides where
    the step's channels, its demand and the SLA's reservation come from (see
    the module docstring).  What no step changes is bound once, before the
    loop.  The rules are looked up in this module on each call, so a wrapper
    put on it is the one called.
    """
    sla = policy_kind is PolicyKind.SLA
    admit, reservation, rate = admit_channel, compute_reservation, per_channel
    allocate = allocate_sla if sla else allocate_non_sla
    full, call_bw = config.iptv_channel_max_bw_mbps, config.non_iptv_call_bw_mbps
    dt, floor = config.sample_interval_min, config.iptv_channel_min_bw_mbps - BW_TOL
    leaving, channels, starts, on_air = trace.leaving, trace.channels, trace.starts, trace.on_air
    if sla:
        window, cap = config.history_samples, config.iptv_reservation_cap_mbps
        free_reserved = _reservations(on_air, window, full, cap)
    state = None  # the policy's own cell, from its first step that is not free
    records: list[StepRecord] = []
    append, new_record = records.append, tuple.__new__
    reserved = 0.0
    blocks = drops = 0  # free steps come first, and block and drop nothing
    for step, calls in enumerate(trace.live_calls):
        # the reservation depends only on past samples, so it is fixed for the
        # whole step and already governs this step's admissions
        if sla:
            reserved = free_reserved[step] if state is None else reservation(
                sums, step, window, full, cap)
        non_iptv = calls * call_bw
        if state is None and (not (n := on_air[step]) or
                              rate(policy_kind, n, non_iptv, reserved, config) >= floor):
            # a free step blocks, drops and sheds nothing, so no channel id is read
            active, demand = range(n), full * n
        else:
            if state is None:
                state = _admitted_cell(trace, step)
                active = state.active_channels
                admit_viewer, viewer_departs = state.admit_viewer, state.viewer_departs
                drop_channel = state.drop_channel
                if sla:  # the policy's own demand from here on
                    sums = demand_sums(on_air[:step])
            blocks = 0
            for viewer_id in leaving[step]:
                viewer_departs(viewer_id, channels[viewer_id])
            for viewer_id in range(starts[step], starts[step + 1]):
                if (channel_id := channels[viewer_id]) in active or admit(
                        policy_kind, len(active), non_iptv, reserved, config):
                    admit_viewer(viewer_id, channel_id)
                else:
                    blocks += 1
            # offered demand of this step: what is on air now, before any drops; blocked
            # activations demanded full quality and got nothing this step
            n = len(active)
            demand = full * n + full * blocks

        decision = allocate(active, non_iptv, reserved, config)
        if state is not None:
            if sla:
                sums.append(sums[-1] + n)  # after allocation: only later steps see it
            drops = len(dropped := decision.dropped_channel_ids)
            for channel_id in dropped:
                drop_channel(channel_id)
        append(new_record(StepRecord, (
            step * dt, non_iptv, reserved, n, decision.per_channel_bw_mbps,
            step_satisfaction(decision, demand), step_utilization(decision, config),
            blocks, drops)))
    return records


def replication_seed(base_seed: int, replication: int) -> int:
    return base_seed + replication


def _collector_paused(task):
    """task, run with the cyclic garbage collector disabled, then re-enabled if it was."""
    @wraps(task)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return task(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


def run_paired(config: ScenarioConfig, seed: int) -> dict[PolicyKind, list[StepRecord]]:
    """Run both policies over one shared traffic trace (paired comparison)."""
    trace = build_trace(config, seed)
    return {kind: run_trace(config, kind, trace) for kind in PolicyKind}


@_collector_paused
def paired_means(config: ScenarioConfig, seed: int) -> list[ReplicationMeans]:
    """Each policy's means over one paired replication, in PolicyKind order: a sweep task."""
    return [replication_means(r, config.warmup_min) for r in run_paired(config, seed).values()]


def _map(fn, jobs: int, *arg_lists: list, run: int = 1) -> list:
    """fn over the zipped argument lists, in order; if jobs > 1, on a pool of at most
    one worker a task.  A worker takes up to run consecutive tasks at a time, fewer
    when that would leave a worker without any."""
    tasks = len(arg_lists[0])
    if jobs > 1 and tasks > 1:
        workers = min(jobs, tasks)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *arg_lists, chunksize=min(run, tasks // workers)))
    return list(map(fn, *arg_lists))


def check_run(config: ScenarioConfig) -> None:
    """Check that the run's step rows, all held at once as text, fit the ceiling."""
    if (records := config.replications * config.n_steps * len(PolicyKind)) > MAX_STEP_RECORDS:
        raise ConfigError(f"replications * steps * policies is {records} step records, more"
                          f" than the {MAX_STEP_RECORDS} a run may hold")


@dataclass(frozen=True)
class PolicyRun:
    """One policy of a run: its summary, and its steps-CSV rows as one text chunk a
    replication, in replication order."""

    summary: RunSummary
    steps_csv: tuple[str, ...]


@_collector_paused
def paired_steps(config: ScenarioConfig, replication: int) -> list[tuple[ReplicationMeans, str]]:
    """Each policy's means over one paired replication and its steps-CSV rows: a run task."""
    by_policy = run_paired(config, replication_seed(config.base_seed, replication))
    return [(replication_means(records, config.warmup_min),
             step_rows_csv(replication, records, config)) for records in by_policy.values()]


# Most step records a block of a run's replications may have, unless one replication
# alone has more.  A worker holds a block's results, and their pickled copy, until it
# sends the block: a full block adds about 8 MB to its peak (model.MAX_STEP_RECORDS).
MAX_BLOCK_RECORDS = 50_000


def run_policies(config: ScenarioConfig, jobs: int = 1) -> dict[PolicyKind, PolicyRun]:
    """All configured replications of both policies on shared traces, in replication order.
    A pool worker plays them a block of consecutive replications at a time.  The caller
    checks the run against the step-record ceiling first (check_run)."""
    n = config.replications
    block = max(1, MAX_BLOCK_RECORDS // (config.n_steps * len(PolicyKind)))
    results = _map(paired_steps, jobs, [config] * n, range(n), run=block)
    return {p: PolicyRun(summarize([means for means, _ in reps]), tuple(text for _, text in reps))
            for p, reps in zip(PolicyKind, zip(*results))}


# ---------------------------------------------------------------------------
# sweeps

@dataclass(frozen=True)
class Sweep:
    """One swept parameter and its points, (value, config) pairs, each config valid as built."""

    axis: str
    points: tuple[tuple[float, ScenarioConfig], ...]


@dataclass(frozen=True)
class SweepPoint:
    sweep_value: float
    policy: PolicyKind
    summary: RunSummary


def with_offered_load(config: ScenarioConfig, mbps: float) -> ScenarioConfig:
    """The config whose calls offer mbps of load: arrival rate * mean hold * per-call bandwidth."""
    rate = mbps / (config.non_iptv_mean_hold_min * config.non_iptv_call_bw_mbps)
    return replace(config, non_iptv_arrival_rate_per_min=rate)


def run_experiment(sweep: Sweep, jobs: int = 1) -> list[SweepPoint]:
    """Run every sweep point with paired replications and aggregate.

    Each point plays the replications and seeds of its own config.  All
    (point, seed) replications share one pool, whose workers return only
    their reductions (metrics.replication_means).  Tasks go replication by
    replication across the points, so consecutive ones share traffic sides,
    and a worker takes one seed's run of points at a time.
    """
    tasks = sorted((r, i) for i, (_, c) in enumerate(sweep.points) for r in range(c.replications))
    configs = [sweep.points[i][1] for _, i in tasks]
    seeds = [replication_seed(c.base_seed, r) for c, (r, _) in zip(configs, tasks)]
    means = dict(zip(tasks, _map(paired_means, jobs, configs, seeds, run=len(sweep.points))))
    points: list[SweepPoint] = []
    for i, (value, cfg) in enumerate(sweep.points):
        by_policy = zip(*(means[r, i] for r in range(cfg.replications)))  # per policy, its reps
        points += [SweepPoint(value, p, summarize(m)) for p, m in zip(PolicyKind, by_policy)]
    return points


# Sweep presets, mirroring the comparison plots the simulator exists for.
FIG3_LOAD_FRACTIONS = tuple(round(0.2 + 0.1 * i, 2) for i in range(14))  # 0.2 .. 1.5
FIG5_CHANNEL_TARGETS = (5.0, 10.0, 15.0, 20.0, 25.0, 29.9)
FIG5_NON_IPTV_LOAD_FRACTION = 0.5


def _viewer_rate_for(config: ScenarioConfig, target_mean_channels: float) -> float:
    if not config.num_channels_catalog > target_mean_channels:
        raise ConfigError(
            f"this sweep aims at a mean of {target_mean_channels:g} on-air channels and needs"
            f" num_channels_catalog > {target_mean_channels:g}, got {config.num_channels_catalog}"
        )
    return viewer_rate_for_mean_channels(
        target_mean_channels,
        config.num_channels_catalog,
        config.channel_popularity_skew,
        config.iptv_viewer_mean_hold_min,
        config.sample_interval_min,
    )


def fig3_sweep(config: ScenarioConfig) -> Sweep:
    """Sweep non-IPTV offered load from light to 1.5x capacity.

    The viewer rate is re-tuned so the mean on-air channel count is 20
    regardless of what the base config says.
    """
    tuned = replace(config, iptv_viewer_arrival_rate_per_min=_viewer_rate_for(config, 20.0))
    loads = [f * config.capacity_mbps for f in FIG3_LOAD_FRACTIONS]
    return Sweep("non_iptv_offered_load", tuple((v, with_offered_load(tuned, v)) for v in loads))


def fig5_sweep(config: ScenarioConfig) -> Sweep:
    """Sweep the viewer rate so the mean on-air channel count climbs
    toward the full lineup, under a moderate fixed non-IPTV load.

    The top target stays just under the catalog size: a mean equal to
    the catalog would need every channel on air at every step, which a
    finite viewer rate cannot deliver.
    """
    base = with_offered_load(config, FIG5_NON_IPTV_LOAD_FRACTION * config.capacity_mbps)
    rates = [_viewer_rate_for(config, target) for target in FIG5_CHANNEL_TARGETS]
    return Sweep("iptv_viewer_rate", tuple(
        (v, replace(base, iptv_viewer_arrival_rate_per_min=v)) for v in rates))


FIGURE_SWEEPS = {"fig3": fig3_sweep, "fig5": fig5_sweep}
