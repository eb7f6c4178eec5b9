"""Simulation loop: step composition, replications and parameter sweeps.

run_trace plays one replication of one policy.  Each step runs a fixed
sequence: fix the reservation, apply departures, admit arrivals, allocate,
then record what the step was given and decided.  Only the SLA has a
broker: step t reserves the capped mean of the channels its policy offered
in the min(t, W) steps before it, so a reservation only ever sees past
steps; without an SLA it stays zero.

A policy plays a replication in two phases.  Until it first blocks or
drops a channel, its cell is the trace's free play, the cell that admitted
every viewer (traffic.Trace), so a step is scored from the free play's
on-air count and live calls alone.  Step t is free while on_air[t] is 0 or
the policy's per-channel rate with on_air[t] channels on air clears the
minimum.  That test is exact: allocation.per_channel never rises as
channels are added, and the step-by-step play tests this same value at the
step's last channel activation and again in allocation, so a free step
blocks, drops and sheds nothing, and its allocator may take range(n).  So
its decision repeats across steps, replications and sweep points, and comes
from a memo (_FreeSteps) keyed (n, calls), and for the SLA (n, calls,
budget): the budget, the larger of the leftover after the calls and the
reservation, is all per_channel reads of the reservation, and the allocator,
SL and utilization read none of it.  A miss runs the rules with the budget
as the reservation; a memo stores at most FREE_MEMO_CAP (2,048) decisions,
and fig5 meets 20,536 SLA keys.  At the first step that is not free, the
fork, the policy builds its cell, a model.CellState viewer ledger, from the
earlier steps' viewers, every one admitted, and from then on plays the
viewers itself, with admission: a step's leaving ids depart, then its new
ids arrive, each viewer on its channel, trace.channels[id]; its demand adds
full quality for each blocked activation, and its cell drops the channels
shed.  Free SLA steps and the fork read their reservations from one list a
viewer side (the last is kept, so sweep points share it), later steps from
the policy's own demand sums.  The engine never reads the trace's event
lists.  Calls are never played: both phases take the step's non-IPTV demand
from the trace's running count, live_calls, which the call side derives.

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
from itertools import repeat, takewhile
from operator import mul, sub

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


@lru_cache(maxsize=1, typed=True)  # a cap of 40 reserves 40, not 40.0
def _reservations(counts: tuple[int, ...], window: int, full_mbps: float,
                  cap_mbps: float) -> list[float]:
    """The reservation at each step of a play whose step t offers counts[t] channels: for
    the free play of the last viewer side and broker run_trace played, which sweep points
    on one viewer side share.  Read it, never change it."""
    sums, reservation = demand_sums(counts), compute_reservation
    return [reservation(sums, t, window, full_mbps, cap_mbps) for t in range(len(counts))]


# Most decisions a free-step memo stores (fig5 meets 20,536 SLA keys in 86,400 steps).
# At this cap fig5's peak RSS did not move; at 4096 it rose 2.0-2.7%, uncapped 15.6%.
FREE_MEMO_CAP = 1 << 11


class _FreeSteps(dict):
    """One policy's free-step decisions, (rate, SL, utilization) or None where the step
    is not free, keyed as run_trace says.  A miss runs the rules by this module's names."""

    def __missing__(self, key: tuple) -> tuple[float, float, float] | None:
        n, calls, budget = key if len(key) == 3 else (*key, 0.0)
        policy, config, decision = self.policy, self.config, None
        non_iptv = calls * config.non_iptv_call_bw_mbps
        if not n or per_channel(policy, n, non_iptv, budget, config) >= (
                config.iptv_channel_min_bw_mbps - BW_TOL):
            grant = (allocate_sla if policy is PolicyKind.SLA else allocate_non_sla)(
                range(n), non_iptv, budget, config)
            decision = (grant.per_channel_bw_mbps, step_satisfaction(
                grant, config.iptv_channel_max_bw_mbps * n), step_utilization(grant, config))
        if len(self) < FREE_MEMO_CAP:
            self[key] = decision
        return decision


@lru_cache(maxsize=len(PolicyKind), typed=True)  # a rate of 2 records 2, not 2.0
def _free_steps(policy: PolicyKind, *rates: float) -> _FreeSteps:
    """policy's memo for the rates its rules read, which sweep points and seeds share."""
    return _FreeSteps()


def run_trace(config: ScenarioConfig, policy_kind: PolicyKind, trace: Trace) -> list[StepRecord]:
    """Play a trace through one policy: one replication, one record a step.

    The free prefix is one pass of lookups in the policy's memo, keyed (n,
    calls), or (n, calls, budget) for the SLA since the rules read the
    reservation only through the budget; it keeps FREE_MEMO_CAP decisions,
    as uncapped fig5's peak RSS rose 15.6%.  From the fork on the policy
    plays its own cell (see the module docstring).  The rules are looked up
    in this module on each call, so a wrapper put on it is the one called.
    """
    sla = policy_kind is PolicyKind.SLA
    full, call_bw = config.iptv_channel_max_bw_mbps, config.non_iptv_call_bw_mbps
    dt, live_calls, on_air = config.sample_interval_min, trace.live_calls, trace.on_air
    memo = _free_steps(policy_kind, config.capacity_mbps, full,
                       config.iptv_channel_min_bw_mbps, call_bw)
    memo.policy, memo.config = policy_kind, config  # a miss reads only the rates above
    non_iptv = list(map(mul, live_calls, repeat(call_bw)))
    keys, reserved = zip(on_air, live_calls), repeat(0.0)
    if sla:
        window, cap = config.history_samples, config.iptv_reservation_cap_mbps
        reserved = free_reserved = _reservations(on_air, window, full, cap)
        # no budget is -0.0, which would share 0.0's entry (0.0 == -0.0, compare
        # metrics._reprs): the capacity and the cap are positive, the counts non-negative
        keys = zip(on_air, live_calls, map(
            max, map(sub, repeat(config.capacity_mbps), non_iptv), free_reserved))
    fork = len(prefix := list(takewhile(bool, map(memo.__getitem__, keys))))
    # with no free step the times are empty, and so are the records
    records = list(map(tuple.__new__, repeat(StepRecord), zip(
        map(mul, range(fork), repeat(dt)), non_iptv, reserved, on_air, *zip(*prefix),
        repeat(0), repeat(0))))
    if fork == len(live_calls):
        return records
    admit, allocate = admit_channel, allocate_sla if sla else allocate_non_sla
    leaving, channels, starts = trace.leaving, trace.channels, trace.starts
    state = _admitted_cell(trace, fork)
    active, admit_viewer = state.active_channels, state.admit_viewer
    viewer_departs, drop_channel = state.viewer_departs, state.drop_channel
    append, new_record, reserved = records.append, tuple.__new__, 0.0
    if sla:  # the policy's own demand from here on
        sums, reservation = demand_sums(on_air[:fork]), compute_reservation
    for step in range(fork, len(live_calls)):
        # the reservation depends only on past samples, so it is fixed for the
        # whole step and already governs this step's admissions
        if sla:
            reserved = free_reserved[step] if step == fork else reservation(
                sums, step, window, full, cap)
        blocks, b_i = 0, non_iptv[step]
        for viewer_id in leaving[step]:
            viewer_departs(viewer_id, channels[viewer_id])
        for viewer_id in range(starts[step], starts[step + 1]):
            if (channel_id := channels[viewer_id]) in active or admit(
                    policy_kind, len(active), b_i, reserved, config):
                admit_viewer(viewer_id, channel_id)
            else:
                blocks += 1
        # offered demand of this step: what is on air now, before any drops; blocked
        # activations demanded full quality and got nothing this step
        n = len(active)
        decision = allocate(active, b_i, reserved, config)
        if sla:
            sums.append(sums[-1] + n)  # after allocation: only later steps see it
        drops = len(dropped := decision.dropped_channel_ids)
        for channel_id in dropped:
            drop_channel(channel_id)
        append(new_record(StepRecord, (
            step * dt, b_i, reserved, n, decision.per_channel_bw_mbps,
            step_satisfaction(decision, full * n + full * blocks),
            step_utilization(decision, config), blocks, drops)))
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
