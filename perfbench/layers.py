"""Which public bwbroker names the traced run wraps, and the per-layer metrics.

Layers are the modules under ``src/bwbroker``.  Only public names are
wrapped, where their callers look them up: the engine's imports of the
allocation and broker functions, the CellState mutators on the class,
and the CLI's imports of the engine entry points and ``aggregate``.
"""

from __future__ import annotations

import math

from tracer import Tracer

CELLSTATE_MUTATORS = ("admit_viewer", "viewer_departs", "drop_channel", "add_call", "call_departs")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def install(cli, engine) -> Tracer:
    t = Tracer()
    from bwbroker.model import CellState
    from bwbroker.traffic import EventKind

    viewer_kinds = {EventKind.VIEWER_ARRIVE, EventKind.VIEWER_DEPART}

    def on_trace(trace):
        viewer = sum(1 for step in trace for ev in step if ev.kind in viewer_kinds)
        t.count("viewer_events", viewer)
        t.count("call_events", sum(map(len, trace)) - viewer)

    def on_admit(admitted):
        t.count("admitted" if admitted else "blocks")

    def on_allocate(decision):
        dropped = len(decision.dropped_channel_ids)
        if dropped:
            t.count("drops", dropped)
            t.count("sheds")

    for name in ("cmd_run", "cmd_sweep"):
        setattr(cli, name, t.coarse("cli.cmd", getattr(cli, name)))
    cli.run_experiment = t.coarse("engine.run_experiment", cli.run_experiment)
    cli.run_policies = t.coarse("engine.run_policies", cli.run_policies)
    engine.run_policies = t.coarse("engine.run_policies", engine.run_policies)
    engine.run_paired = t.coarse("engine.run_paired", engine.run_paired, new_rep=True)
    engine.build_trace = t.coarse("traffic.build_trace", engine.build_trace, on_result=on_trace)
    engine.run_trace = t.coarse(
        lambda config, policy_kind, trace: f"engine.run_trace.{policy_kind.value}",
        engine.run_trace,
        on_result=lambda records: t.count("steps", len(records)),
    )
    cli.aggregate = t.coarse("metrics.aggregate", cli.aggregate)
    engine.aggregate = t.coarse("metrics.aggregate", engine.aggregate)

    engine.allocate_sla = t.fine("allocation.allocate_sla", engine.allocate_sla, on_allocate)
    engine.allocate_non_sla = t.fine("allocation.allocate_non_sla", engine.allocate_non_sla, on_allocate)
    engine.admit_channel = t.fine("allocation.admit_channel", engine.admit_channel, on_admit)
    engine.compute_reservation = t.fine("broker.compute_reservation", engine.compute_reservation)
    for name in CELLSTATE_MUTATORS:
        setattr(CellState, name, t.fine("model.cellstate", getattr(CellState, name)))
    return t


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten of n samples beyond it (else the median)."""
    return next((p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10), 50.0)


def summarize(t: Tracer) -> dict:
    """Per-layer figures of one traced command, before pool and overhead."""
    c = t.counts
    out: dict[str, float] = {}

    calls, busy = t.busy("traffic.build_trace")
    events = c.get("viewer_events", 0) + c.get("call_events", 0)
    out["traffic.busy_s"] = busy
    out["traffic.calls"] = calls
    out["traffic.events"] = events
    out["traffic.viewer_events"] = c.get("viewer_events", 0)
    out["traffic.call_events"] = c.get("call_events", 0)
    out["traffic.events_per_s"] = events / busy

    run_trace_s = 0.0
    for policy in ("sla", "nonsla"):
        _, busy = t.busy(f"engine.run_trace.{policy}")
        out[f"engine.run_trace.{policy}.busy_s"] = busy
        run_trace_s += busy
    out["engine.self_s"] = t.self_time("engine.run_trace.sla") + t.self_time("engine.run_trace.nonsla")
    out["engine.steps"] = c.get("steps", 0)
    out["engine.steps_per_s"] = c.get("steps", 0) / run_trace_s
    paired = t.durations("engine.run_paired")
    pct = tail_percentile(len(paired))
    out["engine.run_paired.p50_ms"] = percentile(paired, 50.0) * 1e3
    out["engine.run_paired.tail_ms"] = percentile(paired, pct) * 1e3
    out["engine.run_paired.tail_pct"] = pct
    out["engine.run_paired.samples"] = len(paired)

    alloc_calls = 0
    for name in ("allocate_sla", "allocate_non_sla", "admit_channel"):
        calls, busy = t.busy(f"allocation.{name}")
        out[f"allocation.{name}.busy_s"] = busy
        out[f"allocation.{name}.calls"] = calls
        if name != "admit_channel":
            alloc_calls += calls
    admits = out["allocation.admit_channel.calls"]
    out["allocation.admit_ratio"] = c.get("admitted", 0) / admits if admits else 1.0
    out["allocation.shed_share"] = c.get("sheds", 0) / alloc_calls
    out["allocation.drops"] = c.get("drops", 0)
    out["allocation.blocks"] = c.get("blocks", 0)
    out["allocation.sheds"] = c.get("sheds", 0)

    for layer in ("broker.compute_reservation", "model.cellstate", "metrics.aggregate"):
        calls, busy = t.busy(layer)
        out[f"{layer}.busy_s"] = busy
        out[f"{layer}.calls"] = calls

    out["cli.self_s"] = t.self_time("cli.cmd")
    return out

