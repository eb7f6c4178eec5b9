"""Smoke test of the benchmark harness: a traced run of each command kind.

perfbench/layers.py wraps bwbroker functions by name, so renaming or
removing one of them breaks the benchmark; this catches it in the suite.
"""

import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from bwbroker.cli import load_config
from bwbroker.engine import replication_seed
from bwbroker.traffic import EventKind, build_trace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TINY = "sim_duration_min: 120\nwarmup_min: 60\nreplications: 2\n"


# the scenario of test_cli.py's pinned run digests: 101 blocks and 40 drops at seed 7
HEAVY = TINY + "non_iptv_arrival_rate_per_min: 4.5\n"


def _traced(tmp_path, scenario_text, command) -> dict:
    """The per-layer report of one traced harness run of a bwbroker command at --jobs 1."""
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(scenario_text)
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "child.py"), "traced",
        str(tmp_path / "counts.bin"), str(tmp_path / "spans.json"), "--",
        command[0], str(scenario), *command[1:], "--jobs", "1", "--out", str(tmp_path / "out"),
    ]
    env = {k: v for k, v in os.environ.items() if k != "BWBROKER_SEED"}
    env.update(PYTHONPATH=str(SRC), BWBENCH_SRC=str(SRC))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])["layers"]


@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--figure", "fig5"], ["sweep", "--figure", "fig3"]],
    ids=["run", "sweep-fig5", "sweep-fig3"])
def test_traced_harness_run_reports_layers(tmp_path, command):
    assert _traced(tmp_path, TINY, command)["engine.steps"] > 0


def test_traced_run_sees_every_hook_the_kernel_must_call(tmp_path):
    # the engine must reach admission, allocation, the reservation and the
    # CellState mutators through the names the harness wraps
    layers = _traced(tmp_path, HEAVY, ["run", "--seed", "7"])
    totals = {"blocks": 0, "drops": 0}
    forked = set()  # the (replication, policy) runs that block or drop
    for policy in ("sla", "nonsla"):
        with open(tmp_path / "out" / f"steps_{policy}.csv", newline="") as f:
            for row in csv.DictReader(f):
                for column in totals:
                    totals[column] += int(row[column])
                if int(row["blocks"]) or int(row["drops"]):
                    forked.add((int(row["replication"]), policy))
    assert totals["blocks"] >= 101 and totals["drops"] >= 40
    assert layers["allocation.blocks"] == totals["blocks"]
    assert layers["allocation.drops"] == totals["drops"]
    replications, steps = 2, 120
    assert layers["engine.steps"] == 2 * replications * steps
    assert layers["broker.compute_reservation.calls"] == replications * steps
    assert layers["allocation.allocate_sla.calls"] == replications * steps
    assert layers["allocation.allocate_non_sla.calls"] == replications * steps
    # a run plays its viewer events through the mutators only if it blocks or
    # drops: then one call per viewer event of its trace (those before its first
    # block or drop build its cell), less the blocked arrivals, plus one per
    # dropped channel; calls are never played
    scenario = tmp_path / "scenario.yaml"
    config = replace(load_config(str(scenario)), base_seed=7)
    viewer_events = {
        rep: sum(ev.kind in (EventKind.VIEWER_ARRIVE, EventKind.VIEWER_DEPART)
                 for events in build_trace(config, replication_seed(7, rep)) for ev in events)
        for rep in range(replications)}
    assert 0 < len(forked) < 2 * replications
    assert layers["model.cellstate.calls"] == (
        sum(viewer_events[rep] for rep, _ in forked) - totals["blocks"] + totals["drops"])
