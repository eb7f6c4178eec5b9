"""Smoke test of the benchmark harness: a traced run of each command kind.

perfbench/layers.py wraps bwbroker functions by name, so renaming or
removing one of them breaks the benchmark; this catches it in the suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TINY = "sim_duration_min: 120\nwarmup_min: 60\nreplications: 2\n"


@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--figure", "fig5"], ["sweep", "--figure", "fig3"]],
    ids=["run", "sweep-fig5", "sweep-fig3"])
def test_traced_harness_run_reports_layers(tmp_path, command):
    scenario = tmp_path / "tiny.yaml"
    scenario.write_text(TINY)
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "child.py"), "traced",
        str(tmp_path / "counts.bin"), str(tmp_path / "spans.json"), "--",
        command[0], str(scenario), *command[1:], "--jobs", "1", "--out", str(tmp_path / "out"),
    ]
    env = {k: v for k, v in os.environ.items() if k != "BWBROKER_SEED"}
    env.update(PYTHONPATH=str(SRC), BWBENCH_SRC=str(SRC))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["layers"]["engine.steps"] > 0
