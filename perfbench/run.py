"""bwbroker benchmark: host time of the three user-facing commands.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
NAME is one of the workloads below, or ``all`` to run each in turn.

It measures host time (what the simulator costs to run), not simulated
time.  Every command runs in a fresh interpreter (child.py), so set-up
time and peak RSS belong to that command alone.  With ``--trace 0`` the
benchmark repeats the workload's command until ``--seconds`` have passed,
takes extra set-up-only samples, and reports the
medians of the end-to-end metrics.  A command that runs with ``--jobs 1``
is moved to the next CPU of the affinity set every ``ROTATE_S`` seconds,
so that, like the pooled commands, it runs on every CPU of the set for
about the same time; otherwise each command would be timed on one CPU,
and the CPUs of a shared host are not equally loaded.  With
``--trace 1`` it runs the
command once untraced and once traced, both with ``--jobs 1``, and once
more at ``--jobs`` = the CPU affinity count with the process pool timed;
it reports the per-layer metrics (``--seconds`` does not apply).

Metric names and units are those of BENCHMARK.json.  Every output CSV
is checked (checks.py); ``attempted``/``failed`` count those checks.
Counts that must repeat exactly for one seed (events, steps, drops,
blocks, pool result bytes, output digests) are compared between the
commands of a run and with earlier runs of the same seed in this
checkout; any difference marks the run incorrect.

Seeds: 42 is the reference seed, whose outputs are compared with the
digests in reference.json.  1009 is the held-out seed: a change that
claims a gain must also be checked on it.

Results, spans and outputs go under ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from child import RECORD

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

REFERENCE_SEED = 42
HELD_OUT_SEED = 1009
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 170
POLICIES = 2  # every workload runs both policies on each trace
ROTATE_S = 0.2


class BenchError(Exception):
    pass


@dataclass(frozen=True)
class Workload:
    cli_args: tuple[str, ...]
    pool: bool  # whether the command itself runs with a process pool


# Why each workload is there is recorded in BENCHMARK.json.
WORKLOADS = {
    "table1_run": Workload(("run", "table1"), pool=True),
    "fig3_sweep": Workload(("sweep", "table1", "--figure", "fig3"), pool=True),
    "fig5_sweep": Workload(("sweep", "table1", "--figure", "fig5"), pool=False),
}


def affinity() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def wait_rotating(proc: subprocess.Popen, deadline: float, rotate: bool) -> None:
    """Wait for proc; if rotate, move it to the next CPU every ROTATE_S."""
    cpus = sorted(os.sched_getaffinity(0))
    turn = 0
    while True:
        try:
            proc.wait(timeout=min(ROTATE_S, max(0.0, deadline - time.monotonic())))
            return
        except subprocess.TimeoutExpired:
            if time.monotonic() >= deadline:
                raise
        if rotate and len(cpus) > 1:
            turn += 1
            try:
                os.sched_setaffinity(proc.pid, {cpus[turn % len(cpus)]})
            except ProcessLookupError:  # it has just ended
                pass


def run_child(mode: str, name: str, seed: int, jobs: int) -> dict:
    """Run one command in a fresh interpreter; return its report."""
    work = OUT / name
    csv_dir = work / "csv"
    counts_file = work / "build_trace.bin"
    shutil.rmtree(csv_dir, ignore_errors=True)
    csv_dir.mkdir(parents=True)
    counts_file.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "child.py"), mode, str(counts_file), str(work / "spans.json"),
        "--", *WORKLOADS[name].cli_args,
        "--seed", str(seed), "--jobs", str(jobs), "--out", str(csv_dir),
    ]  # fmt: skip
    env = {k: v for k, v in os.environ.items() if k != "BWBROKER_SEED"}
    env.update(PYTHONPATH=str(SRC), BWBENCH_SRC=str(SRC))
    out_file, err_file = work / "child.out", work / "child.err"
    rotate = jobs == 1 and mode != "setup"
    with open(out_file, "w") as out, open(err_file, "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, start_new_session=True)
    try:
        wait_rotating(proc, spawned + CHILD_TIMEOUT_S, rotate)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{name} {mode}: no result within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{name} {mode}: exit {proc.returncode}\n{err_file.read_text().strip()}")
    report = json.loads(out_file.read_text().strip().splitlines()[-1])
    report["setup_s"] = report["setup_at"] - spawned
    if mode == "setup":
        return report
    data = counts_file.read_bytes()
    per_trace = [RECORD.unpack_from(data, i) for i in range(0, len(data), RECORD.size)]
    report["counts"] = {
        "traces": len(per_trace),
        "steps": POLICIES * sum(steps for steps, _ in per_trace),
        "events": sum(events for _, events in per_trace),
    }
    report["checks"], output_counts = checks.check_outputs(name, csv_dir, seed)
    report["counts"].update(output_counts)
    report["bytes_written"] = sum(p.stat().st_size for p in csv_dir.iterdir())
    return report


class Ledger:
    """Output checks and exact counts of every command of one run."""

    def __init__(self, name: str, seed: int):
        self.results: dict[str, bool] = {}
        self.counts: dict = {}
        self.store = OUT / "counts" / f"{name}-seed{seed}.json"

    def add_checks(self, label: str, results: dict[str, bool]) -> None:
        for check, ok in results.items():
            self.results[f"{label}: {check}"] = ok

    def add_counts(self, label: str, counts: dict) -> None:
        """Every count must equal what earlier commands of this run reported."""
        for key, value in counts.items():
            known = self.counts.setdefault(key, value)
            self.results[f"{label}: {key} repeats exactly"] = known == value

    def settle(self) -> None:
        """Compare with, then extend, the counts stored by earlier runs."""
        stored = json.loads(self.store.read_text()) if self.store.is_file() else {}
        for key, value in self.counts.items():
            if key in stored:
                self.results[f"earlier runs: {key} repeats exactly"] = stored[key] == value
        self.store.parent.mkdir(parents=True, exist_ok=True)
        self.store.write_text(json.dumps({**self.counts, **stored}, indent=1, sort_keys=True))

    @property
    def failed(self) -> list[str]:
        return [k for k, ok in self.results.items() if not ok]


def end_to_end(name: str, seed: int, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    jobs = affinity() if WORKLOADS[name].pool else 1
    run_child("setup", name, seed, jobs)  # warm the file and bytecode caches
    reports = []
    deadline = time.monotonic() + seconds
    while not reports or time.monotonic() < deadline:
        r = run_child("plain", name, seed, jobs)
        label = f"run {len(reports)}"
        ledger.add_checks(label, r["checks"])
        ledger.add_counts(label, r["counts"])
        reports.append(r)
    setups = [r["setup_s"] for r in reports]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child("setup", name, seed, jobs)["setup_s"])

    def med(f):
        return statistics.median(f(r) for r in reports)

    metrics = {
        "wall_s": med(lambda r: r["wall_s"]),
        "setup_s": statistics.median(setups),
        "steps_per_s": med(lambda r: r["counts"]["steps"] / r["wall_s"]),
        "events_per_s": med(lambda r: r["counts"]["events"] / r["wall_s"]),
        "cpu_s": med(lambda r: r["cpu_s"]),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
    }
    raw = {"jobs": jobs, "commands": reports, "setup_samples": setups}
    return metrics, raw


def per_layer(name: str, seed: int, ledger: Ledger) -> tuple[dict, dict]:
    run_child("setup", name, seed, 1)
    plain = run_child("plain", name, seed, 1)
    traced = run_child("traced", name, seed, 1)
    pooled = run_child("pool", name, seed, affinity())
    for label, r in (("untraced", plain), ("traced", traced), ("pool", pooled)):
        ledger.add_checks(label, r["checks"])
        ledger.add_counts(label, r["counts"])
    layers = traced["layers"]
    ledger.add_counts(
        "traced layers",
        {
            "events": layers["traffic.events"],
            "steps": layers["engine.steps"],
            "traces": layers["traffic.calls"],
            "drops": layers["allocation.drops"],
            "blocks": layers["allocation.blocks"],
            "sheds": layers["allocation.sheds"],
        },
    )
    pool = pooled["pool"]
    ledger.add_counts("pool", {"pool.result_bytes": pool["result_bytes"]})
    metrics = dict(layers)
    metrics.update(
        {
            "engine.pool.starts": pool["starts"],
            "engine.pool.start_s": pool["start_s"],
            "engine.pool.wait_s": pool["wait_s"],
            "engine.pool.result_bytes": pool["result_bytes"],
            "cli.bytes_written": traced["bytes_written"],
            "trace_overhead_s": traced["wall_s"] - plain["wall_s"],
        }
    )
    raw = {"jobs": 1, "pool_jobs": affinity(), "untraced": plain, "traced": traced, "pool": pooled}
    return metrics, raw


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    ledger = Ledger(name, seed)
    if trace:
        metrics, raw = per_layer(name, seed, ledger)
    else:
        metrics, raw = end_to_end(name, seed, seconds, ledger)
    ledger.settle()
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"{name}: no value for {', '.join(missing)}")
    failed = ledger.failed
    result = {
        "workload": name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "seed": seed,
        "reference_seed": REFERENCE_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": affinity(),
        "git_commit": git_commit(),
        "checks_attempted": len(ledger.results),
        "checks_failed": failed,
        "failed_share": len(failed) / len(ledger.results),
        "counts": ledger.counts,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
        "raw": raw,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "bwbroker" / "__init__.py").is_file():
        print(f"error: no bwbroker sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            r = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(
            f"# {name} seed={args.seed} jobs={r['raw']['jobs']} python={r['python']}"
            f" nproc={r['nproc']} affinity={r['affinity']} commit={r['git_commit']}"
        )
        for metric, m in r["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name} failed_share = {r['failed_share']:.6g} ({len(r['checks_failed'])}/{r['checks_attempted']})")
        for check in r["checks_failed"]:
            print(f"FAILED {name}: {check}")
        combined["correct"] &= not r["checks_failed"]
        combined["attempted"] += r["checks_attempted"]
        combined["failed"] += len(r["checks_failed"])
        prefix = "" if len(names) == 1 else f"{name}."
        combined["metrics"].update({prefix + k: v for k, v in r["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
