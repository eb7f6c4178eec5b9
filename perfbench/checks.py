"""Output checks on the CSVs one benchmark command wrote.

For the reference seed every CSV is compared with a stored digest.  A
digest covers only the columns the file had when the reference was made
(see reference.json), so a column added later does not count as a
failure, while any changed value does.  For every seed the range and
identity checks below run as well.
"""

from __future__ import annotations

import csv
import hashlib
import json
from functools import cache
from pathlib import Path

REFERENCE_FILE = Path(__file__).parent / "reference.json"

# every workload runs the table1 preset
CAPACITY_MBPS = 60.0
CHANNEL_MAX_MBPS = 2.0
UNIT_TOL = 1e-9


@cache
def reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def projected_digest(rows: list[dict[str, str]], columns: list[str]) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update((",".join(row[c] for c in columns) + "\n").encode())
    return h.hexdigest()


def _in_unit_interval(rows, *columns) -> bool:
    return all(-UNIT_TOL <= float(r[c]) <= 1.0 + UNIT_TOL for r in rows for c in columns)


def _steps_checks(rows) -> dict[str, bool]:
    return {
        "SL and utilization in [0, 1]": _in_unit_interval(rows, "SL", "utilization"),
        "B_B == max(0, B_R - B_A)": all(
            float(r["B_B"]) == max(0.0, float(r["B_R"]) - float(r["B_A"])) for r in rows
        ),
        "B_IPTV_demand == 2 * N_IPTV": all(
            float(r["B_IPTV_demand"]) == CHANNEL_MAX_MBPS * int(r["N_IPTV"]) for r in rows
        ),
    }


def _sla_not_worse_in_overload(rows) -> bool:
    sl = {(r["policy"], float(r["sweep_value"])): float(r["mean_SL"]) for r in rows}
    loads = sorted({v for _, v in sl if v >= CAPACITY_MBPS})
    return bool(loads) and all(sl[("sla", v)] >= sl[("nonsla", v)] for v in loads)


def check_outputs(workload: str, out_dir: Path, seed: int) -> tuple[dict[str, bool], dict]:
    """Run every check on one command's outputs.

    Returns ({check name: passed}, exact counts), where the counts are the
    projected digest of each file and, for steps CSVs, the block and drop
    totals over all steps.
    """
    results: dict[str, bool] = {}
    counts: dict = {}
    ref_seed, files = reference()["seed"], reference()["files"][workload]
    drops = blocks = 0
    for name, ref in files.items():
        path = out_dir / name
        if not path.is_file():
            results[f"{name}: written"] = False
            continue
        rows = read_csv(path)
        try:
            digest = projected_digest(rows, ref["columns"])
        except KeyError as exc:
            results[f"{name}: has column {exc}"] = False
            continue
        counts[f"{name}.sha256"] = digest
        if seed == ref_seed:
            results[f"{name}: matches reference digest"] = digest == ref["sha256"]
        if name.startswith("steps_"):
            for check, ok in _steps_checks(rows).items():
                results[f"{name}: {check}"] = ok
            drops += sum(int(r["drops"]) for r in rows)
            blocks += sum(int(r["blocks"]) for r in rows)
            counts["drops"], counts["blocks"] = drops, blocks
        else:
            results[f"{name}: mean_SL and mean_util in [0, 1]"] = _in_unit_interval(
                rows, "mean_SL", "mean_util"
            )
        if name == "sweep_fig3.csv":
            results[f"{name}: sla mean_SL >= nonsla at loads >= capacity"] = (
                _sla_not_worse_in_overload(rows)
            )
    return results, counts
