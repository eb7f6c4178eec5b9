"""Write reference.json: projected digests of every workload's CSVs at the reference seed.

Usage (from the repository root): python3 perfbench/make_reference.py

Run it only when an output change is intended and explained; the digests
cover each file's columns as they are now, so columns added later are
ignored by the checks.
"""

import json
import os
import shutil
import subprocess
import sys

from checks import REFERENCE_FILE, projected_digest, read_csv
from run import OUT, REFERENCE_SEED, SRC, WORKLOADS, affinity


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("BWBROKER_SEED", None)
    files = {}
    for name, workload in WORKLOADS.items():
        jobs = affinity() if workload.pool else 1
        out = OUT / "reference" / name
        shutil.rmtree(out, ignore_errors=True)
        subprocess.run(
            [sys.executable, "-m", "bwbroker.cli", *workload.cli_args,
             "--seed", str(REFERENCE_SEED), "--jobs", str(jobs), "--out", str(out)],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )  # fmt: skip
        files[name] = {}
        for path in sorted(out.glob("*.csv")):
            rows = read_csv(path)
            columns = list(rows[0])
            files[name][path.name] = {"columns": columns, "sha256": projected_digest(rows, columns)}
    REFERENCE_FILE.write_text(json.dumps({"seed": REFERENCE_SEED, "files": files}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
