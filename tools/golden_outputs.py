"""Write the outputs of the byte-identity gate: 12 bwbroker commands, CSVs and stdout.

    python3 tools/golden_outputs.py OUT

runs `run table1`, `sweep table1 --figure fig3` and `--figure fig5`, at
seeds 42 and 1009, at `--jobs 1` and `--jobs 2`, against the `src/` of the
checkout this script sits in, with BWBROKER_SEED removed from the
environment.  Each command writes its CSVs and its stdout (`stdout.txt`)
under OUT/<command>-seed<seed>-jobs<jobs>/, and OUT must not exist yet.
Two checkouts agree when `diff -r` finds nothing between their OUTs; within
one OUT, each -jobs1 directory should equal its -jobs2 twin.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = {"run": ["run", "table1"],
            "sweep-fig3": ["sweep", "table1", "--figure", "fig3"],
            "sweep-fig5": ["sweep", "table1", "--figure", "fig5"]}
SEEDS = (42, 1009)
JOBS = (1, 2)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists():  # stale files in it would show up in the diff
        print(f"{out} exists already", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "BWBROKER_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name, args in COMMANDS.items():
        for seed in SEEDS:
            for jobs in JOBS:
                target = out / f"{name}-seed{seed}-jobs{jobs}"
                cmd = [sys.executable, "-m", "bwbroker.cli", *args, "--seed", str(seed),
                       "--jobs", str(jobs), "--out", str(target)]
                done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, check=True)
                (target / "stdout.txt").write_bytes(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
