"""Command line front end: single runs and figure-style sweeps.

`run` writes the steps CSVs and summaries that engine.run_policies returns,
formatted and reduced by the replication workers: no step record reaches here.

Exit codes: 0 on success, 2 for bad input (bad file, bad key, a value
that is malformed, non-finite, fractional where a whole number is due
or out of range, a run or history window of more than model.MAX_STEPS
steps, more than model.MAX_ARRIVALS expected arrivals a replication, a
catalog of more than model.MAX_CHANNELS channels, more than
model.MAX_REPLICATIONS replications, a run of more than
model.MAX_STEP_RECORDS step records, a config a sweep or one of its
points cannot use, a file that cannot be read, does not decode, nests
past the recursion limit or gives a key twice, an --out that cannot be
made a directory or written to, bad command line arguments), 3 for
unexpected runtime failures.  The --seed flag overrides the configured
base seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from .allocation import PolicyKind
from .engine import FIGURE_SWEEPS, check_run, run_experiment, run_policies
from .metrics import STEP_CSV_HEADER, RunSummary, csv_text
from .metrics import aggregate  # noqa: F401 - uncalled; perfbench/layers.py wraps cli.aggregate
from .model import PRESETS, ConfigError, ScenarioConfig

# each summary column: its CSV header, its RunSummary field and its format on stdout
SUMMARY_COLUMNS = (
    ("mean_SL", "mean_satisfaction", ".4f"),
    ("se_SL", "se_satisfaction", ".4f"),
    ("mean_util", "mean_utilization", ".4f"),
    ("se_util", "se_utilization", ".4f"),
    ("block_rate", "block_rate", ".4f"),
    ("drop_rate", "drop_rate", ".4f"),
    ("mean_N_IPTV", "mean_active_channels", ".2f"),
)
SUMMARY_CSV_HEADER = ["policy"] + [header for header, _, _ in SUMMARY_COLUMNS]
SWEEP_CSV_HEADER = ["sweep_value"] + SUMMARY_CSV_HEADER

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig)}
_INT_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig) if f.type == "int"}


def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def load_config(source: str) -> ScenarioConfig:
    """Build a scenario from a preset name or a flat YAML file.

    File keys must be ScenarioConfig field names, each given once; anything
    else is a hard error so a typo cannot silently fall back to a default.
    Omitted keys take the table1 preset defaults.
    """
    if source in PRESETS:
        return PRESETS[source]()
    path = Path(source)
    try:  # a name too long to look up raises, as does a file that cannot be read
        if not path.is_file():
            raise ConfigError(f"config file not found: {source}")
        content = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read {source}: {exc}") from exc
    import yaml  # here, not at the top: a preset run never needs PyYAML's import time

    class UniqueKeyLoader(yaml.SafeLoader):
        """A SafeLoader that refuses a mapping which gives a key twice: the last would win."""

        def construct_mapping(self, node, deep=False):
            # a key merged in with << may be overridden; the merge expands in the super call
            own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
            mapping = super().construct_mapping(node, deep=deep)  # an unhashable key raises here
            counts = Counter(self.construct_object(key, deep=deep) for key in own)
            if repeated := sorted(str(key) for key, n in counts.items() if n > 1):
                raise yaml.constructor.ConstructorError(
                    None, None, f"repeated keys: {', '.join(repeated)}", node.start_mark)
            return mapping

    try:
        # from bytes, an undecodable file is a YAMLError like any other
        data = yaml.load(content, Loader=UniqueKeyLoader)
    # ValueError: an integer past Python's digit limit; RecursionError: nesting past its stack
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot parse {source}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: config must be a flat key/value mapping")
    unknown = sorted(str(key) for key in data if key not in _CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"{source}: unknown config keys: {', '.join(unknown)}")
    coerced = {}
    for key, raw in data.items():
        try:
            # int() and float() would read true as 1 and truncate 2.7 to 2
            if isinstance(raw, bool) or (
                key in _INT_FIELDS and isinstance(raw, float) and not raw.is_integer()
            ):
                raise ValueError("not a number of the field's kind")
            coerced[key] = int(raw) if key in _INT_FIELDS else float(raw)
        except (TypeError, ValueError, OverflowError) as exc:  # an int too large for a float
            raise ConfigError(f"{source}: bad value for {key}: {raw!r}") from exc
    return replace(PRESETS["table1"](), **coerced)


def _resolve_seed(config: ScenarioConfig, seed: int | None) -> ScenarioConfig:
    return config if seed is None else replace(config, base_seed=seed)


def _temp_path(path: Path) -> Path:
    """Where _write_csv_atomic writes path before it renames the file into place."""
    return path.with_name(path.name + ".tmp")


def _write_csv_atomic(path: Path, header: list[str], *chunks: str) -> None:
    """Write the header row, then the chunks of CSV text, to path; ConfigError if it cannot."""
    # write-then-rename so a crash can never leave a half-written file
    tmp = _temp_path(path)
    opened = False
    try:
        with open(tmp, "w", newline="") as f:
            opened = True
            f.write(csv_text([header]))
            f.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        if opened:  # a file or directory that was already at tmp is left as it was
            tmp.unlink(missing_ok=True)
        raise ConfigError(f"cannot write outputs to --out {path.parent}: {exc}") from exc


def _summary_row(policy: PolicyKind, s: RunSummary) -> list:
    return [policy.value] + [getattr(s, field) for _, field, _ in SUMMARY_COLUMNS]


def _summary_text(s: RunSummary, columns=SUMMARY_COLUMNS) -> str:
    """The columns of s as header=value pairs for stdout, each in its format."""
    return " ".join(f"{header}={getattr(s, field):{fmt}}" for header, field, fmt in columns)


def _out_dir(path: str, names: list[str]) -> Path:
    """Create the output directory and check that no directory takes one of the names
    the command will write there, or the temporary name it writes each through:
    after every config check, before any replication."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write outputs to --out {path}: {exc}") from exc
    paths = [p for name in names for p in (out / name, _temp_path(out / name))]
    if taken := [p.name for p in paths if p.is_dir()]:
        raise ConfigError(f"cannot write outputs to --out {path}: {taken[0]} is a directory")
    return out


def cmd_run(args: argparse.Namespace) -> int:
    config = _resolve_seed(load_config(args.config), args.seed)
    check_run(config)
    out_dir = _out_dir(args.out, [f"steps_{p.value}.csv" for p in PolicyKind] + ["summary.csv"])
    by_policy = run_policies(config, jobs=args.jobs)
    for policy, run in by_policy.items():
        _write_csv_atomic(out_dir / f"steps_{policy.value}.csv", STEP_CSV_HEADER, *run.steps_csv)
        print(f"policy={policy.value} reps={run.summary.replications}",
              _summary_text(run.summary))
    summary_rows = (_summary_row(policy, run.summary) for policy, run in by_policy.items())
    _write_csv_atomic(out_dir / "summary.csv", SUMMARY_CSV_HEADER, csv_text(summary_rows))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _resolve_seed(load_config(args.config), args.seed)
    try:
        sweep = FIGURE_SWEEPS[args.figure](config)
    except (ArithmeticError, ValueError) as exc:
        # the preset derives its rates from the config, which can put them out of reach
        raise ConfigError(f"the {args.figure} sweep cannot use this config: {exc}") from exc
    out_dir = _out_dir(args.out, [f"sweep_{args.figure}.csv"])
    points = run_experiment(sweep, jobs=args.jobs)

    rows = ([p.sweep_value] + _summary_row(p.policy, p.summary) for p in points)
    _write_csv_atomic(out_dir / f"sweep_{args.figure}.csv", SWEEP_CSV_HEADER, csv_text(rows))

    # a sweep line shows the point's means alone
    means = [column for column in SUMMARY_COLUMNS if column[0].startswith("mean_")]
    for p in points:
        print(f"{sweep.axis}={p.sweep_value:.4g} policy={p.policy.value}",
              _summary_text(p.summary, means))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwbroker",
        description="Simulate SLA-backed bandwidth reservation for IPTV in a shared cell.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the CPUs this process may run on, which can be fewer than the machine has
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="scenario config file, or a preset name (table1)")
    common.add_argument("--seed", type=int, default=None, help="override the base seed")
    common.add_argument("--out", default=".", help="output directory (default: cwd)")
    common.add_argument(
        "--jobs",
        type=_jobs,
        default=cpus or 1,
        help="parallel replication workers, at least 1 and never more than the replications"
        " to run (default: the CPUs this process may use)",
    )

    p_run = sub.add_parser("run", parents=[common], help="run one scenario under both policies")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[common], help="run a figure-style sweep")
    p_sweep.add_argument(
        "--figure", choices=sorted(FIGURE_SWEEPS), required=True,
        help="which preset sweep to run",
    )
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        # some exceptions, such as MemoryError, carry no message
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
