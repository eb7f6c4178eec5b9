"""Run one bwbroker command in this fresh interpreter and report what it cost.

Usage: python3 child.py MODE COUNTS_FILE TRACE_FILE -- <bwbroker CLI arguments>

MODE is one of
  setup   stop at the first call into the engine (set-up time only);
  plain   run the command untraced;
  pool    run it untraced, timing engine.ProcessPoolExecutor;
  traced  run it with every layer wrapped by tracer.Tracer (use --jobs 1).

Set-up ends at the first call from the CLI into ``engine.run_policies``
or ``engine.run_experiment``; the parent subtracts the time it started
this process from the ``setup_at`` stamp printed here.  Both use the
system-wide monotonic clock.  Each ``engine.build_trace`` call appends
its step and event counts to COUNTS_FILE, also from forked pool workers.

The last line printed is one JSON object.
"""

import json
import os
import resource
import struct
import sys
import time

# one record per build_trace call: steps, events
RECORD = struct.Struct("<qq")


class _SetupDone(BaseException):
    """Raised past the CLI's own ``except Exception`` to stop after set-up."""


def _cpu_s(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def _count_events(engine, counts_file: str) -> None:
    # stays open for the life of this process and of its forked workers
    fd = os.open(counts_file, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    build_trace = engine.build_trace

    def counting_build_trace(*args, **kwargs):
        trace = build_trace(*args, **kwargs)
        os.write(fd, RECORD.pack(len(trace), sum(map(len, trace))))
        return trace

    engine.build_trace = counting_build_trace


def _mark_setup(cli, mode: str, marks: dict) -> None:
    def wrap(fn):
        def first_call_marker(*args, **kwargs):
            if "setup_at" not in marks:
                marks["setup_at"] = time.monotonic()
                marks["ru_self"] = resource.getrusage(resource.RUSAGE_SELF)
                if mode == "setup":
                    raise _SetupDone
            return fn(*args, **kwargs)

        return first_call_marker

    cli.run_policies = wrap(cli.run_policies)
    cli.run_experiment = wrap(cli.run_experiment)


def _time_pool(engine) -> dict:
    import pickle

    stats = {"starts": 0, "start_s": 0.0, "wait_s": 0.0, "result_bytes": 0}
    base = engine.ProcessPoolExecutor

    class TimedPool(base):
        def __init__(self, *args, **kwargs):
            t = time.monotonic()
            super().__init__(*args, **kwargs)
            stats["starts"] += 1
            stats["start_s"] += time.monotonic() - t

        def map(self, *args, **kwargs):
            # submission launches the workers, so it counts as start-up
            t = time.monotonic()
            results = super().map(*args, **kwargs)
            stats["start_s"] += time.monotonic() - t
            return self._timed(results)

        @staticmethod
        def _timed(results):
            while True:
                t = time.monotonic()
                try:
                    result = next(results)
                except StopIteration:
                    stats["wait_s"] += time.monotonic() - t
                    return
                stats["wait_s"] += time.monotonic() - t
                stats["result_bytes"] += len(pickle.dumps(result))
                yield result

        def shutdown(self, *args, **kwargs):
            t = time.monotonic()
            super().shutdown(*args, **kwargs)
            stats["wait_s"] += time.monotonic() - t

    engine.ProcessPoolExecutor = TimedPool
    return stats


def main(argv: list[str]) -> int:
    mode, counts_file, trace_file, sep, *cli_args = argv
    if sep != "--" or mode not in ("setup", "plain", "pool", "traced"):
        print(__doc__, file=sys.stderr)
        return 2

    import bwbroker.cli as cli
    from bwbroker import engine

    src = os.environ["BWBENCH_SRC"]
    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        print(f"bwbroker imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    marks: dict = {}
    pool_stats = None
    tracer = None
    if mode != "setup":
        _count_events(engine, counts_file)
    if mode == "pool":
        pool_stats = _time_pool(engine)
    elif mode == "traced":
        import layers

        tracer = layers.install(cli, engine)
    _mark_setup(cli, mode, marks)

    try:
        code = cli.main(cli_args)
    except _SetupDone:
        print(json.dumps({"setup_at": marks["setup_at"]}))
        return 0
    end = time.monotonic()
    if code != 0:
        print(f"bwbroker exited with {code}", file=sys.stderr)
        return 1
    if "setup_at" not in marks:
        print("the command never called into the engine", file=sys.stderr)
        return 1

    ru_self = resource.getrusage(resource.RUSAGE_SELF)
    ru_children = resource.getrusage(resource.RUSAGE_CHILDREN)
    report = {
        "setup_at": marks["setup_at"],
        "wall_s": end - marks["setup_at"],
        "cpu_s": _cpu_s(ru_self) - _cpu_s(marks["ru_self"]) + _cpu_s(ru_children),
        # ru_maxrss is in KiB on Linux; for children it is the largest one
        "peak_rss_mb": max(ru_self.ru_maxrss, ru_children.ru_maxrss) / 1024.0,
    }
    if pool_stats is not None:
        report["pool"] = pool_stats
    if tracer is not None:
        report["layers"] = layers.summarize(tracer)
        with open(trace_file, "w") as f:
            json.dump([s.as_dict() for s in tracer.spans], f)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
