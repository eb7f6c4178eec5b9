"""Command line entry points: config loading, outputs, exit codes."""

import csv
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bwbroker import cli, engine
from bwbroker.allocation import PolicyKind
from bwbroker.cli import SUMMARY_CSV_HEADER, build_parser, load_config, main
from bwbroker.model import MAX_MBPS, ConfigError, table1
from bwbroker.traffic import EventKind, build_trace

TINY = """\
sim_duration_min: 30
warmup_min: 10
replications: 2
iptv_viewer_arrival_rate_per_min: 1.0
non_iptv_arrival_rate_per_min: 1.0
base_seed: 3
"""

SHORT = "sim_duration_min: 120\nwarmup_min: 60\nreplications: 2\n"

STEP_HEADER = ("replication,t_min,B_I,B_IPTV_demand,B_A,B_R,B_B,"
               "N_IPTV,per_channel_bw,SL,utilization,blocks,drops")


@pytest.fixture
def tiny_file(tmp_path):
    p = tmp_path / "tiny.yaml"
    p.write_text(TINY)
    return p


def test_preset_name_loads_defaults():
    assert load_config("table1") == table1()


def test_yaml_overrides_merge_with_defaults(tiny_file):
    c = load_config(str(tiny_file))
    assert c.sim_duration_min == 30.0
    assert c.replications == 2
    assert c.capacity_mbps == 60.0          # untouched default


def test_keys_merged_in_may_be_overridden(tmp_path):
    # only a key given twice in the file's own mapping is a repeat
    p = tmp_path / "c.yaml"
    p.write_text("<<: {capacity_mbps: 90, replications: 3}\ncapacity_mbps: 80\n")
    c = load_config(str(p))
    assert (c.capacity_mbps, c.replications) == (80.0, 3)


def test_missing_config_file_is_reported():
    with pytest.raises(ConfigError, match="no_such_file.yaml"):
        load_config("no_such_file.yaml")


def test_unknown_key_is_a_hard_error(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("capacity_mbs: 50\n")      # typo on purpose
    with pytest.raises(ConfigError, match="capacity_mbs"):
        load_config(str(p))


def test_non_mapping_config_is_rejected(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(str(p))


def test_unparseable_value_is_rejected(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("replications: fast\n")
    with pytest.raises(ConfigError, match="replications"):
        load_config(str(p))


@pytest.mark.parametrize("content,message", [
    (b"\xff\n", "cannot parse"),                        # not UTF-8
    (b"1: 2\n", "unknown config keys: 1"),
    (b"foo: 1\n2: 3\n", "unknown config keys: 2, foo"),  # keys that do not sort together
], ids=["not-utf8", "int-key", "mixed-keys"])
def test_undecodable_file_or_non_string_key_exits_2(tmp_path, capsys, content, message):
    p = tmp_path / "c.yaml"
    p.write_bytes(content)
    rc = main(["run", str(p), "--out", str(tmp_path / "x"), "--jobs", "1"])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_inconsistent_config_is_rejected(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("iptv_reservation_cap_mbps: 70\n")    # above the 60 cell
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_run_writes_steps_and_summary(tiny_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", str(tiny_file), "--out", str(out), "--seed", "5"])
    assert rc == 0
    steps = (out / "steps_sla.csv").read_text().splitlines()
    assert steps[0] == STEP_HEADER
    assert len(steps) == 1 + 2 * 30         # header + reps * steps
    assert (out / "steps_nonsla.csv").is_file()
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == ",".join(SUMMARY_CSV_HEADER)
    assert len(summary) == 3                # header + one row per policy
    printed = capsys.readouterr().out
    assert "sla" in printed and "nonsla" in printed


def test_run_single_policy(tiny_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["run", str(tiny_file), "--out", str(out), "--policy", "sla"])
    assert rc == 0
    assert (out / "steps_sla.csv").is_file()
    assert not (out / "steps_nonsla.csv").exists()
    assert len((out / "summary.csv").read_text().splitlines()) == 2


def test_single_policy_run_plays_only_that_policy(tiny_file, tmp_path, monkeypatch):
    played = []
    run_trace = engine.run_trace

    def recording_run_trace(config, policy_kind, trace):
        played.append(policy_kind)
        return run_trace(config, policy_kind, trace)

    monkeypatch.setattr(engine, "run_trace", recording_run_trace)
    both = tmp_path / "both"
    assert main(["run", str(tiny_file), "--out", str(both), "--jobs", "1"]) == 0
    for policy in PolicyKind:  # each policy alone, under one test id
        played.clear()
        alone, name = tmp_path / policy.value, f"steps_{policy.value}.csv"
        assert main(["run", str(tiny_file), "--out", str(alone), "--jobs", "1",
                     "--policy", policy.value]) == 0
        assert played == [policy] * 2       # once for each of the two replications
        assert (alone / name).read_bytes() == (both / name).read_bytes()


def test_repeat_runs_are_byte_identical(tiny_file, tmp_path):
    files = ("steps_sla.csv", "steps_nonsla.csv", "summary.csv")
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["run", str(tiny_file), "--out", str(out), "--seed", "5"]) == 0
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_seed_precedence(tiny_file, tmp_path, monkeypatch):
    def run(out, *extra):
        assert main(["run", str(tiny_file), "--out", str(tmp_path / out),
                     "--policy", "sla", *extra]) == 0
        return (tmp_path / out / "steps_sla.csv").read_bytes()

    monkeypatch.delenv("BWBROKER_SEED", raising=False)
    flag = run("flag", "--seed", "5")
    monkeypatch.setenv("BWBROKER_SEED", "99")
    flag_beats_env = run("both", "--seed", "5")
    monkeypatch.setenv("BWBROKER_SEED", "5")
    env_only = run("env")
    monkeypatch.delenv("BWBROKER_SEED")
    config_only = run("config")        # falls back to base_seed: 3

    assert flag == flag_beats_env == env_only
    assert config_only != flag


def test_garbage_seed_env_is_reported(tiny_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BWBROKER_SEED", "not-a-number")
    rc = main(["run", str(tiny_file), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args,env", [
    # seed + 1 has 4,301 digits, too many to format as text
    pytest.param(["--seed", "9" * 4300], None, id="flag-4300-nines"),
    pytest.param([], "9" * 4300, id="env-4300-nines"),
    # the second replication's seed is one past MAX_SEED
    pytest.param(["--seed", str(2**63 - 1)], None, id="flag-max-seed"),
])
def test_a_seed_override_past_max_seed_exits_2_without_running(tmp_path, capsys, monkeypatch,
                                                                args, env):
    monkeypatch.delenv("BWBROKER_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("BWBROKER_SEED", env)
    p = tmp_path / "c.yaml"
    p.write_text("sim_duration_min: 120\nreplications: 2\n")
    for command in (["run", str(p)], ["sweep", str(p), "--figure", "fig5"]):
        rc = main([*command, *args, "--out", str(tmp_path / "x"), "--jobs", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "base_seed" in err
        assert "sweep cannot use" not in err    # the seed is at fault, not the preset
        assert not (tmp_path / "x").exists()


def test_missing_config_exits_2(capsys):
    rc = main(["run", "definitely_missing.yaml"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "definitely_missing.yaml" in err


def test_sweep_writes_per_point_rows(tiny_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", str(tiny_file), "--figure", "fig3", "--out", str(out)])
    assert rc == 0
    rows = (out / "sweep_fig3.csv").read_text().splitlines()
    assert rows[0] == "sweep_value," + ",".join(SUMMARY_CSV_HEADER)
    assert len(rows) == 1 + 14 * 2          # 14 load points, both policies
    assert "mean_SL=" in capsys.readouterr().out


def test_fig4_sweep_is_the_fig3_sweep(tiny_file, tmp_path, capsys):
    printed = {}
    for figure in ("fig3", "fig4"):
        capsys.readouterr()
        assert main(["sweep", str(tiny_file), "--figure", figure, "--out", str(tmp_path / figure),
                     "--jobs", "1"]) == 0
        printed[figure] = capsys.readouterr().out
    assert printed["fig4"] == printed["fig3"]
    assert ((tmp_path / "fig4" / "sweep_fig4.csv").read_bytes()
            == (tmp_path / "fig3" / "sweep_fig3.csv").read_bytes())


def test_unknown_figure_is_rejected_by_the_parser(tiny_file):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(tiny_file), "--figure", "fig9"])
    assert exc.value.code == 2


@pytest.mark.parametrize("line,message", [
    ("capacity_mbps: .nan\n", "capacity_mbps must be finite"),
    ("sim_duration_min: .inf\n", "sim_duration_min must be finite"),
    ("replications: 2.7\n", "replications"),
    ("replications: true\n", "replications"),
    ("capacity_mbps: yes\n", "capacity_mbps"),
    # integers too large for a float once exited 3
    pytest.param("capacity_mbps: 1" + "0" * 400 + "\n", "capacity_mbps", id="capacity_mbps-1e400"),
    pytest.param("warmup_min: 1" + "0" * 400 + "\n", "warmup_min", id="warmup_min-1e400"),
    # the second value once silently won
    pytest.param("capacity_mbps: 90\n'capacity_mbps': 45\n", "repeated keys: capacity_mbps",
                 id="repeated-key"),
])
def test_bad_values_exit_2(tmp_path, capsys, line, message):
    p = tmp_path / "c.yaml"
    p.write_text(line)
    rc = main(["run", str(p), "--out", str(tmp_path / "x"), "--jobs", "1"])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run"], ["sweep", "--figure", "fig5"]])
def test_warmup_that_leaves_no_step_exits_2(tmp_path, capsys, command):
    p = tmp_path / "c.yaml"
    p.write_text("sim_duration_min: 120\nwarmup_min: 119.5\nreplications: 2\n")
    rc = main([command[0], str(p), *command[1:], "--out", str(tmp_path / "x"), "--jobs", "1"])
    assert rc == 2
    assert "warmup_min" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    # a warmup up to the last step's start leaves that step to average
    p.write_text("sim_duration_min: 120\nwarmup_min: 119\nreplications: 2\n")
    assert main([command[0], str(p), *command[1:], "--out", str(tmp_path / "y"),
                 "--jobs", "1"]) == 0


def test_whole_float_is_accepted_for_int_fields(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("replications: 3.0\n")
    assert load_config(str(p)).replications == 3


@pytest.mark.parametrize("figure,catalog", [("fig3", 20), ("fig5", 29)])
def test_sweep_with_too_small_catalog_exits_2(tmp_path, capsys, figure, catalog):
    p = tmp_path / "c.yaml"
    p.write_text(f"num_channels_catalog: {catalog}\nsim_duration_min: 30\n"
                 "warmup_min: 10\nreplications: 1\n")
    rc = main(["sweep", str(p), "--figure", figure, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "num_channels_catalog" in capsys.readouterr().err


@pytest.mark.parametrize("figure,lines", [
    ("fig5", "channel_popularity_skew: 9.0\n"),        # 29.9 channels out of reach
    ("fig3", "iptv_viewer_mean_hold_min: 1.0e300\n"),  # step-rounded hold divides by 0
    ("fig5", "non_iptv_mean_hold_min: 1.0e-200\nnon_iptv_call_bw_mbps: 1.0e-200\n"),
    # the load points divide by hold * bandwidth, which underflows to 0
    ("fig3", "non_iptv_mean_hold_min: 1.0e-200\nnon_iptv_call_bw_mbps: 1.0e-200\n"),
    ("fig3", "channel_popularity_skew: 9.0\n"),        # a viewer rate of 3.2e10 a minute
])
def test_sweep_preset_out_of_reach_exits_2(tmp_path, capsys, figure, lines):
    p = tmp_path / "c.yaml"
    p.write_text(lines + "sim_duration_min: 30\nwarmup_min: 10\nreplications: 1\n")
    rc = main(["sweep", str(p), "--figure", figure, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert f"the {figure} sweep cannot use this config" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_rejected(tiny_file, tmp_path, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(tiny_file), "--out", str(tmp_path / "x"), "--jobs", jobs])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
def test_jobs_default_to_the_usable_cpus():
    args = build_parser().parse_args(["run", "table1"])
    assert args.jobs == len(os.sched_getaffinity(0))


def test_step_count_past_the_ceiling_exits_2_without_running(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_policies", no_run)
    p = tmp_path / "c.yaml"
    p.write_text("sample_interval_min: 1.0e-300\n")     # about 7.2e302 steps
    rc = main(["run", str(p), "--out", str(tmp_path / "x"), "--jobs", "1"])
    assert rc == 2
    assert "steps" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("line,message", [
    # demands past float range: the run once wrote nan and inf, or exited 3
    pytest.param("capacity_mbps: 1.0e308\niptv_channel_max_bw_mbps: 1.0e307\n"
                 "iptv_channel_min_bw_mbps: 1.0e306\niptv_reservation_cap_mbps: 1.0e308\n"
                 + SHORT, "capacity_mbps", id="capacity_mbps-1e308"),
    pytest.param("non_iptv_call_bw_mbps: 1.0e307\n" + SHORT, "non_iptv_call_bw_mbps",
                 id="non_iptv_call_bw_mbps-1e307"),
    ("history_window_min: 1.0e300\n", "history_window_min"),
    ("non_iptv_arrival_rate_per_min: 1.0e12\n", "arrivals"),
    ("num_channels_catalog: 1000000000\n", "num_channels_catalog"),
    ("replications: 1000000000\n", "replications"),
    ("replications: 10000\n", "step records"),       # 14.4 million records, about 5 GB
    # a minimum rate at or below BW_TOL once kept channels on air at 0.0 Mbps, unblocked
    pytest.param("capacity_mbps: 2\niptv_reservation_cap_mbps: 2\n"
                 "iptv_channel_min_bw_mbps: 5.0e-10\nnon_iptv_arrival_rate_per_min: 6\n"
                 "sim_duration_min: 240\nreplications: 2\n", "iptv_channel_min_bw_mbps",
                 id="iptv_channel_min_bw_mbps-5e-10"),
    # seeds once exited 3: past Python's integer-to-text limit, or at a later
    # replication whose seed base_seed + r could not be formatted
    pytest.param("base_seed: " + "1" * 5000 + "\n", "cannot parse", id="base_seed-5000-digits"),
    pytest.param("base_seed: " + "9" * 4300 + "\nreplications: 2\n", "base_seed",
                 id="base_seed-4300-nines"),
])
def test_config_past_a_ceiling_exits_2_without_running(tmp_path, capsys, monkeypatch,
                                                        line, message):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_policies", no_run)
    p = tmp_path / "c.yaml"
    p.write_text(line)
    rc = main(["run", str(p), "--out", str(tmp_path / "x"), "--jobs", "1"])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_a_run_at_the_bandwidth_ceiling_writes_only_finite_numbers(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text(f"capacity_mbps: {MAX_MBPS}\niptv_channel_max_bw_mbps: {MAX_MBPS}\n"
                 f"iptv_channel_min_bw_mbps: {MAX_MBPS / 2}\n"
                 f"iptv_reservation_cap_mbps: {MAX_MBPS}\nnon_iptv_call_bw_mbps: {MAX_MBPS}\n"
                 + SHORT)
    assert main(["run", str(p), "--out", str(tmp_path / "x"), "--jobs", "1"]) == 0
    for name in ("steps_nonsla.csv", "steps_sla.csv", "summary.csv"):
        with open(tmp_path / "x" / name, newline="") as f:
            rows = list(csv.reader(f))[1:]
        values = [float(v) for row in rows for v in row if v not in ("sla", "nonsla")]
        assert values and all(map(math.isfinite, values)), name


@pytest.mark.parametrize("command,out", [
    (["run", "table1"], "afile"),
    (["sweep", "table1", "--figure", "fig3"], "afile/sub"),
], ids=["run", "sweep"])
def test_unusable_out_exits_2_before_any_replication(tmp_path, capsys, monkeypatch,
                                                     command, out):
    def no_run(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(engine, "paired_means", no_run)
    monkeypatch.setattr(engine, "run_paired", no_run)
    (tmp_path / "afile").write_text("a regular file\n")
    rc = main([*command, "--out", str(tmp_path / out), "--jobs", "2"])
    assert rc == 2
    assert f"--out {tmp_path / out}" in capsys.readouterr().err


@pytest.mark.parametrize("command,written", [
    (["run"], "summary.csv"),
    (["sweep", "--figure", "fig3"], "sweep_fig3.csv"),
], ids=["run", "sweep"])
def test_unwritable_output_exits_2_and_leaves_no_temp_file(tmp_path, capsys, command, written):
    p = tmp_path / "c.yaml"
    p.write_text("sim_duration_min: 30\nwarmup_min: 10\nreplications: 1\n")
    out = tmp_path / "out"
    (out / written).mkdir(parents=True)        # an output that cannot be replaced
    rc = main([command[0], str(p), *command[1:], "--out", str(out), "--jobs", "1"])
    assert rc == 2
    assert f"cannot write outputs to --out {out}" in capsys.readouterr().err
    assert not list(out.glob("*.tmp"))


@pytest.mark.parametrize("command,taken", [
    (["run"], "summary.csv"),
    (["sweep", "--figure", "fig5"], "sweep_fig5.csv"),
    (["run"], "summary.csv.tmp"),            # the temporary name an output is written to
    (["run"], "steps_sla.csv.tmp"),
    (["sweep", "--figure", "fig5"], "sweep_fig5.csv.tmp"),
], ids=["run", "sweep", "run-tmp", "run-steps-tmp", "sweep-tmp"])
def test_an_output_name_taken_by_a_directory_exits_2_before_any_replication(
        tiny_file, tmp_path, capsys, monkeypatch, command, taken):
    played = []
    run_trace = engine.run_trace

    def recording_run_trace(*args):
        played.append(args[1])
        return run_trace(*args)

    monkeypatch.setattr(engine, "run_trace", recording_run_trace)
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    rc = main([command[0], str(tiny_file), *command[1:], "--out", str(out), "--jobs", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot write outputs to --out {out}: {taken} is a directory" in captured.err
    assert [p.name for p in out.iterdir()] == [taken]  # nothing was written
    assert played == []


def test_a_preset_run_never_imports_pyyaml():
    # only a config file is YAML; PyYAML is a fifth of the CLI's import time
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, bwbroker.cli; sys.exit('yaml' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_a_write_that_fails_is_a_config_error_and_keeps_what_was_at_the_temp_name(tmp_path):
    # a failure only the write finds: a directory at the temporary name
    (tmp_path / "summary.csv.tmp" / "kept").mkdir(parents=True)
    with pytest.raises(ConfigError) as exc:
        cli._write_csv_atomic(tmp_path / "summary.csv", SUMMARY_CSV_HEADER, "")
    assert str(exc.value).startswith(f"cannot write outputs to --out {tmp_path}: ")
    assert (tmp_path / "summary.csv.tmp" / "kept").is_dir()
    assert not (tmp_path / "summary.csv").exists()


def test_runtime_error_without_a_message_names_its_type(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "run_policies", out_of_memory)
    rc = main(["run", "table1", "--out", str(tmp_path), "--jobs", "1"])
    assert rc == 3
    assert capsys.readouterr().err == "runtime error: MemoryError\n"


@pytest.mark.parametrize("field,departure", [
    ("iptv_viewer_mean_hold_min", EventKind.VIEWER_DEPART),
    ("non_iptv_mean_hold_min", EventKind.NON_IPTV_DEPART),
])
def test_holds_that_outlast_the_run_are_never_emitted(tmp_path, field, departure):
    # most holds drawn at this mean overflow to inf minutes
    p = tmp_path / "c.yaml"
    p.write_text(f"{field}: 1.0e308\nsim_duration_min: 30\nwarmup_min: 10\nreplications: 1\n")
    assert main(["run", str(p), "--out", str(tmp_path / "x"), "--jobs", "1"]) == 0
    kinds = [ev.kind for events in build_trace(load_config(str(p)), 42) for ev in events]
    assert kinds and departure not in kinds


# SHA-256 of the stdout and outputs of a run that blocks, drops and borrows:
# 101 blocks and 40 drops under nonsla, 216 borrowing steps under sla.  Any
# change to a draw, a rule or a number format shows up here.
HEAVY_DIGESTS = {
    "stdout": "ebec30a3c20f518a1b9ba50ffb6ba0334fb70d2e56c93a6eef17cdbda4993d22",
    "steps_sla.csv": "9d3ad60b0ff645b262821a6f36f52bea1151d07435d26b995ddfb9c504af47d1",
    "steps_nonsla.csv": "ecd4827e6fca991c38f05888c071bf598e8fa5275e301656ac85ac60153e0092",
    "summary.csv": "f6f319c05ddf5c0935a8a0a93e9e4a3be9d97a0f9b03ca3cff37579c24b796c7",
}


# at --jobs 2 each pool worker reduces and formats the replications it plays
@pytest.mark.parametrize("jobs", ["1", "2"], ids=["jobs1", "jobs2"])
def test_run_outputs_match_pinned_digests(tmp_path, capsys, jobs):
    p = tmp_path / "heavy.yaml"
    p.write_text("sim_duration_min: 120\nwarmup_min: 60\nreplications: 2\n"
                 "non_iptv_arrival_rate_per_min: 4.5\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["run", str(p), "--out", str(out), "--seed", "7", "--jobs", jobs]) == 0
    digests = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    digests.update((name, hashlib.sha256((out / name).read_bytes()).hexdigest())
                   for name in HEAVY_DIGESTS if name != "stdout")
    assert digests == HEAVY_DIGESTS


# SHA-256 of the stdout and the CSV of each preset sweep on a short scenario,
# seed 7: any change to a point's config, its seeds, a rule or a number format
# shows up here.
SWEEP_DIGESTS = {
    "fig3": ("942092bdee18cf16edcb196ee9b0365eb0bdf12da0807855cae91b5280f70fea",
             "ff26cee4868fd72bd52b77b67385241e21d1682494cc03756727a50751f5c6e7"),
    "fig5": ("75c1c30290b3daea803d400b6aa12c42b8ed7e31f2fd8f716f5a759cbbc602a0",
             "e82aefaa53c84b98b4d8e496a60caf235b36e53954a83f5607549d0964acc097"),
}


# at --jobs 2 the pool runs the tasks seed by seed, each worker with its own side caches
@pytest.mark.parametrize("figure,jobs", [
    ("fig3", "1"), ("fig5", "1"), ("fig3", "2"), ("fig5", "2"),
], ids=["fig3", "fig5", "fig3-jobs2", "fig5-jobs2"])
def test_sweep_outputs_match_pinned_digests(tmp_path, capsys, figure, jobs):
    p = tmp_path / "tiny.yaml"
    p.write_text("sim_duration_min: 120\nwarmup_min: 60\nreplications: 2\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["sweep", str(p), "--figure", figure, "--out", str(out),
                 "--seed", "7", "--jobs", jobs]) == 0
    printed = capsys.readouterr().out
    csv_bytes = (out / f"sweep_{figure}.csv").read_bytes()
    assert (hashlib.sha256(printed.encode()).hexdigest(),
            hashlib.sha256(csv_bytes).hexdigest()) == SWEEP_DIGESTS[figure]
