"""Step composition, paired runs, sweeps and reproducibility."""

import csv
import io
import multiprocessing
import os
import pickle
from dataclasses import replace

import pytest

from bwbroker import engine, traffic
from bwbroker.allocation import PolicyKind
from bwbroker.broker import DemandHistory
from bwbroker.engine import (
    FIG3_LOAD_FRACTIONS,
    FIG5_CHANNEL_TARGETS,
    Sweep,
    fig3_sweep,
    fig5_sweep,
    paired_means,
    paired_steps,
    replication_seed,
    run_experiment,
    run_paired,
    run_policies,
    run_trace,
    with_offered_load,
)
from bwbroker.metrics import aggregate, replication_means
from bwbroker.model import ConfigError
from bwbroker.traffic import VIEWER_ARRIVE, VIEWER_DEPART, RngStream, Trace, TrafficEvent
from bwbroker.traffic import build_trace, call_side, live_call_series, viewer_side
from free_play import on_air_series
from test_metrics import written_rows


def _viewer_sweep(config, rates):
    """A sweep of the viewer arrival rate over the given values."""
    return Sweep("iptv_viewer_rate", tuple(
        (r, replace(config, iptv_viewer_arrival_rate_per_min=r)) for r in rates))


def _viewers(kind, n):
    """Viewers 0 to n - 1, viewer k on channel k + 1."""
    return tuple(TrafficEvent(kind, k + 1, k) for k in range(n))


def _trace(*steps):
    """A hand-made trace; each step is (viewers departing, calls arriving, viewers arriving)."""
    leaving = tuple(_viewers(VIEWER_DEPART, out) for out, _, _ in steps)
    joining = tuple(_viewers(VIEWER_ARRIVE, into) for _, _, into in steps)
    calls_in, calls_out = tuple(calls for _, calls, _ in steps), (0,) * len(steps)
    return Trace((leaving, joining, on_air_series(leaving, joining)),
                 (calls_out, calls_in, live_call_series(calls_out, calls_in)))


def test_idle_step(cfg):
    records = run_trace(cfg, PolicyKind.SLA, _trace((0, 0, 0), (0, 0, 10), (0, 0, 0)))
    r = records[0]
    assert r.satisfaction == 1.0
    assert r.utilization == 0.0
    assert r.reserved_mbps == 0.0
    assert r.active_channels == 0
    assert r.t_min == 0.0
    # one sample of no channels was recorded: it halves the next mean
    assert records[1].reserved_mbps == 0.0
    assert records[2].reserved_mbps == 10.0


def test_step_equal_degradation(cfg):
    (r,) = run_trace(cfg, PolicyKind.NON_SLA, _trace((0, 30, 20)))
    assert r.per_channel_bw_mbps == pytest.approx(12 / 7, rel=1e-12)
    assert r.satisfaction == pytest.approx(6 / 7, rel=1e-12)
    assert r.utilization == pytest.approx(1.0, abs=1e-12)
    assert r.reserved_mbps == 0.0
    assert written_rows([r], cfg)[0]["B_B"] == 0.0
    assert r.active_channels == 20
    assert r.blocks == 0 and r.drops == 0
    # the step's 20 channels are the history's sample; the SLA run reserves on it
    sla = run_trace(cfg, PolicyKind.SLA, _trace((0, 30, 20), (0, 0, 0)))
    assert sla[1].reserved_mbps == 40.0


def test_step_reservation_shields_channels(cfg):
    # a first step of 20 channels fills the history; in the second they go
    # off air and come back into a step with 30 calls
    records = run_trace(cfg, PolicyKind.SLA, _trace((0, 0, 20), (20, 30, 20)))
    r = records[1]
    assert r.reserved_mbps == 40.0
    assert r.per_channel_bw_mbps == 2.0
    assert r.satisfaction == 1.0
    assert written_rows(records, cfg)[1]["B_B"] == 10.0
    assert r.utilization == pytest.approx(1.0, abs=1e-12)


def test_step_times_do_not_drift(short_cfg):
    # adding 0.1 ten times gives 0.9999999999999999; step * dt gives 1.0
    fine = replace(short_cfg, sample_interval_min=0.1, history_window_min=6.0,
                   sim_duration_min=12.0, warmup_min=6.0)
    records = run_trace(fine, PolicyKind.SLA, build_trace(fine, 7))
    assert len(records) == 120
    assert [r.t_min for r in records] == [i * 0.1 for i in range(120)]


def test_a_policy_builds_its_cell_only_at_its_first_block_or_drop(short_cfg, monkeypatch):
    built = []  # the number of steps of each cell built

    def counted_cell(trace, steps):
        built.append(steps)
        return admitted_cell(trace, steps)

    admitted_cell = engine._admitted_cell
    monkeypatch.setattr(engine, "_admitted_cell", counted_cell)
    heavy = replace(short_cfg, non_iptv_arrival_rate_per_min=4.5)
    trace = build_trace(heavy, 6)    # both policies block or drop, sla first
    for kind in PolicyKind:
        built.clear()
        records = run_trace(heavy, kind, trace)
        first = next(i for i, r in enumerate(records) if r.blocks or r.drops)
        assert built == [first], kind
        # until then the policy's records are those of the cell that admitted everyone
        assert [r.active_channels for r in records[:first]] == list(trace.on_air[:first])
    built.clear()
    light = replace(short_cfg, iptv_viewer_arrival_rate_per_min=0.5,
                    non_iptv_arrival_rate_per_min=0.3)
    for kind in PolicyKind:
        records = run_trace(light, kind, build_trace(light, 11))
        assert not any(r.blocks or r.drops for r in records)
    assert built == []


def test_replication_is_reproducible(short_cfg):
    a = run_trace(short_cfg, PolicyKind.SLA, build_trace(short_cfg, 7))
    b = run_trace(short_cfg, PolicyKind.SLA, build_trace(short_cfg, 7))
    assert a == b
    assert len(a) == short_cfg.n_steps


def test_short_run_summary_is_frozen(short_cfg):
    out = run_policies(short_cfg)
    non = out[PolicyKind.NON_SLA].summary
    sla = out[PolicyKind.SLA].summary
    assert non.mean_satisfaction == pytest.approx(0.8605194879523371, rel=1e-12)
    assert non.mean_utilization == pytest.approx(0.9884722222222222, rel=1e-12)
    assert non.mean_active_channels == pytest.approx(19.666666666666664, rel=1e-12)
    assert sla.mean_satisfaction == pytest.approx(0.9641162923228139, rel=1e-12)
    assert sla.se_satisfaction == pytest.approx(0.01761091766526551, rel=1e-9)
    assert sla.mean_utilization == non.mean_utilization
    assert non.replications == 2


def test_light_load_policies_agree_step_by_step(short_cfg):
    light = replace(short_cfg, iptv_viewer_arrival_rate_per_min=0.5,
                    non_iptv_arrival_rate_per_min=0.3)
    trace = build_trace(light, 11)
    sla = run_trace(light, PolicyKind.SLA, trace)
    non = run_trace(light, PolicyKind.NON_SLA, trace)
    for a, b in zip(sla, non):
        assert a.satisfaction == b.satisfaction
        assert a.utilization == b.utilization
        assert a.active_channels == b.active_channels


def test_reservation_wins_under_pressure(short_cfg):
    heavy = replace(short_cfg, non_iptv_arrival_rate_per_min=4.5)
    for r in range(3):
        out = run_paired(heavy, replication_seed(heavy.base_seed, r))
        sla = aggregate([out[PolicyKind.SLA]], heavy.warmup_min)
        non = aggregate([out[PolicyKind.NON_SLA]], heavy.warmup_min)
        assert sla.mean_satisfaction > non.mean_satisfaction


def test_step_records_respect_capacity_and_floors(short_cfg):
    heavy = replace(short_cfg, non_iptv_arrival_rate_per_min=4.5)
    saw_drops = False
    for kind in PolicyKind:
        records = run_trace(heavy, kind, build_trace(heavy, 3))
        for r, row in zip(records, written_rows(records, heavy)):
            assert r.utilization <= 1.0 + 1e-9
            assert r.per_channel_bw_mbps <= heavy.iptv_channel_max_bw_mbps + 1e-9
            survivors = r.active_channels - r.drops
            if survivors > 0:
                assert r.per_channel_bw_mbps >= heavy.iptv_channel_min_bw_mbps - 1e-9
            assert 0.0 <= r.reserved_mbps <= heavy.iptv_reservation_cap_mbps + 1e-9
            assert row["B_B"] == pytest.approx(max(0.0, row["B_R"] - row["B_A"]), abs=1e-9)
            saw_drops = saw_drops or r.drops > 0
    assert saw_drops     # the surge has to actually exercise the shed path


def test_parallel_execution_matches_serial(short_cfg):
    assert run_policies(short_cfg, jobs=2) == run_policies(short_cfg, jobs=1)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: notes each pool made and the chunk size of
    each map, runs its tasks in this process."""

    def __init__(self, made, chunks, max_workers):
        made.append(max_workers)
        self.chunks = chunks

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *arg_lists, chunksize=1):
        self.chunks.append(chunksize)
        return map(fn, *arg_lists)


@pytest.fixture
def pool_log(monkeypatch):
    """The max_workers of every pool the engine makes, and the chunksize of every
    map on one; no process is started."""
    made, chunks = [], []
    monkeypatch.setattr(engine, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(made, chunks, max_workers))
    return made, chunks


@pytest.fixture
def pools(pool_log):
    """The max_workers of every pool the engine makes; no process is started."""
    return pool_log[0]


def test_pool_is_capped_at_the_replication_count(short_cfg, pools):
    run_policies(short_cfg, jobs=64)
    assert pools == [short_cfg.replications]


def test_sweep_starts_one_pool_for_all_replications(short_cfg, pools):
    sweep = _viewer_sweep(short_cfg, (0.8, 2.0, 3.0))
    run_experiment(sweep, jobs=64)
    assert pools == [3 * short_cfg.replications]
    pools.clear()
    run_experiment(sweep, jobs=4)
    assert pools == [4]


def test_sweep_worker_takes_a_seeds_points_unless_a_worker_would_idle(short_cfg, pool_log):
    made, chunks = pool_log
    sweep = _viewer_sweep(short_cfg, (0.8, 2.0, 3.0))   # 2 seeds of 3 points
    run_experiment(sweep, jobs=2)
    assert (made, chunks) == ([2], [3])
    run_experiment(sweep, jobs=4)    # 6 tasks: chunks of 2 would leave a worker idle
    run_experiment(_viewer_sweep(replace(short_cfg, replications=1), (0.8, 2.0, 3.0)), jobs=2)
    assert (made, chunks) == ([2, 4, 2], [3, 1, 1])
    run_policies(short_cfg, jobs=2)  # a run keeps one replication a task
    assert chunks[-1] == 1


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the counting stream reaches the pool workers by fork")
def test_parallel_sweep_builds_a_viewer_side_once_per_seed(short_cfg, monkeypatch, tmp_path):
    # each forked worker notes the streams it draws in one file opened for appending
    fd = os.open(tmp_path / "streams", os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def counted_stream(seed, stream_id):
        os.write(fd, b"%d" % stream_id)
        return RngStream(seed, stream_id)

    monkeypatch.setattr(traffic, "RngStream", counted_stream)
    viewer_side.cache_clear()
    call_side.cache_clear()
    cfg = replace(short_cfg, replications=4)
    field = "non_iptv_arrival_rate_per_min"     # fig3's shape: one viewer side a seed
    sweep = Sweep(field, tuple((v, replace(cfg, **{field: v})) for v in (0.8, 2.0, 3.0)))
    try:
        run_experiment(sweep, jobs=2)
    finally:
        os.close(fd)
    streams = (tmp_path / "streams").read_bytes()
    assert streams.count(b"0") == cfg.replications
    assert streams.count(b"1") == 3 * cfg.replications


def test_invalid_sweep_point_fails_before_any_pool(short_cfg, pools):
    with pytest.raises(ConfigError, match="capacity_mbps"):
        below_cap = replace(short_cfg, capacity_mbps=30.0)    # under the 40 reservation cap
        run_experiment(Sweep("capacity_mbps", ((60.0, short_cfg), (30.0, below_cap))), jobs=4)
    assert pools == []


@pytest.mark.parametrize("field,viewer_builds,call_builds", [
    ("non_iptv_arrival_rate_per_min", 1, 3),      # fig3's shape: one viewer side a seed
    ("iptv_viewer_arrival_rate_per_min", 3, 1),   # fig5's shape: one call side a seed
])
def test_sweep_builds_a_shared_side_once_per_seed(short_cfg, monkeypatch, field,
                                                  viewer_builds, call_builds):
    drawn = []  # per side built: its stream, and how many viewer sides were then cached

    def counted_stream(seed, stream_id):
        drawn.append((stream_id, viewer_side.cache_info().currsize))
        return RngStream(seed, stream_id)

    monkeypatch.setattr(traffic, "RngStream", counted_stream)
    viewer_side.cache_clear()
    call_side.cache_clear()
    sweep = Sweep(field, tuple((v, replace(short_cfg, **{field: v})) for v in (0.8, 2.0, 3.0)))
    run_experiment(sweep, jobs=1)
    seeds = short_cfg.replications
    assert [s for s, _ in drawn].count(0) == viewer_builds * seeds
    assert [s for s, _ in drawn].count(1) == call_builds * seeds
    # a new viewer side is drawn only once the old one is dropped
    assert all(cached == 0 for s, cached in drawn if s == 0)


def test_only_runs_are_bounded_by_the_step_record_ceiling(short_cfg, monkeypatch):
    # short_cfg's run keeps 2 replications * 120 steps * 2 policies = 480 records
    monkeypatch.setattr(engine, "MAX_STEP_RECORDS", 479)
    with pytest.raises(ConfigError, match="480 step records"):
        run_policies(short_cfg)
    assert len(run_policies(short_cfg, policies=(PolicyKind.SLA,))[PolicyKind.SLA].steps_csv) == 2
    # a sweep keeps only each replication's means, so nothing bounds its records
    assert len(run_experiment(_viewer_sweep(short_cfg, (0.8,)))) == 2


def test_parallel_sweep_matches_serial(short_cfg):
    sweep = _viewer_sweep(short_cfg, (0.8, 3.0))
    assert run_experiment(sweep, jobs=2) == run_experiment(sweep, jobs=1)


def test_sweep_worker_returns_only_the_means(short_cfg):
    means = paired_means(short_cfg, 7)
    by_policy = run_paired(short_cfg, 7)
    assert means == [replication_means(by_policy[p], short_cfg.warmup_min) for p in PolicyKind]
    assert len(pickle.dumps(means)) < 1024


class _GlobalsSeen(pickle.Unpickler):
    """Unpickles, noting every class or function the pickle names."""

    def __init__(self, data):
        super().__init__(io.BytesIO(data))
        self.seen = set()

    def find_class(self, module, name):
        self.seen.add(f"{module}.{name}")
        return super().find_class(module, name)


def test_run_worker_returns_no_step_record(short_cfg):
    loader = _GlobalsSeen(pickle.dumps(paired_steps(short_cfg, 1, tuple(PolicyKind))))
    result = loader.load()
    assert loader.seen == {"bwbroker.metrics.ReplicationMeans"}
    assert [type(text) for _, text in result] == [str, str]


def _csv_writer_text(replication, records, config):
    """The steps-CSV rows of records as csv.writer writes them, each derived column
    stated afresh: the full rate a channel on air, the leftover, the borrowing."""
    full, capacity = config.iptv_channel_max_bw_mbps, config.capacity_mbps
    rows = []
    for r in records:
        available = max(0.0, capacity - r.non_iptv_demand_mbps)
        rows.append((replication, r.t_min, r.non_iptv_demand_mbps, full * r.active_channels,
                     available, r.reserved_mbps, max(0.0, r.reserved_mbps - available),
                     r.active_channels, r.per_channel_bw_mbps, r.satisfaction, r.utilization,
                     r.blocks, r.drops))
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


def test_run_worker_formats_and_reduces_the_records_of_run_paired(short_cfg):
    by_policy = run_paired(short_cfg, replication_seed(short_cfg.base_seed, 1))
    task = paired_steps(short_cfg, 1, tuple(PolicyKind))
    assert task == [(replication_means(records, short_cfg.warmup_min),
                     _csv_writer_text(1, records, short_cfg)) for records in by_policy.values()]


def test_run_policies_matches_aggregate_over_run_paired(short_cfg):
    out = run_policies(short_cfg)
    reps = range(short_cfg.replications)
    paired = [run_paired(short_cfg, replication_seed(short_cfg.base_seed, r)) for r in reps]
    for policy in PolicyKind:
        records = [by_policy[policy] for by_policy in paired]
        assert out[policy].summary == aggregate(records, short_cfg.warmup_min)
        assert out[policy].steps_csv == tuple(
            _csv_writer_text(rep, rep_records, short_cfg) for rep, rep_records in zip(reps, records))


def test_only_the_sla_run_keeps_a_broker_history(short_cfg, monkeypatch):
    built = []

    class CountedHistory(DemandHistory):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(engine, "DemandHistory", CountedHistory)
    for policies, builds in (((PolicyKind.NON_SLA,), 0), ((PolicyKind.SLA,), 1),
                             (tuple(PolicyKind), 1)):
        built.clear()
        run_paired(short_cfg, 7, policies)
        assert len(built) == builds, policies


def test_replication_seeds_are_consecutive():
    assert replication_seed(42, 0) == 42
    assert replication_seed(42, 3) == 45


def test_sweep_axis_mapping(cfg):
    c = with_offered_load(cfg, 30.0)
    assert c.non_iptv_arrival_rate_per_min == pytest.approx(1.5)
    assert c == replace(cfg, non_iptv_arrival_rate_per_min=c.non_iptv_arrival_rate_per_min)
    for value, c in fig3_sweep(cfg).points:
        assert c == with_offered_load(c, value)
    for value, c in fig5_sweep(cfg).points:
        assert c.iptv_viewer_arrival_rate_per_min == value


def test_experiment_matches_manual_loop(short_cfg):
    sweep = _viewer_sweep(short_cfg, (0.8, 3.0))
    points = run_experiment(sweep)
    assert len(points) == 4
    configs = dict(sweep.points)
    for p in points:
        c = configs[p.sweep_value]
        manual = run_policies(c)[p.policy].summary
        assert p.summary == manual


def test_sweep_over_a_field_no_preset_sweeps(short_cfg):
    caps = (45.0, 90.0)
    sweep = Sweep("capacity_mbps", tuple((c, replace(short_cfg, capacity_mbps=c)) for c in caps))
    points = run_experiment(sweep)
    assert [(p.sweep_value, p.policy) for p in points] == [
        (c, policy) for c in caps for policy in PolicyKind]
    for p in points:
        c = replace(short_cfg, capacity_mbps=p.sweep_value)
        assert p.summary == run_policies(c)[p.policy].summary
    non = {p.sweep_value: p.summary for p in points if p.policy is PolicyKind.NON_SLA}
    assert non[90.0].mean_satisfaction > non[45.0].mean_satisfaction


def test_fig3_preset_covers_load_grid(cfg):
    sweep = fig3_sweep(cfg)
    values = tuple(v for v, _ in sweep.points)
    assert sweep.axis == "non_iptv_offered_load"
    assert values == tuple(f * 60.0 for f in FIG3_LOAD_FRACTIONS)
    assert values[0] == pytest.approx(12.0)
    assert values[-1] == pytest.approx(90.0)
    for _, tuned in sweep.points:
        assert tuned.iptv_viewer_arrival_rate_per_min == pytest.approx(
            3.136403459012432, rel=1e-9)


def test_fig5_preset_targets_channel_counts(cfg):
    sweep = fig5_sweep(cfg)
    values = tuple(v for v, _ in sweep.points)
    assert sweep.axis == "iptv_viewer_rate"
    assert len(values) == len(FIG5_CHANNEL_TARGETS)
    for _, base in sweep.points:
        assert base.non_iptv_arrival_rate_per_min == pytest.approx(1.5)
    assert values[0] == pytest.approx(0.520505702766485, rel=1e-9)
    assert values[-1] == pytest.approx(16.283600017485785, rel=1e-9)
