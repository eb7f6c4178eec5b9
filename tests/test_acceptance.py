"""End-to-end acceptance checks.

One test per criterion, each printing a single ACCEPTANCE line with the
measured numbers, so a verbose run doubles as a checklist.  Closed-form
relations must agree with independent reference implementations to 1e-9;
curve-level comparisons of replication means carry a +/-0.05 band, except
against the time-exact non-SLA oracle, which they must meet within 4 SEs.
"""

import hashlib
import math
import operator
import os
import random
import time
from collections import Counter
from dataclasses import astuple, replace
from statistics import fmean, stdev

import pytest

from bwbroker.allocation import PolicyKind, allocate_non_sla, allocate_sla
from bwbroker.broker import compute_reservation, demand_sums
from bwbroker.cli import main
from bwbroker.engine import fig3_sweep, fig5_sweep, paired_means, replication_seed, run_experiment
from bwbroker.metrics import step_satisfaction
from bwbroker.model import AllocationDecision, table1
from bwbroker.traffic import (
    EventKind,
    RngStream,
    build_trace,
    channel_probabilities,
    poisson_counter,
)
from test_metrics import leftover_and_borrowing

EQ_TOL = 1e-9     # closed-form agreement
SL_TOL = 0.05     # band on comparisons of replication means


def _by_policy(points):
    out = {PolicyKind.SLA: {}, PolicyKind.NON_SLA: {}}
    for p in points:
        out[p.policy][p.sweep_value] = p.summary
    return out


@pytest.fixture(scope="module")
def load_sweep():
    """Full non-IPTV load sweep at a mean of 20 on-air channels."""
    sweep = fig3_sweep(table1())
    points = run_experiment(sweep, jobs=len(os.sched_getaffinity(0)))
    return sweep, _by_policy(points)


@pytest.fixture(scope="module")
def channel_sweep():
    """Viewer-rate sweep pushing the mean channel count toward the catalog."""
    sweep = fig5_sweep(table1())
    points = run_experiment(sweep, jobs=len(os.sched_getaffinity(0)))
    return sweep, _by_policy(points)


# --- reference implementations, derived independently of the package code ---

def _ref_satisfaction(available, demand):
    if demand <= EQ_TOL:
        return 1.0
    if available + EQ_TOL >= demand:
        return 1.0
    return available / demand


def _ref_non_sla(n, b_i, cfg):
    """Closed-form survivor count instead of the iterative shed."""
    cap, full, floor = (cfg.capacity_mbps, cfg.iptv_channel_max_bw_mbps,
                        cfg.iptv_channel_min_bw_mbps)
    # per(k) = full * cap / (full*k + b_i) >= floor  <=>  k <= (cap*full/floor - b_i)/full
    k_max = math.floor((cap * full / floor - b_i) / full + 1e-12)
    k = min(n, max(0, k_max))
    total = full * k + b_i
    if total <= cap + EQ_TOL:
        return k, (full if k else 0.0), b_i
    return k, (cap / total * full if k else 0.0), cap / total * b_i


def _ref_sla(n, b_i, reserved, cfg):
    cap, full, floor = (cfg.capacity_mbps, cfg.iptv_channel_max_bw_mbps,
                        cfg.iptv_channel_min_bw_mbps)
    leftover = max(0.0, cap - b_i)
    budget = min(cap, max(leftover, reserved))
    # min(full, budget/k) >= floor  <=>  k <= budget/floor
    k = min(n, max(0, math.floor(budget / floor + 1e-12)))
    per = min(full, budget / k) if k else 0.0
    grant = min(b_i, max(0.0, cap - per * k))
    borrowed = max(0.0, reserved - leftover)
    return k, per, grant, borrowed


def _state_with(n):
    """On-air map of n single-viewer channels, ids 1..n."""
    return {i + 1: {i} for i in range(n)}


def test_criterion_equations_match_reference_oracles():
    cfg = table1()
    rng = random.Random(123456)
    cases = 10_000
    worst = 0.0
    # each step as (B_I, B_R) and the B_A and B_B that the closed forms give it
    steps = []
    t0 = time.perf_counter()
    for _ in range(cases):
        d = rng.uniform(0.0, 150.0)
        r = rng.uniform(0.0, 60.0)
        leftover = max(0.0, cfg.capacity_mbps - d)
        steps.append((d, r, leftover, max(0.0, r - leftover)))

        avail = rng.uniform(0.0, 100.0)
        dem = rng.uniform(0.0, 100.0)
        delivers_avail = AllocationDecision(avail, 0.0, 1)
        worst = max(worst, abs(step_satisfaction(delivers_avail, dem)
                               - _ref_satisfaction(avail, dem)))

        full = cfg.iptv_channel_max_bw_mbps
        counts = [rng.randint(0, 40) for _ in range(rng.randint(1, 60))]
        res_cap = rng.uniform(2.0, 40.0)
        got = compute_reservation(demand_sums(counts), len(counts), 60, full, res_cap)
        worst = max(worst, abs(got - min(fmean(full * k for k in counts), res_cap)))

        n = rng.randint(0, 50)
        b_i = rng.uniform(0.0, 120.0)
        got = allocate_non_sla(_state_with(n), b_i, 0.0, cfg)
        k, per, grant = _ref_non_sla(n, b_i, cfg)
        assert got.num_active_channels == k
        worst = max(worst, abs(got.per_channel_bw_mbps - per),
                    abs(got.non_iptv_grant_mbps - grant))

        reserved = rng.uniform(0.0, 60.0)
        got = allocate_sla(_state_with(n), b_i, reserved, cfg)
        k, per, grant, borrowed = _ref_sla(n, b_i, reserved, cfg)
        assert got.num_active_channels == k
        worst = max(worst, abs(got.per_channel_bw_mbps - per),
                    abs(got.non_iptv_grant_mbps - grant))
        steps.append((b_i, reserved, max(0.0, cfg.capacity_mbps - b_i), borrowed))
    written = leftover_and_borrowing([(b_i, r) for b_i, r, _, _ in steps], cfg)
    for (_, _, leftover, borrowed), (got_leftover, got_borrowed) in zip(steps, written):
        worst = max(worst, abs(got_leftover - leftover), abs(got_borrowed - borrowed))
    elapsed = time.perf_counter() - t0
    ok = worst <= EQ_TOL and elapsed < 10.0
    print(f"ACCEPTANCE closed-form-relations: {'PASS' if ok else 'FAIL'} "
          f"({cases} random cases, max|err|={worst:.2e}, {elapsed:.1f}s)")
    assert worst <= EQ_TOL
    assert elapsed < 10.0


def test_criterion_satisfaction_curves_separate_policies(load_sweep):
    sweep, by_policy = load_sweep
    sla, non = by_policy[PolicyKind.SLA], by_policy[PolicyKind.NON_SLA]
    sla_min = min(s.mean_satisfaction for s in sla.values())
    top = max(v for v, _ in sweep.points)
    non_top = non[top].mean_satisfaction
    gap = sla[top].mean_satisfaction - non_top
    ok = (sla_min >= 0.95 - SL_TOL and non_top <= 0.75 + SL_TOL
          and gap >= 0.20 - SL_TOL)
    print(f"ACCEPTANCE satisfaction-curves: {'PASS' if ok else 'FAIL'} "
          f"(min SLA SL={sla_min:.4f} vs floor 0.90, "
          f"top-load non-SLA SL={non_top:.4f} vs cap 0.80, gap={gap:.4f} vs 0.15)")
    assert sla_min >= 0.95 - SL_TOL
    assert non_top <= 0.75 + SL_TOL
    assert gap >= 0.20 - SL_TOL


def test_light_load_sla_trails_equal_degradation_by_paired_ses():
    # at fig3's lightest load the reservation sits below the leftover, and on the
    # steps where the channels alone overflow the cell, equal degradation gives
    # IPTV more than the leftover split n ways (test_allocation pins the ratio)
    value, cfg = fig3_sweep(table1()).points[0]
    assert value == pytest.approx(12.0)
    diffs = []
    for r in range(cfg.replications):
        by_policy = dict(zip(PolicyKind, paired_means(cfg, replication_seed(cfg.base_seed, r))))
        diffs.append(by_policy[PolicyKind.SLA].satisfaction
                     - by_policy[PolicyKind.NON_SLA].satisfaction)
    gap, paired_se = fmean(diffs), stdev(diffs) / math.sqrt(len(diffs))
    ok = gap < -3 * paired_se
    print(f"ACCEPTANCE light-load-deficit: {'PASS' if ok else 'FAIL'} "
          f"(SLA - non-SLA mean SL={gap:.5f}, paired SE={paired_se:.5f}, "
          f"{gap / paired_se:.1f} SEs vs -3)")
    assert ok


def test_criterion_utilization_parity(load_sweep):
    sweep, by_policy = load_sweep
    sla, non = by_policy[PolicyKind.SLA], by_policy[PolicyKind.NON_SLA]
    worst = max(abs(sla[v].mean_utilization - non[v].mean_utilization)
                for v, _ in sweep.points)
    ok = worst <= SL_TOL
    print(f"ACCEPTANCE utilization-parity: {'PASS' if ok else 'FAIL'} "
          f"(max |util gap|={worst:.4f} vs 0.05)")
    assert worst <= SL_TOL


def test_criterion_satisfaction_tracks_channel_count(channel_sweep):
    sweep, by_policy = channel_sweep
    base = sweep.points[0][1]    # the points differ only in the viewer rate
    full = base.iptv_channel_max_bw_mbps
    cap = base.iptv_reservation_cap_mbps
    knee = cap / full    # channel count at which the reservation saturates
    details = []
    failing = []
    for v, _ in sweep.points:
        s = by_policy[PolicyKind.SLA][v]
        n_bar = s.mean_active_channels
        curve = min(1.0, cap / (full * n_bar))
        diff = abs(s.mean_satisfaction - curve)
        if n_bar <= knee + 0.5:
            # left of the knee the windowed-mean reservation sits under the
            # demand peaks, so satisfaction hovers a few points below 1;
            # hold these points to the same 0.90 floor as the load sweep
            point_ok = s.mean_satisfaction >= 0.95 - SL_TOL
        else:
            point_ok = diff <= SL_TOL
        details.append(f"N={n_bar:.1f}:SL={s.mean_satisfaction:.3f}"
                       f"(curve {curve:.3f}, diff {diff:.3f})")
        if not point_ok:
            failing.append(details[-1])
    print(f"ACCEPTANCE satisfaction-vs-channels: {'PASS' if not failing else 'FAIL'} "
          f"({'; '.join(details)})")
    assert not failing, "; ".join(failing)


PRUNE = 1e-13     # probabilities below this are left out of the oracle's sums


def _live_mean(rate, hold, dt, step):
    """Mean arrivals of a rate still live after step, from an empty cell.

    An arrival of step s lasts ceil(hold draw / dt) steps, at least one, so it
    is still live after step t with probability q^(t - s), q = exp(-dt / hold);
    step None gives the stationary mean.
    """
    q = math.exp(-dt / hold)
    return rate * dt * (1.0 if step is None else 1.0 - q ** (step + 1)) / (1.0 - q)


def _support(mean):
    """The counts a Poisson pmf of this mean is summed over: an explicit bound far
    past any count of probability PRUNE."""
    return range(int(mean + 12 * math.sqrt(mean) + 30) + 1)


def _poisson_pmf(mean):
    """(first count, pmf from it on), without the counts of probability below PRUNE."""
    if mean == 0.0:
        return 0, [1.0]
    log_mean = math.log(mean)
    pmf = [math.exp(k * log_mean - mean - math.lgamma(k + 1)) for k in _support(mean)]
    kept = [k for k, p in enumerate(pmf) if p >= PRUNE]
    return kept[0], pmf[kept[0]:kept[-1] + 1]


def _on_air_pmf(on_air_probs):
    """pmf of the count of independent channels on air (Poisson-binomial)."""
    pmf = [1.0]
    for p in on_air_probs:
        pmf = [a * (1.0 - p) + b * p for a, b in zip(pmf + [0.0], [0.0] + pmf)]
    return pmf


def _non_sla_oracle(cfg):
    """Time-exact expected post-warmup (SL, utilization) of non-SLA with nothing
    blocked or dropped, from an empty cell.

    After step t the live calls C are Poisson, and channel k is on air
    independently with probability 1 - exp(-p_k * viewer mean), since each viewer
    picks it independently; N counts those on air.  The step's SL is
    min(1, cap / (full * N + b * C)), 1 with no channel on air, and its
    utilization min(1, (full * N + b * C) / cap).  Both means approach
    stationarity geometrically, so steps are summed exactly until the means are
    within 1e-9 (relative) of it, and each later step is weighted by the
    stationary value.
    """
    cap, full, b = cfg.capacity_mbps, cfg.iptv_channel_max_bw_mbps, cfg.non_iptv_call_bw_mbps
    dt, n_steps = cfg.sample_interval_min, cfg.n_steps
    calls = (cfg.non_iptv_arrival_rate_per_min, cfg.non_iptv_mean_hold_min)
    viewers = (cfg.iptv_viewer_arrival_rate_per_min, cfg.iptv_viewer_mean_hold_min)
    probs = channel_probabilities(cfg.num_channels_catalog, cfg.channel_popularity_skew)
    # a step's call mean is at most the stationary one, so its counts fit these rows
    counts = _support(_live_mean(*calls, dt, None))
    sl_rows = [[min(1.0, cap / (full * n + b * c)) if n else 1.0 for c in counts]
               for n in range(len(probs) + 1)]
    util_rows = [[min(1.0, (full * n + b * c) / cap) for c in counts]
                 for n in range(len(probs) + 1)]

    def expected(step):
        first, call_pmf = _poisson_pmf(_live_mean(*calls, dt, step))
        last = first + len(call_pmf)
        viewer_mean = _live_mean(*viewers, dt, step)
        sl = util = 0.0
        on_air = _on_air_pmf([1.0 - math.exp(-pick * viewer_mean) for pick in probs])
        for n, p in enumerate(on_air):
            if p >= PRUNE:
                sl += p * sum(map(operator.mul, call_pmf, sl_rows[n][first:last]))
                util += p * sum(map(operator.mul, call_pmf, util_rows[n][first:last]))
        return sl, util

    # the first post-warmup step, as metrics.replication_means finds it
    start = next(t for t in range(n_steps) if t * dt >= cfg.warmup_min - 1e-9)
    slowest = math.exp(-dt / max(calls[1], viewers[1]))
    sl = util = 0.0
    step = start
    while step < n_steps and slowest ** (step + 1) > 1e-9:
        step_sl, step_util = expected(step)
        sl, util, step = sl + step_sl, util + step_util, step + 1
    rest = n_steps - step
    return tuple((total + rest * stationary) / (n_steps - start)
                 for total, stationary in zip((sl, util), expected(None)))


def test_criterion_non_sla_curves_match_the_time_exact_oracle(load_sweep, channel_sweep):
    # every sweep point where non-SLA never blocked or dropped: at seed 42, fig3's six
    # lightest loads (12 to 42 Mbps) and all of fig5; a zero SE (fig5's top point has
    # utilization 1.0 in every replication) is held to an absolute 1e-9
    t0 = time.perf_counter()
    worst, checked, failing = 0.0, 0, []
    for sweep, by_policy in (load_sweep, channel_sweep):
        for value, cfg in sweep.points:
            s = by_policy[PolicyKind.NON_SLA][value]
            if s.block_rate or s.drop_rate:
                continue
            checked += 1
            sl, util = _non_sla_oracle(cfg)
            for name, sim, se, exact in (("SL", s.mean_satisfaction, s.se_satisfaction, sl),
                                         ("util", s.mean_utilization, s.se_utilization, util)):
                if se:
                    worst = max(worst, abs(sim - exact) / se)
                if abs(sim - exact) > max(4 * se, 1e-9):
                    failing.append(f"{sweep.axis}={value:.4g} {name}: {sim:.5f} vs {exact:.5f}"
                                   f" (SE {se:.5f})")
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE non-SLA-time-exact-oracle: {'PASS' if not failing else 'FAIL'} "
          f"({checked} points, max |z|={worst:.2f} vs 4, {elapsed:.1f}s)")
    assert checked == 12
    assert not failing, "; ".join(failing)


def test_criterion_reruns_are_byte_identical(tmp_path):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text("sim_duration_min: 120\nwarmup_min: 60\n"
                        "replications: 2\nbase_seed: 7\n")
    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert main(["run", str(scenario), "--out", str(out), "--seed", "7"]) == 0
        outs.append(out)
    names = ("steps_nonsla.csv", "steps_sla.csv", "summary.csv")
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                    for n in names)
    print(f"ACCEPTANCE deterministic-replay: {'PASS' if identical else 'FAIL'} "
          f"(two seeded CLI runs, {len(names)} files compared byte for byte)")
    assert identical


def test_criterion_capacity_conservation(load_sweep, channel_sweep):
    # every policy at every point, each scanned over all of its steps by the sweep's workers
    summaries = [s for sweep in (load_sweep, channel_sweep)
                 for by_value in sweep[1].values() for s in by_value.values()]
    cfg = table1()
    steps = sum(s.scanned_steps for s in summaries)
    max_util = max(s.max_utilization for s in summaries)
    max_per = max(s.max_per_channel_mbps for s in summaries)
    floor_margin = (min(s.min_survivor_per_channel_mbps for s in summaries)
                    - cfg.iptv_channel_min_bw_mbps)
    min_res = min(s.min_reserved_mbps for s in summaries)
    max_res = max(s.max_reserved_mbps for s in summaries)
    ok = (max_util <= 1.0 + EQ_TOL
          and max_per <= cfg.iptv_channel_max_bw_mbps + EQ_TOL
          and floor_margin >= -EQ_TOL
          and min_res >= 0.0
          and max_res <= cfg.iptv_reservation_cap_mbps + EQ_TOL)
    print(f"ACCEPTANCE capacity-conservation: {'PASS' if ok else 'FAIL'} "
          f"({steps} steps, max util={max_util:.9f}, max per-channel={max_per:.3f}, "
          f"min floor margin={floor_margin:.2e}, reservation range="
          f"[{min_res:.1f}, {max_res:.1f}])")
    assert max_util <= 1.0 + EQ_TOL
    assert max_per <= cfg.iptv_channel_max_bw_mbps + EQ_TOL
    assert floor_margin >= -EQ_TOL
    assert min_res >= 0.0
    assert max_res <= cfg.iptv_reservation_cap_mbps + EQ_TOL


# SHA-256 of every summary of the full-size fig3 and fig5 sweeps (table1, seed 42),
# as the load_sweep and channel_sweep fixtures compute them.  140 of fig3's 560
# policy runs block or drop, so these cover the shedding path at full size too.
FULL_SWEEP_DIGESTS = {
    "fig3": "96f2cfe9c4b9529a1446f415b8952f185eac52ca39b97bae5cfe829c9858d4d3",
    "fig5": "e6bc92ac19c4ced57de621c3b1ea3273e53fced76af9fd550a3c6fd63ba7a881",
}


def _summaries_digest(by_policy):
    text = "".join(f"{policy.value},{value!r},{astuple(summary)!r}\n"
                   for policy in PolicyKind for value, summary in sorted(by_policy[policy].items()))
    return hashlib.sha256(text.encode()).hexdigest()


def test_full_size_sweep_summaries_match_pinned_digests(load_sweep, channel_sweep):
    assert {"fig3": _summaries_digest(load_sweep[1]),
            "fig5": _summaries_digest(channel_sweep[1])} == FULL_SWEEP_DIGESTS


def test_criterion_traffic_statistics():
    # offered call concurrency against the arrival rate times mean hold
    cfg = replace(table1(), iptv_viewer_arrival_rate_per_min=0.0,
                  non_iptv_arrival_rate_per_min=2.5,
                  non_iptv_mean_hold_min=20.0,
                  sim_duration_min=20_000.0, warmup_min=0.0)
    live = 0
    total = 0
    n = 0
    for step, events in enumerate(build_trace(cfg, 17)):
        for ev in events:
            if ev.kind is EventKind.NON_IPTV_ARRIVE:
                live += 1
            elif ev.kind is EventKind.NON_IPTV_DEPART:
                live -= 1
        if step >= 500:
            total += live
            n += 1
    concurrency = total / n
    target = 2.5 * 20.0
    little_err = abs(concurrency - target) / target

    draws = 20_000
    r = RngStream(99, 0)
    poisson_mean = sum(poisson_counter(3.0, 1.0, r)() for _ in range(draws)) / draws
    poisson_bound = 3 * math.sqrt(3.0 / draws)

    # channel popularity, counted on the viewer arrivals of a trace
    viewers = replace(table1(), num_channels_catalog=10, channel_popularity_skew=1.0,
                      iptv_viewer_arrival_rate_per_min=30.0,
                      non_iptv_arrival_rate_per_min=0.0,
                      sim_duration_min=1000.0, warmup_min=0.0)
    counts = Counter(build_trace(viewers, 77).channels)
    picks = sum(counts.values())
    probs = channel_probabilities(10, 1.0)
    zipf_worst = max(abs(counts.get(k + 1, 0) / picks - p)
                     - 3 * math.sqrt(p * (1 - p) / picks)
                     for k, p in enumerate(probs))

    ok = (little_err <= 0.05 and abs(poisson_mean - 3.0) <= poisson_bound
          and zipf_worst <= 0.0)
    print(f"ACCEPTANCE traffic-statistics: {'PASS' if ok else 'FAIL'} "
          f"(concurrency {concurrency:.2f} vs {target:.0f} ({little_err:.1%}), "
          f"poisson mean {poisson_mean:.3f} vs 3 +/- {poisson_bound:.3f}, "
          f"popularity worst 3-sigma excess {zipf_worst:.2e})")
    assert little_err <= 0.05
    assert abs(poisson_mean - 3.0) <= poisson_bound
    assert zipf_worst <= 0.0
