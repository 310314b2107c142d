#!/usr/bin/env python3
"""Perf-regression gate over the BENCH_*.json sweep baselines.

CI runs the --smoke matrix twice — workload/baseline cache on (default) and
off (--no-cache) — and feeds both JSON directories here:

    compare_bench.py record --cached DIR --uncached DIR --out bench/baselines
    compare_bench.py check  --cached DIR --uncached DIR \
        --baselines bench/baselines [--tolerance 0.25]

`record` distills each sweep pair into a committed baseline under
bench/baselines/. `check` fails (exit 1) when the current run regresses.

What is compared, and why these metrics:

* runs — the matrix shape. An accidental shrink of the smoke matrix would
  make every timing look great; compared exactly.
* cache hit_rate — deterministic for a fixed sweep plan under the default
  budget (no evictions), so compared exactly (tiny epsilon). A drop means
  the prefix planner stopped sharing work.
* speedup = uncached total_wall_ms / cached total_wall_ms — the cache's
  work-based win. Both sides run the same instruction mix on the same
  machine, so the *ratio* transfers across machines far better than
  absolute wall times do; it degrading by more than --tolerance (default
  25%) is the perf regression this gate exists to catch. Gated only on
  sweeps whose baseline replays simulation runs from the cache — where
  nothing substantial is shared the ratio is timing noise around 1.0,
  recorded for the trajectory but not gated. Absolute wall times are
  still recorded in the baselines and artifacts so the BENCH_*.json
  trajectory stays inspectable.
* elapsed_speedup — same ratio over driver wall clock; recorded and
  reported for the artifact trajectory, but not hard-gated: a smoke sweep
  elapses ~30 ms, so a single scheduling hiccup on a shared runner could
  swing the ratio arbitrarily.

MIN_SPEEDUP holds hard, machine-independent floors over the work-based
speedup. fairshare-decay is the acceptance bar for the prefix cache: four
half-life values share one instance + REF baseline, so cache-on must do
at least 2x less measured work than --no-cache.
"""

import argparse
import json
import math
import pathlib
import sys

SWEEPS = [
    "table1",
    "table2",
    "utilization",
    "rand-convergence",
    "fig10",
    "horizon-growth",
    "fairshare-decay",
    # The config-defined policy smoke (bench/configs/custom_policy.cfg):
    # CI runs `custom --config=... --smoke`, so the open policy API's
    # registry/composition path sits under the same perf gate.
    "custom",
    # The strategic-deviation smoke (fairsched_exp strategy --smoke): every
    # deviation of a cell declares a different instance, so no simulation
    # runs replay (replayed_runs = 0) — but the honest window generation and
    # REF baseline are shared across the whole deviation grid, which the
    # exact hit_rate gate plus the MIN_SPEEDUP floor below verify.
    "strategy",
]

# Hard work-based speedup floors (sweep -> min uncached/cached
# total_wall_ms ratio), enforced by `check` independent of the recorded
# baseline.
MIN_SPEEDUP = {
    "fairshare-decay": 2.0,
    # A warm deviation grid must do measurably less work than a cold one:
    # one window generation + one REF honest baseline per cell instead of
    # one per deviation. The policy runs themselves dominate and never
    # replay, so the floor is modest (observed ~1.3-1.45x).
    "strategy": 1.1,
}

HIT_RATE_EPSILON = 1e-6

# The ref-scaling engine microbench (BENCH_ref-scaling.json, written by
# `fairsched_exp ref-scaling --smoke`) is compared differently from the
# sweep pairs above: its event and decision counts are deterministic for
# the smoke configuration — the engine's unified event stream and decision
# sequence are part of the equivalence contract — so those are gated
# exactly, while the wall-clock throughput only has to stay within a
# generous machine-to-machine slack factor of the recorded baseline.
REF_SCALING = "ref-scaling"
REF_SCALING_WALL_SLACK = 8.0

# The serve-mode session bench (BENCH_serve.json, written by
# `fairsched_exp serve --smoke`) follows the ref-scaling pattern: its
# counters are deterministic for the smoke configuration — the arrival
# stream is seeded and the decision stream is pinned by the serve-vs-batch
# replay contract — so they are gated exactly, while decision throughput
# and p99 latency only have to stay within generous machine-to-machine
# slack factors of the recorded baseline.
SERVE = "serve"
SERVE_THROUGHPUT_SLACK = 8.0
SERVE_LATENCY_SLACK = 16.0

# The dispatch bench (BENCH_dispatch.json, written by `fairsched_exp
# dispatch --dispatch-bench`) times repeats of one dispatch over the same
# persistent sessions and checks every repeat's CSV against the
# in-process whole run. Its shape counters are deterministic and gated
# exactly: workers/shards/repeats, one session per worker, every shard of
# every repeat served over a session, the cold repeat's cache misses
# (one per distinct prefix) and the total cache lookups. Work stealing
# decides which session serves a shard, so the total miss count is not
# exact; it is bounded instead: a session misses a prefix at most once,
# so misses never exceed workers x cold misses. The session amortization
# — cold repeat wall over the median warm repeat wall — has a hard
# machine-independent floor: spawn + plan rebuild + cache warmup, paid
# once per session, must be worth at least 2x on the smoke sweep.
# Absolute wall times only have to stay within a generous slack of the
# recorded baseline.
DISPATCH = "dispatch"
DISPATCH_MIN_COLD_WARM_RATIO = 2.0
DISPATCH_WALL_SLACK = 8.0


def load_json(path, what):
    """Loads a JSON file, turning every I/O or parse failure into a clear
    error that names the offending file instead of a traceback."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as err:
        raise SystemExit(f"error: cannot read {what} {path}: {err}")
    except json.JSONDecodeError as err:
        raise SystemExit(
            f"error: {what} {path} is not valid JSON ({err}); "
            f"was the producing run killed mid-write?"
        )


def load_bench(directory, sweep):
    path = pathlib.Path(directory) / f"BENCH_{sweep}.json"
    if not path.is_file():
        raise SystemExit(
            f"error: missing bench output {path} — did the "
            f"`fairsched_exp {sweep} --smoke` run for this directory "
            f"complete?"
        )
    data = load_json(path, "bench output")
    if data.get("sweep") != sweep:
        raise SystemExit(f"error: {path} reports sweep {data.get('sweep')!r}")
    return data


def safe_ratio(numerator, denominator):
    return numerator / denominator if denominator > 0 else math.inf


def distill(cached, uncached, sweep):
    """One baseline record from a (cache-on, cache-off) BENCH pair."""
    if not cached["cache"]["enabled"]:
        raise SystemExit(f"error: {sweep}: the --cached run had its cache off")
    if uncached["cache"]["enabled"]:
        raise SystemExit(f"error: {sweep}: the --uncached run had its cache on")
    if cached["runs"] != uncached["runs"]:
        raise SystemExit(
            f"error: {sweep}: cached and uncached run counts differ "
            f"({cached['runs']} vs {uncached['runs']})"
        )
    return {
        "sweep": sweep,
        "runs": cached["runs"],
        "hit_rate": cached["cache"]["hit_rate"],
        "replayed_runs": cached["cache"]["replayed_runs"],
        "speedup": safe_ratio(
            uncached["total_wall_ms"], cached["total_wall_ms"]
        ),
        "elapsed_speedup": safe_ratio(
            uncached["elapsed_ms"], cached["elapsed_ms"]
        ),
        "cached_total_wall_ms": cached["total_wall_ms"],
        "uncached_total_wall_ms": uncached["total_wall_ms"],
        "cached_elapsed_ms": cached["elapsed_ms"],
        "uncached_elapsed_ms": uncached["elapsed_ms"],
    }


def distill_ref_scaling(bench):
    """One baseline record from a BENCH_ref-scaling.json microbench."""
    engine = bench["engine"]
    return {
        "sweep": REF_SCALING,
        "largest_orgs": bench["largest_orgs"],
        "horizon": bench["horizon"],
        "events": engine["events"],
        "decisions": engine["decisions"],
        "ref_wall_ms_per_run": bench["ref_wall_ms_per_run"],
        "engine_wall_ms": engine["wall_ms"],
        "events_per_sec": engine["events_per_sec"],
        "decisions_per_sec": engine["decisions_per_sec"],
    }


def check_ref_scaling(baseline, current):
    """Failure strings for the ref-scaling microbench pair, if any."""
    failures = []
    for key in ("largest_orgs", "horizon", "events", "decisions"):
        if current[key] != baseline[key]:
            failures.append(
                f"{REF_SCALING}: {key} changed {baseline[key]} -> "
                f"{current[key]} (the engine's event stream / decision "
                f"sequence is part of the equivalence contract; re-record "
                f"bench/baselines if the smoke config changed)"
            )
    ceiling = baseline["ref_wall_ms_per_run"] * REF_SCALING_WALL_SLACK
    if current["ref_wall_ms_per_run"] > ceiling:
        failures.append(
            f"{REF_SCALING}: wall ms/run at the largest orgs point "
            f"regressed past the {REF_SCALING_WALL_SLACK:.0f}x slack: "
            f"{current['ref_wall_ms_per_run']:.2f} > {ceiling:.2f} "
            f"(baseline {baseline['ref_wall_ms_per_run']:.2f})"
        )
    return failures


def distill_serve(bench):
    """One baseline record from a BENCH_serve.json session report."""
    latency = bench["decision_latency_ns"]
    return {
        "sweep": SERVE,
        "policy": bench["policy"],
        "source": bench["source"],
        "orgs": bench["orgs"],
        "machines": bench["machines"],
        "arrivals": bench["arrivals"],
        "engine_events": bench["engine_events"],
        "decisions": bench["decisions"],
        "completions": bench["completions"],
        "final_time": bench["final_time"],
        "peak_resident_jobs": bench["peak_resident_jobs"],
        "peak_resident_orgs": bench["peak_resident_orgs"],
        "decisions_per_sec": bench["decisions_per_sec"],
        "events_per_sec": bench["events_per_sec"],
        "latency_p50_ns": latency["p50"],
        "latency_p99_ns": latency["p99"],
    }


def check_serve(baseline, current):
    """Failure strings for the serve session bench pair, if any."""
    failures = []
    for key in (
        "policy",
        "source",
        "orgs",
        "machines",
        "arrivals",
        "engine_events",
        "decisions",
        "completions",
        "final_time",
        "peak_resident_jobs",
        "peak_resident_orgs",
    ):
        if current[key] != baseline[key]:
            failures.append(
                f"{SERVE}: {key} changed {baseline[key]} -> {current[key]} "
                f"(the serve decision stream is pinned by the replay "
                f"contract; re-record bench/baselines if the smoke config "
                f"changed)"
            )
    floor = baseline["decisions_per_sec"] / SERVE_THROUGHPUT_SLACK
    if current["decisions_per_sec"] < floor:
        failures.append(
            f"{SERVE}: decision throughput regressed past the "
            f"{SERVE_THROUGHPUT_SLACK:.0f}x slack: "
            f"{current['decisions_per_sec']:.0f}/s < {floor:.0f}/s "
            f"(baseline {baseline['decisions_per_sec']:.0f}/s)"
        )
    ceiling = baseline["latency_p99_ns"] * SERVE_LATENCY_SLACK
    if current["latency_p99_ns"] > ceiling:
        failures.append(
            f"{SERVE}: decision p99 latency regressed past the "
            f"{SERVE_LATENCY_SLACK:.0f}x slack: "
            f"{current['latency_p99_ns']}ns > {ceiling:.0f}ns "
            f"(baseline {baseline['latency_p99_ns']}ns)"
        )
    return failures


def load_dispatch_bench(directory):
    path = pathlib.Path(directory) / f"BENCH_{DISPATCH}.json"
    if not path.is_file():
        raise SystemExit(
            f"error: missing bench output {path} — did the "
            f"`fairsched_exp dispatch --dispatch-bench` run complete?"
        )
    data = load_json(path, "bench output")
    if data.get("benchmark") != DISPATCH:
        raise SystemExit(
            f"error: {path} reports benchmark {data.get('benchmark')!r}"
        )
    return data


def distill_dispatch(bench):
    """One baseline record from a BENCH_dispatch.json session bench."""
    return {
        "sweep": DISPATCH,
        "bench_sweep": bench["sweep"],
        "workers": bench["workers"],
        "shards": bench["shards"],
        "repeats": bench["repeats"],
        "session_cold_ms": bench["session_cold_ms"],
        "session_warm_ms": bench["session_warm_ms"],
        "cold_warm_ratio": bench["cold_warm_ratio"],
        "session_opens": bench["session_opens"],
        "session_served": bench["session_served"],
        "cache_hits": bench["cache_hits"],
        "cache_misses": bench["cache_misses"],
        "cold_cache_misses": bench["cold_cache_misses"],
        "csv_matches_whole_run": bench["csv_matches_whole_run"],
    }


def check_dispatch(baseline, current):
    """Failure strings for the dispatch bench pair, if any."""
    failures = []
    for key in ("bench_sweep", "workers", "shards", "repeats",
                "cold_cache_misses"):
        if current[key] != baseline[key]:
            failures.append(
                f"{DISPATCH}: {key} changed {baseline[key]} -> "
                f"{current[key]} (re-record bench/baselines if the bench "
                f"configuration changed)"
            )
    if not current["csv_matches_whole_run"]:
        failures.append(
            f"{DISPATCH}: dispatched CSV diverged from the in-process whole "
            f"run — the dispatch-determinism contract is broken"
        )
    if current["session_opens"] != current["workers"]:
        failures.append(
            f"{DISPATCH}: {current['session_opens']} session(s) opened for "
            f"{current['workers']} worker(s) — a session died and respawned"
        )
    expected_served = current["shards"] * current["repeats"]
    if current["session_served"] != expected_served:
        failures.append(
            f"{DISPATCH}: sessions served {current['session_served']} "
            f"shard(s), expected shards x repeats = {expected_served}"
        )
    lookups = current["cache_hits"] + current["cache_misses"]
    expected_lookups = baseline["cache_hits"] + baseline["cache_misses"]
    if lookups != expected_lookups:
        failures.append(
            f"{DISPATCH}: {lookups} cache lookup(s) (hits + misses), "
            f"baseline {expected_lookups}"
        )
    max_misses = current["workers"] * current["cold_cache_misses"]
    if current["cache_misses"] > max_misses:
        failures.append(
            f"{DISPATCH}: {current['cache_misses']} cache miss(es) exceed "
            f"workers x cold misses = {max_misses} — a session recomputed "
            f"a prefix it already held"
        )
    if current["cold_warm_ratio"] < DISPATCH_MIN_COLD_WARM_RATIO:
        failures.append(
            f"{DISPATCH}: session cold/warm ratio "
            f"{current['cold_warm_ratio']:.2f} below the hard "
            f"{DISPATCH_MIN_COLD_WARM_RATIO:.1f}x floor (cold "
            f"{current['session_cold_ms']:.1f}ms / warm "
            f"{current['session_warm_ms']:.1f}ms)"
        )
    ceiling = baseline["session_warm_ms"] * DISPATCH_WALL_SLACK
    if current["session_warm_ms"] > ceiling:
        failures.append(
            f"{DISPATCH}: warm session wall regressed past the "
            f"{DISPATCH_WALL_SLACK:.0f}x slack: "
            f"{current['session_warm_ms']:.1f}ms > {ceiling:.1f}ms "
            f"(baseline {baseline['session_warm_ms']:.1f}ms)"
        )
    return failures


def record(args):
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for sweep in SWEEPS:
        current = distill(
            load_bench(args.cached, sweep), load_bench(args.uncached, sweep),
            sweep,
        )
        path = out / f"{sweep}.json"
        with open(path, "w") as handle:
            json.dump(current, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"recorded {path}: runs={current['runs']} "
            f"hit_rate={current['hit_rate']:.3f} "
            f"speedup={current['speedup']:.2f} "
            f"elapsed_speedup={current['elapsed_speedup']:.2f}"
        )
    current = distill_ref_scaling(load_bench(args.cached, REF_SCALING))
    path = out / f"{REF_SCALING}.json"
    with open(path, "w") as handle:
        json.dump(current, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"recorded {path}: events={current['events']} "
        f"decisions={current['decisions']} "
        f"wall_ms_per_run={current['ref_wall_ms_per_run']:.2f}"
    )
    current = distill_serve(load_bench(args.cached, SERVE))
    path = out / f"{SERVE}.json"
    with open(path, "w") as handle:
        json.dump(current, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"recorded {path}: orgs={current['orgs']} "
        f"decisions={current['decisions']} "
        f"decisions_per_sec={current['decisions_per_sec']:.0f} "
        f"p99={current['latency_p99_ns']}ns"
    )
    current = distill_dispatch(load_dispatch_bench(args.cached))
    path = out / f"{DISPATCH}.json"
    with open(path, "w") as handle:
        json.dump(current, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"recorded {path}: workers={current['workers']} "
        f"shards={current['shards']} "
        f"cold_warm_ratio={current['cold_warm_ratio']:.2f}"
    )
    return 0


def check(args):
    failures = []
    for sweep in SWEEPS:
        baseline_path = pathlib.Path(args.baselines) / f"{sweep}.json"
        if not baseline_path.is_file():
            failures.append(f"{sweep}: no committed baseline {baseline_path}")
            continue
        baseline = load_json(baseline_path, "committed baseline")
        current = distill(
            load_bench(args.cached, sweep), load_bench(args.uncached, sweep),
            sweep,
        )

        if current["runs"] != baseline["runs"]:
            failures.append(
                f"{sweep}: run count changed {baseline['runs']} -> "
                f"{current['runs']} (re-record bench/baselines if intended)"
            )
        if current["hit_rate"] < baseline["hit_rate"] - HIT_RATE_EPSILON:
            failures.append(
                f"{sweep}: cache hit rate dropped "
                f"{baseline['hit_rate']:.3f} -> {current['hit_rate']:.3f}"
            )
        # The ratio gate only where the cache shares real simulation work
        # (replayed_runs > 0). Elsewhere — including fig10, whose hits are
        # only cheap window-generation reuse — both runs do essentially
        # identical work and the recorded "speedup" is timing noise around
        # 1.0; hard-gating it would fail unrelated PRs on a loaded runner.
        if baseline["replayed_runs"] > 0:
            floor = baseline["speedup"] * (1.0 - args.tolerance)
            if current["speedup"] < floor:
                failures.append(
                    f"{sweep}: cache speedup regressed >"
                    f"{args.tolerance:.0%}: {current['speedup']:.2f} < "
                    f"{floor:.2f} (baseline {baseline['speedup']:.2f})"
                )
        min_speedup = MIN_SPEEDUP.get(sweep)
        if min_speedup and current["speedup"] < min_speedup:
            failures.append(
                f"{sweep}: cache speedup {current['speedup']:.2f} below "
                f"the hard {min_speedup:.1f}x floor"
            )
        print(
            f"{sweep}: runs={current['runs']} "
            f"hit_rate={current['hit_rate']:.3f} "
            f"speedup={current['speedup']:.2f} "
            f"(baseline {baseline['speedup']:.2f}) "
            f"elapsed_speedup={current['elapsed_speedup']:.2f}"
        )

    baseline_path = pathlib.Path(args.baselines) / f"{REF_SCALING}.json"
    if not baseline_path.is_file():
        failures.append(
            f"{REF_SCALING}: no committed baseline {baseline_path}"
        )
    else:
        baseline = load_json(baseline_path, "committed baseline")
        current = distill_ref_scaling(load_bench(args.cached, REF_SCALING))
        failures.extend(check_ref_scaling(baseline, current))
        print(
            f"{REF_SCALING}: events={current['events']} "
            f"decisions={current['decisions']} "
            f"wall_ms_per_run={current['ref_wall_ms_per_run']:.2f} "
            f"(baseline {baseline['ref_wall_ms_per_run']:.2f}, "
            f"slack {REF_SCALING_WALL_SLACK:.0f}x)"
        )

    baseline_path = pathlib.Path(args.baselines) / f"{SERVE}.json"
    if not baseline_path.is_file():
        failures.append(f"{SERVE}: no committed baseline {baseline_path}")
    else:
        baseline = load_json(baseline_path, "committed baseline")
        current = distill_serve(load_bench(args.cached, SERVE))
        failures.extend(check_serve(baseline, current))
        print(
            f"{SERVE}: orgs={current['orgs']} "
            f"decisions={current['decisions']} "
            f"decisions_per_sec={current['decisions_per_sec']:.0f} "
            f"(baseline {baseline['decisions_per_sec']:.0f}, "
            f"slack {SERVE_THROUGHPUT_SLACK:.0f}x) "
            f"p99={current['latency_p99_ns']}ns"
        )

    baseline_path = pathlib.Path(args.baselines) / f"{DISPATCH}.json"
    if not baseline_path.is_file():
        failures.append(f"{DISPATCH}: no committed baseline {baseline_path}")
    else:
        baseline = load_json(baseline_path, "committed baseline")
        current = distill_dispatch(load_dispatch_bench(args.cached))
        failures.extend(check_dispatch(baseline, current))
        print(
            f"{DISPATCH}: workers={current['workers']} "
            f"shards={current['shards']} "
            f"cold_warm_ratio={current['cold_warm_ratio']:.2f} "
            f"(floor {DISPATCH_MIN_COLD_WARM_RATIO:.1f}x, baseline "
            f"{baseline['cold_warm_ratio']:.2f}) "
            f"session_warm_ms={current['session_warm_ms']:.1f}"
        )

    if failures:
        print("\nPERF REGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nall bench baselines within tolerance")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("record", record), ("check", check)):
        p = sub.add_parser(name)
        p.add_argument("--cached", required=True,
                       help="dir of BENCH_*.json from the default (cached) run")
        p.add_argument("--uncached", required=True,
                       help="dir of BENCH_*.json from the --no-cache run")
        p.set_defaults(fn=fn)
    sub.choices["record"].add_argument("--out", default="bench/baselines")
    sub.choices["check"].add_argument("--baselines", default="bench/baselines")
    sub.choices["check"].add_argument("--tolerance", type=float, default=0.25)
    args = parser.parse_args()
    try:
        return args.fn(args)
    except KeyError as err:
        # A bench/baseline JSON from a different schema generation: name
        # the missing key instead of dying with a traceback.
        raise SystemExit(
            f"error: bench/baseline JSON is missing key {err} — the file "
            f"predates the current schema; re-run the smoke matrix and "
            f"re-record bench/baselines"
        )


if __name__ == "__main__":
    sys.exit(main())
