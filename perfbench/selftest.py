#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size. Run from the repository root:

    python3 perfbench/selftest.py

Checks, for every workload of BENCHMARK.json:
  * a timed run prints every end-to-end metric and a traced run every
    per-layer metric, each with its BENCHMARK.json unit, on a human line
    and in the final JSON line, and both pass their output checks at the
    recorded seed and at another seed (the independent cross-check);
  * exact work counters repeat exactly across two traced runs at one seed;
  * every per-layer metric reads nonzero on at least one workload, apart
    from failure counters whose healthy value is 0;
  * a deliberately wrong reference digest makes failed_frac read 1.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HEALTHY_ZERO = {"dist.failed_attempts", "dist.v1_fallbacks",
                "dist.empty_shards"}
EXACT_COUNTERS = [
    "workload.jobs", "sched.ref.runs", "sched.ref.coalitions",
    "sched.ref.engine_events", "sched.ref.decisions", "sched.rand.runs",
    "sched.rand.coalitions", "sched.policy.decisions", "sim.events",
    "sim.decisions", "exp.cache.hits", "exp.cache.misses",
    "exp.cache.replayed_runs", "exp.cache.peak_bytes", "dist.attempts",
    "dist.failed_attempts", "dist.session_opens", "dist.v1_fallbacks",
    "dist.empty_shards", "serve.decisions", "serve.engine_events",
    "serve.peak_resident_jobs", "serve.peak_resident_orgs"]


def bench(workload, seed, trace, digests=None):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", "0.5", "--trace",
            str(trace), "--size", "tiny"]
    if digests:
        argv += ["--reference-digests", digests]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(argv)} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_printed(label, human, result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (
        f"{label}: missing {set(expected) - set(metrics)}, "
        f"extra {set(metrics) - set(expected)}")
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, f"{label}: {name} unit"
        assert isinstance(metrics[name]["value"], (int, float)), name
        assert any(line.split()[:1] == [name] and line.endswith(" " + unit)
                   for line in human), f"{label}: no human line for {name}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)


def failed_frac(human):
    for line in human:
        if line.startswith("failed_frac"):
            return float(line.split()[1])
    raise AssertionError("no failed_frac line")


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    with open(os.path.join(HERE, "reference_digests.json")) as f:
        digests = json.load(f)

    nonzero = set()
    for workload in workloads:
        for seed in (2013, 11):
            label = f"{workload} seed {seed}"
            human, result = bench(workload, seed, 0)
            check_printed(label + " timed", human, result, end_to_end)
            assert result["correct"] and result["failed"] == 0, label
            assert failed_frac(human) == 0.0, label
            for name, metric in result["metrics"].items():
                assert metric["value"] > 0, f"{label}: {name} reads 0"

            human, result = bench(workload, seed, 1)
            check_printed(label + " traced", human, result, per_layer)
            assert result["correct"] and result["failed"] == 0, label
            assert result["metrics"]["trace.coverage"]["value"] >= 0.95, label
            nonzero |= {n for n, m in result["metrics"].items()
                        if m["value"] != 0}
            # Exact work counters repeat exactly across runs at one seed.
            _, again = bench(workload, seed, 1)
            for name in EXACT_COUNTERS:
                assert (result["metrics"][name]["value"] ==
                        again["metrics"][name]["value"]), f"{label}: {name}"
        print(f"ok: {workload} prints every metric and passes its checks")

    never = set(per_layer) - nonzero - HEALTHY_ZERO
    assert not never, f"per-layer metrics that read 0 everywhere: {never}"
    print("ok: every per-layer metric reads nonzero on some workload")

    # A wrong reference digest must fail every op of the run.
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    wrong_path = os.path.join(build_dir, "perfbench", "wrong_digests.json")
    wrong = {size: {w: ["%016x" % (int(d, 16) ^ 1) for d in ds]
                    for w, ds in table.items()}
             for size, table in digests.items()}
    with open(wrong_path, "w") as f:
        json.dump(wrong, f)
    for workload in workloads:
        for trace in (0, 1):
            human, result = bench(workload, 2013, trace, wrong_path)
            label = f"{workload} trace {trace} with a wrong digest"
            assert not result["correct"], label
            assert result["failed"] == result["attempted"], label
            assert failed_frac(human) == 1.0, label
    print("ok: a wrong reference digest makes failed_frac read 1")
    return 0


if __name__ == "__main__":
    sys.exit(main())
