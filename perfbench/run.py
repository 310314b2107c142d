#!/usr/bin/env python3
"""The fairsched benchmark (see BENCHMARK.json at the repository root).

Run from the repository root:

    python3 perfbench/run.py --workload table1-full --seed 2013 \
        --seconds 20 --trace 0

Builds perfbench_harness (perfbench/CMakeLists.txt, which builds the
repository's library and fairsched_exp) into $CARGO_TARGET_DIR or
.bench_build, generates the workload's inputs from --seed, then either

  --trace 0  runs timed iterations for --seconds, each in a fresh harness
             process, and prints the end-to-end metrics; or
  --trace 1  runs the traced layer sequence (perfbench_harness trace) and
             prints the per-layer metrics.

Every iteration's output digest is checked: at seed 2013 against the
digests recorded in perfbench/reference_digests.json, at any other seed
against an independent recomputation (see perfbench/harness.cc). Exact work
counters must repeat across iterations. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 2013
BUILD_LIMIT_S = 800  # the first run in a checkout builds everything
RUN_LIMIT_S = 170  # every child is killed past this, within the 180 s cap

# Per workload: what one op is; the tail percentile (the highest with at
# least ten ops beyond it, per iteration for table1-full and serve-100k,
# pooled over at least `min_iterations` for sweep-dispatch); the fewest
# timed iterations a run makes; and how many input sets a run cycles
# through. A sweep's wall time is set by its slowest instances and shards,
# which vary from seed to seed, so the sweeps spread their iterations over
# several seeds derived from --seed; serve-100k's per-seed variation is
# small next to machine noise, so it uses one.
WORKLOADS = {
    "table1-full": {"op": "runs", "tail": 0.95, "min_iterations": 4,
                    "inputs": 4},
    "serve-100k": {"op": "decisions", "tail": 0.99999, "min_iterations": 3,
                   "inputs": 1},
    "sweep-dispatch": {"op": "shard attempts", "tail": 0.90,
                       "min_iterations": 8, "inputs": 8},
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_tail_us": "us",
}

PER_LAYER = {
    "workload.instance_ms": "ms",
    "workload.jobs": "count",
    "sched.ref.ms": "ms",
    "sched.ref.runs": "count",
    "sched.ref.coalitions": "count",
    "sched.ref.engine_events": "count",
    "sched.ref.decisions": "count",
    "sched.rand.ms": "ms",
    "sched.rand.runs": "count",
    "sched.rand.coalitions": "count",
    "sched.rand.coalition_share": "ratio",
    "sched.policy.ms": "ms",
    "sched.policy.decisions": "count",
    "sched.policy.roundrobin.ms": "ms",
    "sched.policy.directcontr.ms": "ms",
    "sched.policy.fairshare.ms": "ms",
    "sched.policy.utfairshare.ms": "ms",
    "sched.policy.currfairshare.ms": "ms",
    "sim.events": "count",
    "sim.decisions": "count",
    "sim.events_per_s": "1/s",
    "metrics.grade_ms": "ms",
    "exp.plan_ms": "ms",
    "exp.sweep_ms": "ms",
    "exp.parallel_eff": "ratio",
    "exp.cache.hits": "count",
    "exp.cache.misses": "count",
    "exp.cache.hit_rate": "ratio",
    "exp.cache.replayed_runs": "count",
    "exp.cache.peak_bytes": "bytes",
    "exp.artifact.encode_ms": "ms",
    "exp.artifact.decode_ms": "ms",
    "exp.artifact.bytes": "bytes",
    "exp.merge_ms": "ms",
    "dist.attempts": "count",
    "dist.failed_attempts": "count",
    "dist.session_opens": "count",
    "dist.v1_fallbacks": "count",
    "dist.empty_shards": "count",
    "dist.hello_ms": "ms",
    "dist.shard_ms_p50": "ms",
    "dist.shard_ms_max": "ms",
    "serve.parse_ms": "ms",
    "serve.run_ms": "ms",
    "serve.decisions": "count",
    "serve.engine_events": "count",
    "serve.peak_resident_jobs": "count",
    "serve.peak_resident_orgs": "count",
    "workload.self_ms": "ms",
    "sched.ref.self_ms": "ms",
    "sched.rand.self_ms": "ms",
    "sched.policy.self_ms": "ms",
    "metrics.self_ms": "ms",
    "exp.self_ms": "ms",
    "dist.self_ms": "ms",
    "serve.self_ms": "ms",
    "trace.coverage": "ratio",
    "trace.wall_ms": "ms",
    "trace.untraced_ms": "ms",
    "trace.overhead_ms": "ms",
}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def child_env(tmpdir):
    # FAIRSCHED_* variables would reach fairsched_exp's flag parser.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FAIRSCHED_")}
    env["TMPDIR"] = tmpdir
    return env


class Child:
    """One child process in its own process group, killed past the run
    limit, with its rusage (descendants included) taken by wait4."""

    def __init__(self, argv, env, stderr_path, deadline):
        self.stderr = open(stderr_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self.stderr, env=env,
                                     start_new_session=True)
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                     self.kill)
        self.timer.start()

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def finish(self):
        out = self.proc.stdout.read()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.wall_s = time.perf_counter() - self.started
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.timer.cancel()
        self.kill()  # anything the child left behind in its group
        self.proc.stdout.close()
        self.stderr.close()
        self.usage = usage
        return self.proc.returncode, out.decode()


def run_json(argv, env, work, deadline, name):
    child = Child(argv, env, os.path.join(work, name + ".stderr"), deadline)
    code, out = child.finish()
    if code != 0:
        with open(os.path.join(work, name + ".stderr")) as f:
            raise BenchError(f"{name} exited {code}:\n{f.read()[-4000:]}")
    return json.loads(out.strip().splitlines()[-1]), child


def build(root):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    with open(build_log, "wb") as out:
        for argv in (["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"],
                     ["cmake", "--build", build_dir, "-j", jobs]):
            code = subprocess.call(argv, stdout=out, stderr=out,
                                   timeout=BUILD_LIMIT_S)
            if code != 0:
                with open(build_log) as f:
                    raise BenchError("build failed:\n" + f.read()[-4000:])
    return build_dir, os.path.join(build_dir, "perfbench_harness")


def input_seed(seed, k):
    """The seed of a run's k-th input set: the run's own seed for k = 0,
    kept below 2^31 because fairsched_exp reads --seed as a signed int."""
    return (seed + k * 1000003) % (1 << 31)


def stored_digests(args):
    """Recorded output digests of each input set at the default seed."""
    if args.seed != DEFAULT_SEED:
        return None
    path = args.reference_digests or os.path.join(HERE,
                                                  "reference_digests.json")
    with open(path) as f:
        return json.load(f)[args.size][args.workload]


# --- Pooled latency histograms (util/latency_histogram.h, bucket-exact) ----

SUB_BUCKETS = 16
BUCKETS = 64 * SUB_BUCKETS
MAX_U64 = (1 << 64) - 1


def lower_bound(bucket):
    major, sub = divmod(bucket, SUB_BUCKETS)
    if major == 0:
        return sub
    if major > 60:
        return MAX_U64
    base = SUB_BUCKETS << (major - 1)
    return base + sub * (base // SUB_BUCKETS)


def upper_bound(bucket):
    return MAX_U64 if bucket + 1 == BUCKETS else lower_bound(bucket + 1)


def merge_histograms(histograms):
    counts, top = {}, 0
    for h in histograms:
        top = max(top, h["max"])
        for bucket, count in h["buckets"]:
            counts[bucket] = counts.get(bucket, 0) + count
    return counts, top


def value_at_quantile(counts, top, q):
    """LatencyHistogram::value_at_quantile on merged bucket counts."""
    total = sum(counts.values())
    rank = max(1, math.ceil(q * total))
    seen = 0
    for bucket in sorted(counts):
        count = counts[bucket]
        if seen + count >= rank:
            lo = lower_bound(bucket)
            hi = min(upper_bound(bucket) - 1, top)
            if hi <= lo:
                return lo
            return lo + (hi - lo) * (rank - seen) // count
        seen += count
    return top


def percentile_label(q):
    return "p" + f"{q * 100:.3f}".rstrip("0").rstrip(".")


# --- Timed runs ----------------------------------------------------------

def timed_run(args, harness, inputs, env, work, deadline):
    shape = WORKLOADS[args.workload]
    threads = str(len(os.sched_getaffinity(0)))
    expected = stored_digests(args)
    if expected is None:
        expected = []
        for k, common in enumerate(inputs):
            reference, _ = run_json([harness, "reference", *common,
                                     "--threads", threads], env, work,
                                    deadline, "reference")
            expected.append(reference["digest"])
        log(f"reference digests {expected} (independent recomputation)")
    else:
        log(f"reference digests {expected} (recorded at seed {DEFAULT_SEED})")

    iterations = []
    attempted = failed = 0
    started = time.perf_counter()
    # Another iteration starts only if it should end within --seconds.
    while (len(iterations) < shape["min_iterations"] or
           time.perf_counter() - started + iterations[-1]["wall_s"]
           <= args.seconds):
        k = len(iterations) % len(inputs)
        out, child = run_json([harness, "run", *inputs[k], "--threads",
                               threads], env, work, deadline, "run")
        problems = []
        if out["digest"] != expected[k]:
            problems.append(f"output digest {out['digest']} != {expected[k]}")
        if len(iterations) >= len(inputs) and (
                out["counters"] != iterations[k]["counters"]):
            first = iterations[k]["counters"]
            for name in sorted(set(first) | set(out["counters"])):
                if first.get(name) != out["counters"].get(name):
                    problems.append(f"counter {name} drifted: "
                                    f"{out['counters'].get(name)} vs "
                                    f"{first.get(name)}")
        log(f"iteration {len(iterations)}: wall {child.wall_s:.4f} s, "
            f"setup {out['setup_s']:.6f} s, work {out['work_s']:.4f} s")
        for problem in problems:
            log(f"iteration {len(iterations)}: {problem}")
        attempted += out["ops"]
        failed += out["ops"] if problems else 0
        out["wall_s"] = child.wall_s
        out["cpu_s"] = child.usage.ru_utime + child.usage.ru_stime
        out["peak_rss_mb"] = child.usage.ru_maxrss / 1024.0
        iterations.append(out)

    def median(key):
        return statistics.median(it[key] for it in iterations)

    counts, top = merge_histograms(it["op_ns"] for it in iterations)
    samples = sum(counts.values())
    tail = shape["tail"]
    metrics = {
        "wall_s": median("wall_s"),
        "cpu_s": median("cpu_s"),
        "setup_s": median("setup_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "ops_per_s": statistics.median(it["ops"] / it["work_s"]
                                       for it in iterations),
        "op_p50_us": value_at_quantile(counts, top, 0.5) / 1e3,
        "op_tail_us": value_at_quantile(counts, top, tail) / 1e3,
    }
    print(f"{len(iterations)} iterations; ops are {shape['op']}; "
          f"op_tail_us is {percentile_label(tail)} of {samples} {shape['op']}")
    return attempted, failed, {k: (v, END_TO_END[k]) for k, v in
                               metrics.items()}


# --- Traced run ----------------------------------------------------------

def traced_run(args, harness, inputs, env, work, deadline):
    """Traces the first input set; per-layer metrics carry no bound."""
    threads = str(len(os.sched_getaffinity(0)))
    out, _ = run_json([harness, "trace", *inputs[0], "--threads", threads,
                       "--seconds", str(args.seconds)],
                      env, work, deadline, "trace")
    problems = list(out["problems"])
    expected = stored_digests(args)
    if expected is not None and out["digest"] != expected[0]:
        problems.append(f"output digest {out['digest']} != {expected[0]}")
    for problem in problems:
        log(problem)
    values = dict(out["counters"])
    values.update(out["metrics"])
    # A layer the workload bypasses did no work and reads 0.
    metrics = {name: (values.get(name, 0), unit)
               for name, unit in PER_LAYER.items()}
    log(f"{out['passes']} passes; spans in "
        f"{os.path.join(work, 'input-0', 'spans.json')}")
    return out["ops"], out["ops"] if problems else 0, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload (self-test)")
    parser.add_argument("--reference-digests",
                        help="digest file replacing the recorded one")
    args = parser.parse_args()

    root = os.getcwd()
    try:
        build_dir, harness = build(root)
        deadline = time.monotonic() + RUN_LIMIT_S
        work = os.path.join(build_dir, "work",
                            f"{args.workload}-{args.size}-{args.seed}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(os.path.join(work, "tmp"))
        env = child_env(os.path.join(work, "tmp"))
        # Harness arguments of each input set, generated before any timing.
        inputs = []
        for k in range(1 if args.trace else
                       WORKLOADS[args.workload]["inputs"]):
            common = ["--workload", args.workload,
                      "--seed", str(input_seed(args.seed, k)),
                      "--size", args.size,
                      "--dir", os.path.join(work, f"input-{k}")]
            run_json([harness, "gen", *common], env, work, deadline, "gen")
            inputs.append(common)
        run = traced_run if args.trace else timed_run
        attempted, failed, metrics = run(args, harness, inputs, env, work,
                                         deadline)
    except (BenchError, OSError, subprocess.SubprocessError, KeyError,
            ValueError) as e:
        log(f"benchmark failed: {e}")
        return 1

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(f"{'failed_frac':32s} {failed / attempted:.6g} "
          f"({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
