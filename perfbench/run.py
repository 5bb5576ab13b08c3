#!/usr/bin/env python3
"""dicho benchmark: four paper-system workloads on the deterministic simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--world-seed <n>]

Run from the root of a checkout. Builds perfbench/ (and the dicho library
from src/) into .bench_build/perfbench, then runs one process per
repetition of `perfbench_rep` until --seconds of wall time are spent, and
prints one JSON result as the last line of stdout.

Seeds. --seed seeds the workload generator (keys, values, txn mix).
--world-seed (default: --seed) picks the simulated worlds: every run drives
the same inputs through WORLDS simulators seeded base*WORLDS + j, so a
model whose latency locks onto a timer phase (harmonylike's epoch cadence)
is averaged over phases instead of reporting one. Repetitions cycle
through the worlds; the sim_* metrics are the mean over worlds of each
world's value, and repeat exactly for a fixed pair of seeds. Host metrics
are medians over all repetitions.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 pairs
each traced repetition (TraceSink + MetricsRegistry attached, host spans,
layer replays) with an untraced one on the same world, asserts their sim_*
values are identical, and prints the per-layer metrics. Traces land in
.bench_out/.

Correctness: every repetition checks its own outputs (exactly-once request
accounting, driver vs system counters, ledger audits, replica state
agreement) and exits non-zero on a violation; this script also checks that
repetitions of one world agree exactly. A violation is reported on stderr
and the script exits 2 without printing a result.
"""

import argparse
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench_rep")

WORKLOADS = ("large-value-harmony", "wide-raft-etcd", "skew-occ-fabric",
             "mixed-rw-tidb")
WORLDS = 8
# Environment variables that would change how the simulation runs; unset
# for every repetition so the numbers are taken single-threaded.
THREAD_ENV = ("DICHO_SIM_THREADS", "DICHO_BENCH_THREADS")
REP_TIMEOUT_S = 150
MAX_REPS = 200
# A p99 is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def tail_samples(n, pct):
    """Samples strictly beyond the pct-th percentile of n distinct samples,
    with the rank interpolation of dicho's Histogram::Percentile."""
    if n == 0:
        return 0
    rank = pct / 100.0 * (n - 1)
    return n - 1 - int(rank)


def p99_supported(n):
    return tail_samples(n, 99) >= MIN_TAIL_SAMPLES


def build():
    # The compiler's scratch files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", SRC, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env, timeout=600)
    jobs = str(max(1, min(4, multiprocessing.cpu_count())))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env, timeout=840)


def child_env():
    env = dict(os.environ)
    for name in THREAD_ENV:
        env.pop(name, None)
    return env


class CheckFailed(Exception):
    pass


def run_rep(workload, seed, world, traced, extra=()):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--world-seed", str(world), "--trace", "1" if traced else "0",
           "--out", OUT, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=child_env(), timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise CheckFailed(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_reps(args, worlds, traced_pairs):
    """Repetitions until args.seconds are spent, at least one per world
    (untraced) or one traced/untraced pair (traced). Returns the list of
    (untraced, traced-or-None) results."""
    start = time.monotonic()
    reps = []
    i = 0
    while i < MAX_REPS:
        elapsed = time.monotonic() - start
        if reps:
            per_rep = elapsed / len(reps)
            enough = len(reps) >= (1 if traced_pairs else len(worlds))
            if enough and elapsed + per_rep > args.seconds:
                break
        world = worlds[i % len(worlds)]
        plain = run_rep(args.workload, args.seed, world, traced=False)
        traced = (run_rep(args.workload, args.seed, world, traced=True)
                  if traced_pairs else None)
        reps.append((plain, traced))
        i += 1
    return reps


def check_deterministic(results):
    """Every repetition of one world must report identical sim_* values."""
    first = {}
    for r in results:
        w = r["world_seed"]
        if w in first and first[w]["sim"] != r["sim"]:
            raise CheckFailed(
                f"world {w}: sim_* differ between repetitions "
                f"(traced={r['traced']} vs traced={first[w]['traced']}): "
                f"{first[w]['sim']} != {r['sim']}")
        first.setdefault(w, r)
    return first


def sim_line(args, worlds, sim):
    fields = " ".join(f"{k}={sim[k]!r}" for k in sorted(sim))
    return (f"sim workload={args.workload} seed={args.seed} "
            f"worlds={','.join(map(str, worlds))} {fields}")


def end_to_end(args, worlds, reps):
    plain = [p for p, _ in reps]
    by_world = check_deterministic(plain)
    per_world = [by_world[w]["sim"] for w in worlds]
    for w, s in zip(worlds, per_world):
        if not p99_supported(int(s["sim_txns"])):
            raise CheckFailed(f"world {w}: {int(s['sim_txns'])} txn samples "
                              "leave fewer than 10 beyond p99")
    sim = {k: statistics.fmean(s[k] for s in per_world)
           for k in per_world[0]}
    sim["sim_txns"] = sum(s["sim_txns"] for s in per_world)
    print(sim_line(args, worlds, sim))
    print(f"host reps={len(plain)} setups={sum(p['host']['setups'] for p in plain):.0f}"
          f" failed_share={sim['failed_share']!r}")
    return {
        "setup_s": statistics.median(p["host"]["setup_s"] for p in plain),
        "host_us_per_op": statistics.median(p["host"]["host_us_per_op"] for p in plain),
        "peak_rss_mb": statistics.median(p["host"]["peak_rss_mb"] for p in plain),
        "sim_tps": sim["sim_tps"],
        "sim_p50_ms": sim["sim_p50_ms"],
        "sim_p99_ms": sim["sim_p99_ms"],
        "ok_share": sim["ok_share"],
    }, plain


# Per-layer p99 values and the sample counts that gate them; every
# phase.<name>.p99_ms is gated by phase.<name>.samples.
GATED_P99 = {"sim_read_p99_ms": "sim_reads",
             "consensus.round_p99_ms": "consensus.round_samples"}


def gate_p99(layer):
    gates = dict(GATED_P99)
    for name in layer:
        if name.startswith("phase.") and name.endswith(".p99_ms"):
            gates[name] = name[:-len("p99_ms")] + "samples"
    for p99, count in gates.items():
        if not p99_supported(int(layer[count])):
            layer[p99] = 0.0
    return layer


def per_layer(args, worlds, reps):
    check_deterministic([r for pair in reps for r in pair])
    merged = [gate_p99({**t["layer"], **t["sim"]}) for _, t in reps]
    metrics = {k: statistics.median(m[k] for m in merged) for k in merged[0]}
    plain_wall = statistics.median(p["host"]["run_wall_s"] for p, _ in reps)
    traced_wall = statistics.median(t["host"]["run_wall_s"] for _, t in reps)
    metrics["obs.trace_overhead_share"] = (traced_wall - plain_wall) / plain_wall
    print(f"trace pairs={len(reps)} untraced_run_wall_s={plain_wall:.4f} "
          f"traced_run_wall_s={traced_wall:.4f} traces={OUT}")
    return metrics, [r for pair in reps for r in pair]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--world-seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or (args.world_seed is not None and args.world_seed < 0):
        parser.error("seeds must be non-negative")
    base = args.seed if args.world_seed is None else args.world_seed
    worlds = [base * WORLDS + j for j in range(WORLDS)]

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build()
    except (OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"perfbench: cannot build the benchmark: {e}")
        return 1
    os.makedirs(OUT, exist_ok=True)

    try:
        reps = run_reps(args, worlds, traced_pairs=args.trace == 1)
        if args.trace == 0:
            values, results = end_to_end(args, worlds, reps)
            wanted = spec["end_to_end"]
        else:
            values, results = per_layer(args, worlds, reps)
            wanted = spec["per_layer"]
    except CheckFailed as e:
        log(f"perfbench: output check failed: {e}")
        return 2
    except subprocess.TimeoutExpired as e:
        log(f"perfbench: repetition timed out: {e}")
        return 1

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            log(f"perfbench: metric {m['name']} was not measured")
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": True,
        "attempted": sum(int(r["attempted"]) for r in results),
        "failed": sum(int(r["failed"]) for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
