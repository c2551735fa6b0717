#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload sched --seed 7 --seconds 15 --trace 0

Run from the root of a source tree. It builds perfbench_runner (the
perfbench CMake package, which compiles the library from ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload, checks its outputs and prints one line per metric followed by
a last line holding one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
measured with the benchmark's spans off; with --trace 1 they are the
per-layer ones, from a run that adds traced loops. README.md defines
every metric and workload.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

REAL_WORKLOADS = ("sched", "sched_ft", "mandelbrot")
WORKLOADS = REAL_WORKLOADS + ("sim_paper",)
# A rank's spans must account for its finish time within this share.
LEDGER_LIMIT = 0.05


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def median(values):
    return statistics.median(values) if values else 0.0


def low(values):
    """The lowest decile. Set-up is fixed work that a busy host only
    lengthens, so its low end is what the code costs."""
    ordered = sorted(values)
    return ordered[len(ordered) // 10]


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def build(root, build_dir):
    if not (root / "src").is_dir() or not (root / "CMakeLists.txt").is_file():
        fail("run from the root of the hdls source tree (src/ and CMakeLists.txt not found)")
    bench_dir = Path(__file__).resolve().parent
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=log, stderr=log, timeout=300)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench_runner",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=log, stderr=log, timeout=840)
    return build_dir / "perfbench_runner"


def run_runner(binary, out_dir, workload, seed, seconds, spans):
    out = out_dir / f"{workload}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--out", str(out)]
    if spans:
        cmd += ["--spans", str(out_dir / f"spans-{workload}.bin")]
    # HDLS_* knobs would override the configs the workloads pin down.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HDLS_")}
    subprocess.run(cmd, check=True, env=env, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=seconds + 150)
    return json.loads(out.read_text())


def series(doc, **labels):
    """Samples of the point whose labels include `labels`: name -> values."""
    for point in doc["points"]:
        if all(point["labels"].get(k) == v for k, v in labels.items()):
            return {name: m["values"] for name, m in point["metrics"].items()}
    return {}


def per_chunk(loops, counter):
    chunks = sum(loops["exec_chunks"])
    return sum(loops[counter]) / chunks if chunks else 0.0


def real_end_to_end(real, notes):
    mpi = series(real, series="loop", approach="MPI+MPI", spans="0")
    hybrid = series(real, series="loop", approach="MPI+OpenMP")
    value, pct, n = tail(mpi["loop_s"])
    setups = mpi["setup_s"] + hybrid["setup_s"]
    notes.append(f"loop_tail_s is p{pct:.1f} of {n} MPI+MPI loops; "
                 f"{len(hybrid['loop_s'])} MPI+OpenMP loops; "
                 f"setup_s is p10 of {len(setups)} loops")
    return {
        "loop_s": median(mpi["loop_s"]),
        "loop_tail_s": value,
        "hybrid_loop_s": median(hybrid["loop_s"]),
        "setup_s": low(setups),
    }


def real_per_layer(real, notes):
    mpi = series(real, series="loop", approach="MPI+MPI", spans="0")
    traced = series(real, series="loop", approach="MPI+MPI", spans="1")
    hybrid = series(real, series="loop", approach="MPI+OpenMP")
    serial = series(real, series="serial")
    n = int(real["params"]["iterations"])
    loop_s = median(mpi["loop_s"])
    busy_s = median(mpi["busy_s"])
    hits, misses = sum(mpi["prefetch_hits"]), sum(mpi["prefetch_misses"])
    acquires = sum(mpi["parent_acquires"])
    serial_s = median(serial["serial_s"])
    escape = serial["escape_iterations"][0]
    # Per loop the worst rank's gap; every loop must close.
    gaps = traced["ledger_gap"]
    ledger = max(gaps)
    over = sum(gap > LEDGER_LIMIT for gap in gaps)
    notes.append(f"{len(gaps)} traced loops; worst-rank ledger gap median "
                 f"{100 * median(gaps):.3f}%, max {100 * ledger:.3f}%; "
                 f"{over} loops over the {100 * LEDGER_LIMIT:.0f}% limit")
    return {
        "core.acquire_ns.p50": median(traced["acquire_p50_ns"]),
        "core.acquire_ns.p99": median(traced["acquire_p99_ns"]),
        "core.parent_acquire_ns.mean":
            sum(mpi["parent_acquire_ns_sum"]) / acquires if acquires else 0.0,
        "core.refills": median(mpi["refills"]),
        "core.pops": median(mpi["pops"]),
        "core.termination_spins": median(mpi["termination_spins"]),
        "core.prefetch_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "core.lease.fence_ns.p50": median(traced["fence_p50_ns"]),
        "core.lease.acquires_per_chunk": per_chunk(mpi, "lease_acquires"),
        "core.runner.setup_s": median(traced["runner_setup_s"]),
        "core.runner.teardown_s": median(traced["runner_teardown_s"]),
        "minimpi.lock_epochs_per_chunk": per_chunk(mpi, "lock_epochs"),
        "minimpi.lock_retries_per_chunk": per_chunk(mpi, "lock_retries"),
        "minimpi.cas_retries_per_chunk": per_chunk(mpi, "cas_retries"),
        "minimpi.backoff_yields_per_chunk": per_chunk(mpi, "backoff_yields"),
        "minimpi.backoff_sleeps_per_chunk": per_chunk(mpi, "backoff_sleeps"),
        "minimpi.requests_per_chunk": per_chunk(mpi, "requests"),
        "dls.chunks": median(mpi["chunks"]),
        "dls.root_chunks": median(mpi["root_chunks"]),
        "dls.finish_cov": median(mpi["finish_cov"]),
        "dls.efficiency": median(mpi["efficiency"]),
        "dls.speedup": serial_s / loop_s,
        "apps.body_ns_per_iter": 1e9 * busy_s / n,
        "apps.escape_iters_per_s": escape / busy_s if busy_s else 0.0,
        "apps.serial_s": serial_s,
        "ompsim.team_chunks": median(hybrid["team_chunks"]),
        "ompsim.team_idle_s": 1e-9 * median(hybrid["team_idle_ns"]),
        "bench.span_overhead_frac": median(traced["loop_s"]) / loop_s - 1.0,
        "bench.ledger_gap_frac": ledger,
    }, over == 0


# The simulator is deterministic and single-threaded: every repeat of a
# configuration does the same work, and a busy host only ever adds time. So
# a configuration's wall time is its fastest repeat, which stays put when
# the host's speed drifts; the executors' loops, whose work depends on
# timing, use medians.

def case_minima(samples, key="wall_s"):
    """Fastest repeat of each configuration."""
    by_case = {}
    for case, value in zip(samples["case"], samples[key]):
        by_case.setdefault(case, []).append(value)
    return [min(values) for values in by_case.values()]


def paper_end_to_end(sim, notes):
    # One sample per sweep configuration: its fastest repeat in the run.
    mpi = case_minima(series(sim, series="simulate", model="MPI+MPI"))
    hybrid = case_minima(series(sim, series="simulate", model="MPI+OpenMP"))
    traced = series(sim, series="traced")
    traced_minima = case_minima(traced, "total_s")
    setups = series(sim, series="setup")["setup_s"]
    notes.append(f"{len(mpi)} MPI+MPI sweep configurations; loop_tail_s is the traced time of "
                 f"{len(traced_minima)} configurations from {len(traced['total_s'])} traced "
                 f"runs; setup_s is p10 of {len(setups)} trace builds")
    return {
        "loop_s": median(mpi),
        # Tracing is this workload's reason: its time is gated end to end.
        "loop_tail_s": sum(traced_minima),
        "hybrid_loop_s": median(hybrid),
        "setup_s": low(setups),
    }


def sim_per_layer(sim):
    mpi = series(sim, series="simulate", model="MPI+MPI")
    hybrid = series(sim, series="simulate", model="MPI+OpenMP")
    walls = mpi["wall_s"] + hybrid["wall_s"]
    traced = series(sim, series="traced")
    return {
        "sim.sweep_s": sum(case_minima(mpi)) + sum(case_minima(hybrid)),
        "sim.simulate_ms.p50": 1e3 * median(walls),
        "sim.simulations": float(len(walls)),
        "trace.traced_simulate_ms.p50": 1e3 * median(traced["simulate_s"]),
        "trace.overhead_x": median(traced["overhead_x"]),
        "trace.events": sum(case_minima(traced, "events")),
        "trace.analyze_ms": 1e3 * median(traced["analyze_s"]),
        "trace.export_ms": 1e3 * median(traced["export_s"]),
    }


def load_declared(root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or not math.isfinite(args.seconds):
        fail("--seconds must be positive")

    root = Path.cwd()
    end_to_end, per_layer = load_declared(root)
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    try:
        binary = build(root, build_dir)
    except (subprocess.SubprocessError, OSError) as e:
        fail(f"build failed: {e}")
    out_dir = build_dir / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)

    spans = args.trace == 1
    real = args.workload in REAL_WORKLOADS
    notes = []
    values = {}
    checks_ok = True
    try:
        doc = run_runner(binary, out_dir, args.workload, args.seed, args.seconds, spans and real)
        if real and spans:
            layer, checks_ok = real_per_layer(doc, notes)
            values.update(layer)
        elif real:
            values.update(real_end_to_end(doc, notes))
        elif spans:
            values.update(sim_per_layer(doc))
        else:
            values.update(paper_end_to_end(doc, notes))
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        fail(f"{args.workload} run failed: {e!r}")

    process = series(doc, series="process")
    attempted = int(process["attempted"][0])
    failed = int(process["failed"][0])
    values["peak_rss_mb"] = process["peak_rss_mb"][0]

    declared = per_layer if spans else end_to_end
    metrics = {}
    for m in declared:
        # A layer the workload never enters (e.g. the executors on
        # sim_paper) reads 0; every end-to-end metric must be measured.
        if m["name"] not in values and not spans:
            fail(f"end-to-end metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}

    meta, params = doc["meta"], doc["params"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"git {meta['git_sha']}, {meta['compiler']}, {params['build_type']}, "
          f"nproc {params['nproc']}, simd {params['simd_backend']}")
    for note in notes:
        print(f"  {note}")
    print(f"  fail_frac {failed / attempted if attempted else 1.0:.6f} "
          f"({failed} of {attempted} operations)")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and checks_ok and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
