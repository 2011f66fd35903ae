#!/usr/bin/env python3
"""End-to-end benchmark of the approximate-memory sorting library.

    python3 perfbench/run.py --workload sort_lsd6 --seed 1 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout. The first call builds perfbench_driver
(perfbench/CMakeLists.txt: ../src at the repository's default build type,
RelWithDebInfo) under .bench_build/perfbench. Each workload runs in its
own driver process.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run and writes its spans as Chrome trace-event JSON.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when the
correctness gate passed. --workload all runs every workload untraced and
traced, prints every metric by name and unit, and writes the per-layer
metrics and span files. See perfbench/README.md.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import metrics as m

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = BUILD / "out"
DRIVER = BUILD / "perfbench_driver"

# (name, unit) of every reported metric; directions and bounds are in
# BENCHMARK.json, and test_metrics.py keeps the two lists in step.
END_TO_END = [
    ("keys_per_s", "keys/s"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("write_cost_ratio", "ratio"),
    ("virtual_p50_us", "us"),
    ("virtual_p95_us", "us"),
]
PER_LAYER = [
    ("mlc.calibration_s", "s"),
    ("approx.set_range_mwords_per_s", "Mwords/s"),
    ("approx.get_range_mwords_per_s", "Mwords/s"),
    ("approx.set_mwords_per_s", "Mwords/s"),
    ("approx.get_mwords_per_s", "Mwords/s"),
    ("approx.word_writes", "count"),
    ("approx.word_reads", "count"),
    ("approx.corrupted_writes", "count"),
    ("approx.pv_iterations", "count"),
    ("sort.approx_stage_s", "s"),
    ("sort.baseline_s", "s"),
    ("sort.parallel_speedup", "ratio"),
    ("sortedness.measure_s", "s"),
    ("refine.refine_stage_s", "s"),
    ("core.engine_self_s", "s"),
    ("refine.rem_estimate", "count"),
    ("refine.refine_write_ops", "count"),
    ("cost_model.wr_abs_error", "ratio"),
    ("core.plan_s", "s"),
    ("core.plan_s.tenant-pcm", "s"),
    ("core.plan_s.tenant-banked", "s"),
    ("core.plan_s.tenant-spin", "s"),
    ("core.plan_s.extsort", "s"),
    ("core.attempts_per_job", "count"),
    ("service.submit_us", "us"),
    ("service.batch_s", "s"),
    ("service.critical_path_s", "s"),
    ("service.overhead_s", "s"),
    ("service.parallel_efficiency", "ratio"),
    ("service.batches", "count"),
    ("service.deferral_events", "count"),
    ("service.backlog_high_water", "count"),
    ("extsort.run_sort_s", "s"),
    ("extsort.merge_s", "s"),
    ("extsort.device_mb_per_s", "MB/s"),
    ("extsort.self_s", "s"),
    ("extsort.initial_runs", "count"),
    ("extsort.merge_passes", "count"),
    ("extsort.bytes_spilled", "bytes"),
    ("extsort.budget_high_water", "bytes"),
    ("extsort.run_formation_overlap", "ratio"),
    ("trace.overhead_frac", "ratio"),
]
SERVE_TENANTS = ("tenant-pcm", "tenant-banked", "tenant-spin")


def load_workloads():
    with open(HERE / "workloads.json") as f:
        return {w["name"]: w for w in json.load(f)["workloads"]}


def build():
    """Configures once and builds incrementally; build chatter goes to
    stderr so the result line stays last on stdout."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise SystemExit("perfbench: no library sources at %s; run from the "
                         "root of a full checkout" % (ROOT / "src"))
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit("perfbench: build step failed: " + " ".join(step))


class DriverFailed(Exception):
    """The driver crashed, wrote no samples or ran past its time limit."""


def driver_timeout_s(seconds):
    """Time limit of one driver process: a fixed allowance for set-up,
    warm-up and the traced run's replays, plus three times --seconds for
    the timed loop, which also runs the untimed work between operations
    (device staging, digests). At --seconds 20 and below it is 170 s, so a
    run that times out still ends within 180 s."""
    return max(170.0, 110.0 + 3.0 * seconds)


def run_driver(workload, seed, seconds, trace):
    """Runs one workload in its own process and returns its raw samples.
    Raises DriverFailed when the process fails or times out; a timed-out
    process is killed and reaped first."""
    OUT.mkdir(parents=True, exist_ok=True)
    raw_path = OUT / ("raw-%s-seed%d-trace%d.json"
                      % (workload["name"], seed, trace))
    raw_path.unlink(missing_ok=True)
    args = [str(DRIVER), "--name=" + workload["name"], "--seed=%d" % seed,
            "--seconds=%s" % seconds, "--trace=%d" % trace,
            "--out=" + str(raw_path)]
    args += ["--%s=%s" % kv for kv in workload["driver"].items()]
    limit = driver_timeout_s(seconds)
    try:
        done = subprocess.run(args, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        raise DriverFailed("driver on %s ran past %.0f s"
                           % (workload["name"], limit)) from None
    if done.returncode != 0 or not raw_path.exists():
        raise DriverFailed("driver failed on %s (exit %d)"
                           % (workload["name"], done.returncode))
    with open(raw_path) as f:
        return json.load(f)


def gate(raw):
    """Correctness gate: every operation verified, no driver error, and all
    repetitions (warm-up, untraced and traced) produced identical digests,
    which also pin the modeled costs. Returns a list of failures."""
    problems = list(raw["errors"])
    attempted, failed, _ = m.failed_fraction(raw["ops"])
    if attempted == 0:
        problems.append("no operation was timed")
    if failed:
        problems.append("%d of %d operations did not verify"
                        % (failed, attempted))
    digests = set(raw["digests"]) | set(raw["traced_digests"])
    if len(digests) != 1:
        problems.append("repetitions disagree: %s" % sorted(digests))
    return problems


def finite(value):
    """A driver value, with null (a non-finite number) read as +inf."""
    return math.inf if value is None else value


def end_to_end(raw):
    """End-to-end metrics of an untraced run, plus the extra figures the
    report prints (failed_frac, write_reduction, sample counts)."""
    ops = raw["ops"]
    attempted, failed, failed_frac = m.failed_fraction(ops)
    latencies = m.op_latencies(ops)
    virtual = [vus if ok else math.inf for _lat, _keys, ok, vus in ops]
    timed = raw["timed_s"]
    tail_pct, tail = m.tail_percentile(latencies)
    vtail_pct, vtail = m.tail_percentile(virtual)
    values = {
        "keys_per_s": sum(keys for _lat, keys, ok, _vus in ops if ok) / timed,
        "jobs_per_s": (attempted - failed) / timed,
        "job_p50_ms": m.nearest_rank(sorted(latencies), 50) * 1e3,
        "job_p95_ms": tail * 1e3,
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "write_cost_ratio": finite(raw["write_cost_ratio"]),
        "virtual_p50_us": m.nearest_rank(sorted(virtual), 50),
        "virtual_p95_us": vtail,
    }
    extra = {
        "failed_frac": failed_frac,
        "write_reduction": 1.0 - values["write_cost_ratio"],
        "virtual_makespan_s": raw["virtual_makespan_us"] / 1e6,
        "job_latency_samples": attempted,
        "job_p95_ms is percentile": tail_pct,
        "virtual_p95_us is percentile": vtail_pct,
        "setup_samples": len(raw["setup_s"]),
        "timed_s": timed,
    }
    return values, extra


def per_layer(raw):
    """Per-layer metrics of a traced run. A layer the workload bypasses
    reports 0; the returned list names those metrics."""
    layers = dict(raw["layers"])
    layers["mlc.calibration_s"] = statistics.median(raw["calibration_s"])
    layers["trace.overhead_frac"] = (
        statistics.median(raw["traced_rep_s"])
        / statistics.median(raw["untraced_rep_s"]) - 1.0)
    jobs = raw["jobs"]
    if jobs:
        plan = sum(row[5] for row in jobs)
        layers["core.plan_s"] = plan
        for index, tenant in enumerate(SERVE_TENANTS):
            layers["core.plan_s." + tenant] = sum(
                row[5] for row in jobs if row[1] == index)
        layers["core.plan_s.extsort"] = sum(
            row[5] for row in jobs if row[2] == 1)
        layers["core.attempts_per_job"] = (
            sum(row[6] for row in jobs) / len(jobs))
        critical = m.critical_path(jobs)
        batch = layers["service.batch_s"]
        layers["service.critical_path_s"] = critical
        layers["service.overhead_s"] = batch - critical
        layers["service.parallel_efficiency"] = plan / (
            batch * raw["threads"])
    bypassed = [name for name, _unit in PER_LAYER if name not in layers]
    for name in bypassed:
        layers[name] = 0.0
    return {name: layers[name] for name, _unit in PER_LAYER}, bypassed


def report(title, values, units, extra=None, bypassed=()):
    print(title)
    for name, unit in units:
        note = " (bypassed)" if name in bypassed else ""
        print("  %-32s %16.6g %s%s" % (name, values[name], unit, note))
    for name, value in (extra or {}).items():
        print("  %-32s %16.6g" % (name, value))


def result_line(correct, raw, values, units):
    attempted, failed, _ = m.failed_fraction(raw["ops"])
    metrics = {}
    for name, unit in units:
        value = values[name]
        metrics[name] = {"value": value if math.isfinite(value) else None,
                         "unit": unit}
    return json.dumps({"correct": correct, "attempted": max(attempted, 1),
                       "failed": failed if attempted else 1,
                       "metrics": metrics})


def failed_line(units):
    """The result line of a run whose driver produced no samples."""
    return json.dumps({"correct": False, "attempted": 1, "failed": 1,
                       "metrics": {name: {"value": None, "unit": unit}
                                   for name, unit in units}})


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=1)
        f.write("\n")


def run_one(workload, seed, seconds, trace):
    """One workload, one process. Returns (problems, values, raw)."""
    raw = run_driver(workload, seed, seconds, trace)
    problems = gate(raw)
    name = workload["name"]
    if trace:
        values, bypassed = per_layer(raw)
        stem = "%s-seed%d" % (name, seed)
        write_json(OUT / ("layers-%s.json" % stem),
                   {"workload": name, "seed": seed, "metrics": values,
                    "bypassed": bypassed})
        write_json(OUT / ("trace-%s.json" % stem),
                   m.chrome_trace(raw["spans"]))
        report("%s (traced, seed %d); spans in %s" % (
            name, seed, OUT / ("trace-%s.json" % stem)), values, PER_LAYER,
            bypassed=bypassed)
    else:
        values, extra = end_to_end(raw)
        report("%s (seed %d)" % (name, seed), values, END_TO_END, extra)
    for problem in problems:
        print("  GATE FAILED: " + problem)
    return problems, values, raw


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = load_workloads()
    if args.workload != "all" and args.workload not in workloads:
        parser.error("unknown workload %r (have: all, %s)"
                     % (args.workload, ", ".join(workloads)))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    build()

    if args.workload != "all":
        units = PER_LAYER if args.trace else END_TO_END
        try:
            problems, values, raw = run_one(workloads[args.workload],
                                            args.seed, args.seconds,
                                            args.trace)
        except DriverFailed as failure:
            print("  GATE FAILED: %s" % failure)
            print(failed_line(units))
            return 1
        print(result_line(not problems, raw, values, units))
        return 0 if not problems else 1

    # Every workload untraced, then traced with the same seed; the two
    # processes must produce the same digests.
    summary = {}
    failed = False
    for name, workload in workloads.items():
        try:
            problems, values, raw = run_one(workload, args.seed,
                                            args.seconds, 0)
            traced_problems, layer_values, traced_raw = run_one(
                workload, args.seed, args.seconds, 1)
        except DriverFailed as failure:
            print("  GATE FAILED: %s" % failure)
            failed = True
            summary[name] = {"correct": False, "problems": [str(failure)]}
            continue
        problems += traced_problems
        if set(raw["digests"]) != set(traced_raw["digests"]):
            problems.append("traced and untraced runs disagree")
            print("  GATE FAILED: traced and untraced runs disagree")
        failed = failed or bool(problems)
        summary[name] = {"correct": not problems, "problems": problems,
                         "end_to_end": values, "per_layer": layer_values}
    write_json(OUT / ("summary-seed%d.json" % args.seed), summary)
    print(json.dumps({"correct": not failed,
                      "workloads": {name: result["correct"]
                                    for name, result in summary.items()}}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
