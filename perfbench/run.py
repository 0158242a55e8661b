#!/usr/bin/env python3
"""la1kit benchmark entry point.

    python3 perfbench/run.py --workload abv-sim|campaign|mc-table2 \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds the la1perf binary from source into
.bench_build (or $CARGO_TARGET_DIR when set) on first use, runs one workload,
checks that the metrics it emitted are exactly the ones BENCHMARK.json
declares for the mode (end_to_end with --trace 0, per_layer with --trace 1),
writes the full report under <build>/results/, prints a readable summary to
stderr and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics":
     {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}

Exits non-zero without printing a result when the la1kit sources are
missing, the build fails, the run fails, or the manifest check fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

# Seed used while tuning the benchmark, and a held-out seed kept for
# confirming a claimed change on inputs the change was not tuned on.
TUNING_SEED = 7
HELDOUT_SEED = 2004

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
LAYER_MAP = os.path.join(BENCH_DIR, "layer_map.json")
BINARY_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds la1perf; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("la1kit sources not found under " + os.path.join(ROOT, "src"))
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "la1perf",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      cwd=ROOT).returncode
            except OSError as e:
                fail("cannot run %s: %s" % (cmd[0], e))
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build step failed: " + " ".join(cmd))
    return os.path.join(out_dir, "la1perf")


def check_manifest(manifest, mode, metrics, workload):
    """The benchmark checks itself: emitted == declared, units attached."""
    if workload not in [w["name"] for w in manifest["workloads"]]:
        fail("workload %s is not declared in BENCHMARK.json" % workload)
    with open(LAYER_MAP) as f:
        mapped = set(json.load(f)["metrics"])
    layers = {m["name"] for m in manifest["per_layer"]}
    if mapped != layers:
        fail("layer_map.json and BENCHMARK.json per_layer disagree: %s"
             % sorted(mapped ^ layers))
    declared = {m["name"]: m["unit"] for m in manifest[mode]}
    missing = sorted(set(declared) - set(metrics))
    extra = sorted(set(metrics) - set(declared))
    if missing or extra:
        fail("%s metrics disagree with BENCHMARK.json: missing %s, undeclared %s"
             % (mode, missing, extra))
    for name, value in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("metric %s is not a finite number: %r" % (name, value))
    return {name: {"value": metrics[name], "unit": declared[name]}
            for name in sorted(declared)}


def summary(report):
    lines = ["%s seed=%s trace=%s correct=%s attempted=%d failed=%d" % (
        report["workload"], report["seed"], int(report["trace"]),
        report["correct"], report["attempted"], report["failed"])]
    for e in report["errors"]:
        lines.append("  error: " + e)
    for name, value in sorted(report["metrics"].items()):
        lines.append("  %-34s %.6g" % (name, value))
    return "\n".join(lines) + "\n"


def main():
    manifest = json.load(open(MANIFEST)) if os.path.isfile(MANIFEST) else None
    default_seconds = manifest["run_seconds"] if manifest else 10
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=TUNING_SEED)
    parser.add_argument("--seconds", type=float, default=default_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if manifest is None:
        fail("BENCHMARK.json not found at " + MANIFEST)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    # la1perf takes a signed 64-bit seed; fold any integer into [0, 2^63).
    args.seed %= 1 << 63

    out_dir = build_dir()
    binary = build(out_dir)
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        # One span file per workload (tens of MB each); later runs overwrite.
        cmd += ["--spans", os.path.join(results, args.workload + ".spans.tsv")]
    started = time.time()
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True,
                             timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("la1perf did not finish within %d s" % BINARY_TIMEOUT_S)
    if run.returncode != 0:
        fail("la1perf exited with code %d" % run.returncode)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("la1perf printed no report")
    report = json.loads(lines[-1])
    report["host_seconds"] = time.time() - started
    mode = "per_layer" if args.trace else "end_to_end"
    metrics = check_manifest(manifest, mode, report["metrics"], args.workload)
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump(report, f, indent=1)
    sys.stderr.write(summary(report))
    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
