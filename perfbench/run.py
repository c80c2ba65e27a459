#!/usr/bin/env python3
"""The exiot benchmark: builds perfbench/ against src/ and runs one workload.

    python3 perfbench/run.py --workload live_day|replay_day|api_mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build), scratch files to .bench_out. The human-readable lines come
first (manifest, metrics with unit and sample count, problems); the last
line is the JSON result: the end-to-end metrics with --trace 0, the
per-layer metrics (span self times folded from the span file) with
--trace 1. Metric names and units come from BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # Leave nothing behind in perfbench/.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("live_day", "replay_day", "api_mixed")
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns the binary or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: src/ not found next to perfbench/; nothing to build")
        return None
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "exiot_perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            log("perfbench: build failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "exiot_perfbench")


def git_commit():
    """HEAD of the checkout, or "unavailable" when it is not a git work
    tree of its own (a parent directory's repository does not count)."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unavailable"
    return lines[1]


def source_sha1():
    """Digest of the sources the benchmark builds (stands in for the commit
    when the checkout is not a git repository)."""
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    if binary is None:
        return 2
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--commit", git_commit(),
           "--source-sha1", source_sha1()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        log(proc.stdout)
        log(f"perfbench: run failed with code {proc.returncode}")
        return 3
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    problems = []

    if args.trace:
        span_file = os.path.join(out_dir,
                                 f"spans-{args.workload}-{args.seed}.csv")
        layers = spans.layer_metrics(span_file)
        for name, (value, unit, n, note) in layers.items():
            metrics[name] = {"value": value, "unit": unit, "samples": n}
            print(f"metric {name:32} {value:.6g} {unit} (n={n})  {note}")
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]

    final = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            if args.trace:
                # The layer is not on this workload's path.
                final[m["name"]] = {"value": 0.0, "unit": m["unit"]}
                continue
            problems.append(f"missing metric {m['name']}")
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        final[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for p in problems:
        print(f"problem {p}")

    out = {"correct": bool(result["correct"]) and not problems,
           "attempted": int(result["attempted"]),
           "failed": int(result["failed"]),
           "metrics": final}
    record = os.path.join(
        out_dir, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump({"lines": lines[:-1], "all_metrics": metrics,
                   "result": out}, f, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
