#!/bin/sh
# Compares freshly produced BENCH_*.json files against the committed
# baselines in bench/baselines/. The throughput keys (pps, rps,
# records_per_s, *_banners_per_s) must not fall below THRESHOLD x the
# baseline value — a deliberately generous bar (default 0.4) so only a
# genuine regression (a serialized stage, an accidental O(n^2)) trips it,
# not CI-machine noise or core-count differences.
#
# Usage: tools/check_bench_regression.sh [results-dir] [baselines-dir]
#   EXIOT_BENCH_THRESHOLD  minimum measured/baseline ratio (default 0.4)
#
# Missing result files fail (the bench stopped emitting JSON); throughput
# keys present in the result but not the baseline are reported as info so
# new tables get folded into the baseline on the next refresh.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
results=${1:-.}
baselines=${2:-"$root/bench/baselines"}
threshold=${EXIOT_BENCH_THRESHOLD:-0.4}

if ! [ -d "$baselines" ]; then
    echo "bench-regression: no baselines directory at $baselines"
    exit 1
fi

status=0
for baseline in "$baselines"/BENCH_*.json; do
    [ -e "$baseline" ] || {
        echo "bench-regression: no baselines in $baselines"; exit 1; }
    name=$(basename "$baseline")
    result="$results/$name"
    if ! [ -f "$result" ]; then
        echo "FAIL $name: bench did not write $result"
        status=1
        continue
    fi
    python3 - "$baseline" "$result" "$threshold" <<'EOF' || status=1
import json
import sys

THROUGHPUT_KEYS = {"pps", "rps", "records_per_s",
                   "linear_banners_per_s", "prefiltered_banners_per_s"}

def leaves(node, path=""):
    """Flattens to {json-path: value} for throughput keys, labelling list
    entries by their identifying fields so rows align across runs."""
    out = {}
    if isinstance(node, dict):
        label = ",".join(f"{k}={node[k]}" for k in
                         ("workers", "producers", "shards", "lanes", "sampling",
                          "mode", "sites", "coverage", "profile",
                          "cache", "conns", "loops")
                         if k in node)
        for key, value in node.items():
            if key in THROUGHPUT_KEYS and isinstance(value, (int, float)):
                out[f"{path}[{label}].{key}" if label
                    else f"{path}.{key}"] = float(value)
            else:
                out.update(leaves(value, f"{path}.{key}"))
    elif isinstance(node, list):
        for item in node:
            out.update(leaves(item, path))
    return out

base_file, result_file, threshold = sys.argv[1:4]
threshold = float(threshold)
with open(base_file) as f:
    base = leaves(json.load(f))
with open(result_file) as f:
    result = leaves(json.load(f))

name = base_file.rsplit("/", 1)[-1]
failed = False
for path, expected in sorted(base.items()):
    measured = result.get(path)
    if measured is None:
        print(f"FAIL {name}: {path} missing from {result_file}")
        failed = True
        continue
    if expected > 0 and measured < threshold * expected:
        print(f"FAIL {name}: {path} = {measured:.0f}, below "
              f"{threshold} x baseline {expected:.0f}")
        failed = True
for path in sorted(set(result) - set(base)):
    print(f"info {name}: {path} has no baseline (new table?)")
if not failed:
    print(f"ok   {name}: {len(base)} throughput values within "
          f"{threshold}x of baseline")
sys.exit(1 if failed else 0)
EOF
done

if [ "$status" -ne 0 ]; then
    echo "bench regression check failed"
    exit 1
fi
echo "bench regression check OK"
