#!/bin/sh
# End-to-end check of `exiotctl capture` followed by `exiotctl replay`:
# captures 12 hourly trace files (scale 0.1, seed 42) and replays them
# through the flow detector. Each file's expiry sweep must run at the end
# of the hour its name carries (telescope-<hour>.ext); with those
# barriers the replay detects 386 scanners, the same count as
# pipeline::ThreadedIngest::run_hour_batched over the same files.
#
# Usage: exiotctl_replay_test.sh <exiotctl> <scratch-parent-dir>
set -eu

exiotctl=$1
dir=$(mktemp -d "$2/exiotctl_replay.XXXXXX")
trap 'rm -rf "$dir"' EXIT

"$exiotctl" capture --dir "$dir" --hours 12 --scale 0.1 --seed 42 >/dev/null
total=$("$exiotctl" replay --dir "$dir" | tail -n 1)
echo "$total"
case $total in
    *", 386 scanners detected") ;;
    *) echo "FAIL: expected 386 scanners detected" >&2; exit 1 ;;
esac
