"""Per-layer self times from a span file written by exiot_perfbench.

A span row is `trace,id,parent,name,start_ns,end_ns`. A span's self time is
its duration minus the time its direct children cover; a layer's self time
is the sum over the spans of that layer. Seconds are per virtual day (per
traced iteration); handler and feed reads are per-call medians.

    python3 perfbench/spans.py .bench_out/spans-live_day-42.csv
"""
import csv
import statistics
import sys
from collections import defaultdict

# Layer -> the span names whose self time belongs to it.
SELF_LAYERS = {
    "telescope.synth_s": ["telescope.emit_batches"],
    "pipeline.federation.self_s": ["pipeline.federation.run_window",
                                   "pipeline.federation.demux"],
    "pipeline.ingest.self_s": ["pipeline.ingest.run_hour_batched",
                               "pipeline.ingest.consume"],
    "trace.decode_s": ["trace.decode"],
}
# Metric -> span name whose whole duration is the metric.
DURATION_LAYERS = {
    "pipeline.ingest.finish_s": "pipeline.ingest.finish",
    "trace.read_s": "trace.read",
}
MEDIAN_US = {
    "api.handle_us.records": "api.handle.records",
    "api.handle_us.records_ip": "api.handle.records_ip",
    "api.handle_us.snapshot": "api.handle.snapshot",
    "api.handle_us.query": "api.handle.query",
    "api.handle_us.export": "api.handle.export",
    "feed.read_us.records": "feed.read.records",
    "feed.read_us.snapshot": "feed.read.snapshot",
}


def load(path):
    """Returns {name: [(duration_ns, self_ns), ...]}."""
    spans = {}
    children = defaultdict(int)
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            start, end = int(row["start_ns"]), int(row["end_ns"])
            spans[int(row["id"])] = (row["name"], end - start)
            parent = int(row["parent"])
            if parent:
                children[parent] += end - start
    by_name = defaultdict(list)
    for sid, (name, dur) in spans.items():
        by_name[name].append((dur, dur - children[sid]))
    return by_name


def layer_metrics(path):
    """Returns {metric: (value, unit, samples, note)}."""
    by_name = load(path)

    def total(name, self_time=False):
        pairs = by_name.get(name, ())
        return sum(s if self_time else d for d, s in pairs) / 1e9

    iterations = len(by_name.get("bench.iteration", ()))
    chains = len(by_name.get("bench.chain", ()))
    days = chains or iterations
    out = {}
    if days:
        for metric, names in SELF_LAYERS.items():
            value = sum(total(n, self_time=True) for n in names) / days
            out[metric] = (value, "s", days, "self time per day")
        for metric, name in DURATION_LAYERS.items():
            out[metric] = (total(name) / days, "s", days, "per day")
    if iterations and "pipeline.run_hours" in by_name:
        run_hours = total("pipeline.run_hours") / iterations
        wall = total("bench.iteration") / iterations
        out["pipeline.finish_s"] = (total("pipeline.finish") / iterations, "s",
                                    iterations, "per day")
        if chains:
            rest = run_hours - total("bench.chain_hour") / chains
            out["pipeline.rest_s"] = (
                rest, "s", iterations,
                "derived: run_hours minus the capture->detect chain")
            covered = (out["telescope.synth_s"][0] +
                       out["pipeline.ingest.self_s"][0] + rest)
            out["obs.layer_coverage"] = (
                covered / wall, "ratio", iterations,
                "(synth + ingest self + rest) / traced day wall")
    for metric, name in MEDIAN_US.items():
        durations = [d for d, _ in by_name.get(name, ())]
        if durations:
            out[metric] = (statistics.median(durations) / 1e3, "us",
                           len(durations), "median per call")
    return out


if __name__ == "__main__":
    for name, (value, unit, n, note) in sorted(
            layer_metrics(sys.argv[1]).items()):
        print(f"{name:32} {value:.6g} {unit} (n={n})  {note}")
