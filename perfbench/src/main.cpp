// exiot_perfbench --workload <live_day|replay_day|api_mixed> --seed N
//                 --seconds S --trace 0|1 --out-dir DIR
//                 [--commit SHA] [--source-sha1 HASH]
//
// Prints the run manifest, one line per metric (name, value, unit, sample
// count), and as its last line a JSON object with the correctness verdict
// and every metric. With --trace 1 the spans are written to
// DIR/spans-<workload>-<seed>.csv for perfbench/run.py to fold into
// per-layer self times.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "json/json.h"

using namespace exiot;
using namespace exiot::perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: exiot_perfbench --workload live_day|replay_day|"
               "api_mixed --seed N --seconds S --trace 0|1 --out-dir DIR "
               "[--commit SHA] [--source-sha1 HASH]\n");
  return 2;
}

void print_metric(const std::string& name, const Metric& m) {
  std::printf("metric %-32s %.6g %s (n=%zu)%s%s\n", name.c_str(), m.value,
              m.unit.c_str(), m.samples, m.note.empty() ? "" : "  ",
              m.note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string source_sha1 = "unknown";
  bool have_dir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opts.trace = value == "1";
    } else if (key == "--out-dir") {
      opts.out_dir = value;
      have_dir = true;
    } else if (key == "--commit") {
      opts.commit = value;
    } else if (key == "--source-sha1") {
      source_sha1 = value;
    } else {
      return usage();
    }
  }
  if (!have_dir || !(opts.seconds > 0.0)) return usage();
  std::filesystem::create_directories(opts.out_dir);

  std::printf("manifest %s source_sha1=%s\n", manifest_json(opts).c_str(),
              source_sha1.c_str());
  std::fflush(stdout);

  RunResult res;
  if (opts.workload == "live_day") {
    res = run_live_day(opts);
  } else if (opts.workload == "replay_day") {
    res = run_replay_day(opts);
  } else if (opts.workload == "api_mixed") {
    res = run_api_mixed(opts);
  } else {
    return usage();
  }
  std::string why;
  if (!percentile_selftest(&why)) res.fail("percentile self-test: " + why);
  if (res.attempted == 0) res.fail("no operation attempted");

  if (opts.trace) {
    const auto file = opts.out_dir / ("spans-" + opts.workload + "-" +
                                      std::to_string(opts.seed) + ".csv");
    if (!spans().write_csv(file)) res.fail("cannot write " + file.string());
    std::printf("spans %s %zu\n", file.c_str(), spans().size());
  }
  for (const auto& [name, m] : res.report_only) print_metric(name, m);
  for (const auto& [name, m] : res.metrics) print_metric(name, m);
  std::printf("metric %-32s %.6g ratio (n=%llu)\n", "failed_ratio",
              res.attempted ? static_cast<double>(res.failed) /
                                  static_cast<double>(res.attempted)
                            : 1.0,
              static_cast<unsigned long long>(res.attempted));
  for (const auto& p : res.problems) std::printf("problem %s\n", p.c_str());

  json::Value out;
  out["correct"] = res.correct;
  out["attempted"] = static_cast<std::int64_t>(res.attempted);
  out["failed"] = static_cast<std::int64_t>(res.failed);
  json::Value metrics{json::Object{}};
  for (const auto& [name, m] : res.metrics) {
    json::Value v;
    v["value"] = std::isfinite(m.value) ? m.value : -1.0;
    v["unit"] = m.unit;
    v["samples"] = static_cast<std::int64_t>(m.samples);
    metrics[name] = std::move(v);
  }
  out["metrics"] = std::move(metrics);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
