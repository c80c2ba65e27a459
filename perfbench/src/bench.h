// Shared scaffolding of the exiot benchmark: the knob helper, the run
// manifest, percentile summaries, the in-memory span log, per-run peak RSS,
// digests, and the result every workload fills in.
//
// Spans are recorded only here, around the benchmark's own calls into each
// layer's public functions; the program under test carries no benchmark
// instrumentation.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "api/tcp.h"
#include "pipeline/exiot.h"

namespace exiot::perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------------
// Knobs. Every thread, batch and queue setting the benchmark passes to the
// program is set here and nowhere else.

/// Threads per pipeline stage (producers, detector shards, annotate
/// workers). Collapsing the per-stage knobs into one edits this helper only.
void apply_thread_knobs(pipeline::PipelineConfig& config);

/// The live pipeline: thread knobs, one site, WAL on (fsync on roll) in
/// `data_dir`.
pipeline::PipelineConfig live_pipeline_config(
    const std::filesystem::path& data_dir);

/// Replay: sites the capture is federated across and detector shards.
inline constexpr int kReplaySites = 4;
inline constexpr int kReplayShards = 1;
inline constexpr std::size_t kReplayBatch = 512;

/// API serving: what `exiotctl serve` uses by default, minus the rate
/// limiter, on one event loop and two workers.
api::TcpListenerOptions api_listener_options();
inline constexpr std::size_t kApiCacheBytes = 16u << 20;
inline constexpr int kApiConnections = 4;

inline constexpr double kScale = 0.5;
inline constexpr int kDayHours = 24;
/// Setups timed per run: live_day's population build takes milliseconds,
/// so five keep its median steady. The heavy ones (replay_day's one-day
/// capture, ~10 s and 1.4 GB of trace files; api_mixed's live_day feed)
/// are timed twice to keep a run inside the time budget.
inline constexpr int kSetupRepeats = 5;
inline constexpr int kHeavySetupRepeats = 2;

// ---------------------------------------------------------------------------
// Options and results.

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path out_dir;  // Scratch inside the checkout.
  std::string commit = "unknown";
};

/// One reported metric with its unit and the samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;  // Percentile used, base of a ratio, "derived", ...
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // Why `correct` is false.
  std::map<std::string, Metric> metrics;      // Final JSON metrics.
  std::map<std::string, Metric> report_only;  // Printed, not in the JSON.

  void set(const std::string& name, double value, std::string unit,
           std::size_t samples, std::string note = "") {
    metrics[name] = Metric{value, std::move(unit), samples, std::move(note)};
  }
  void print_only(const std::string& name, double value, std::string unit,
                  std::size_t samples, std::string note = "") {
    report_only[name] =
        Metric{value, std::move(unit), samples, std::move(note)};
  }
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// The run manifest: machine, build, seed, scale and every knob.
std::string manifest_json(const Options& opts);

// ---------------------------------------------------------------------------
// Percentiles.

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  /// The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples
  /// beyond it; 0 when fewer than 20 samples leave no such percentile.
  double tail_q = 0.0;
  double tail = 0.0;
  std::size_t beyond = 0;  // Samples above the tail percentile's rank.
};

Summary summarize(std::vector<double> values);
std::string percentile_label(double q);  // 0.99 -> "p99"

/// Checks the percentile helper on known inputs; false + reason on error.
bool percentile_selftest(std::string* why);

// ---------------------------------------------------------------------------
// Spans: kept in memory, written as CSV when the run ends. Single-threaded:
// every span the benchmark records is opened on the thread driving the
// layer call (callbacks of the layers run on that thread too).

class SpanLog {
 public:
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// Starts a new trace id for the spans opened after it.
  void begin_trace() { ++trace_; }
  std::uint32_t open(const char* name);
  void close(std::uint32_t id);
  /// Records an already-finished root span as its own trace (overlapping
  /// intervals such as open-loop requests).
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns);
  std::size_t size() const { return spans_.size(); }
  /// Writes `trace,id,parent,name,start_ns,end_ns` rows.
  bool write_csv(const std::filesystem::path& file) const;

 private:
  struct Rec {
    const char* name = nullptr;
    std::uint64_t trace = 0;
    std::uint32_t parent = 0;  // 0 = root.
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  bool enabled_ = false;
  std::uint64_t trace_ = 0;
  std::vector<Rec> spans_;           // id = index + 1.
  std::vector<std::uint32_t> stack_;  // Open span ids.
};

SpanLog& spans();

class Span {
 public:
  explicit Span(const char* name)
      : id_(spans().enabled() ? spans().open(name) : 0) {}
  ~Span() {
    if (id_ != 0) spans().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint32_t id_;
};

// ---------------------------------------------------------------------------
// Memory, digests, helpers.

/// Trims the heap and resets the kernel's peak-RSS mark for this process
/// (clear_refs 5), so the next peak_rss_mb() reads this run's peak, not
/// the process's.
bool reset_peak_rss();
double peak_rss_mb();

struct Digest {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64 offset basis.
  void add(std::string_view bytes) {
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void add_pod(const T& value) {
    add(std::string_view(reinterpret_cast<const char*>(&value), sizeof value));
  }
};

std::string hex64(std::uint64_t v);
double median(std::vector<double> values);

/// The world and population every workload starts from.
struct Sim {
  inet::WorldModel world;
  inet::Population population;
};
Sim make_sim(std::uint64_t seed);
Cidr telescope_aperture();

/// Times `build` `repeats` times and keeps the last result; returns the
/// median duration in seconds via `setup_s`. Each earlier result is
/// released before the next build starts.
template <typename T, typename Fn>
T timed_setup(int repeats, Fn&& build, double* setup_s) {
  std::vector<double> times;
  T kept{};
  for (int i = 0; i < repeats; ++i) {
    kept = T{};
    const auto t0 = Clock::now();
    kept = build();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  *setup_s = median(times);
  return kept;
}

RunResult run_live_day(const Options& opts);
RunResult run_replay_day(const Options& opts);
RunResult run_api_mixed(const Options& opts);

}  // namespace exiot::perfbench
