#include "bench.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "json/json.h"

namespace exiot::perfbench {

// ---------------------------------------------------------------------------
// Knobs.

void apply_thread_knobs(pipeline::PipelineConfig& config) {
  config.num_producer_threads = config.num_detector_shards =
      config.num_annotate_workers = 4;
}

pipeline::PipelineConfig live_pipeline_config(
    const std::filesystem::path& data_dir) {
  pipeline::PipelineConfig config;
  config.telescope = telescope_aperture();
  apply_thread_knobs(config);
  config.num_sites = 1;
  config.data_dir = data_dir;
  config.wal_fsync = store::WalFsync::kOnRoll;
  return config;
}

api::TcpListenerOptions api_listener_options() {
  api::TcpListenerOptions options;
  options.num_event_loops = 1;
  options.num_workers = 2;
  return options;
}

Cidr telescope_aperture() { return Cidr(Ipv4(44, 0, 0, 0), 8); }

Sim make_sim(std::uint64_t seed) {
  Sim sim{inet::WorldModel::standard(telescope_aperture()), {}};
  inet::PopulationConfig config;
  config.days = 1;
  config.seed = seed;
  sim.population =
      inet::Population::generate(config.scaled(kScale), sim.world);
  return sim;
}

// ---------------------------------------------------------------------------
// Manifest.

namespace {

const char* sanitizer_name() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

const char* fsync_name(store::WalFsync fsync) {
  switch (fsync) {
    case store::WalFsync::kNone:
      return "none";
    case store::WalFsync::kOnRoll:
      return "on-roll";
    case store::WalFsync::kEveryAppend:
      return "every-append";
  }
  return "?";
}

json::Value num(std::size_t v) {
  return json::Value(static_cast<std::int64_t>(v));
}
json::Value num(int v) { return json::Value(static_cast<std::int64_t>(v)); }

}  // namespace

std::string manifest_json(const Options& opts) {
  json::Value m;
  m["workload"] = opts.workload;
  m["seed"] = static_cast<std::int64_t>(opts.seed);
  m["scale"] = kScale;
  m["hours"] = num(kDayHours);
  m["seconds"] = opts.seconds;
  m["trace"] = opts.trace;
  m["hardware_threads"] =
      num(static_cast<std::size_t>(std::thread::hardware_concurrency()));
  m["build_type"] = EXIOT_BENCH_BUILD_TYPE;
  m["sanitizer"] = sanitizer_name();
  m["git_commit"] = opts.commit;

  const pipeline::PipelineConfig pc = live_pipeline_config("");
  json::Value p;
  p["num_producer_threads"] = num(pc.num_producer_threads);
  p["producer_batch_size"] = num(pc.producer_batch_size);
  p["producer_queue_capacity"] = num(pc.producer_queue_capacity);
  p["num_detector_shards"] = num(pc.num_detector_shards);
  p["buffer_capacity"] = num(pc.buffer_capacity);
  p["ingest_batch_size"] = num(pc.ingest_batch_size);
  p["decode_batch_size"] = num(pc.decode_batch_size);
  p["num_annotate_workers"] = num(pc.num_annotate_workers);
  p["annotate_queue_capacity"] = num(pc.annotate_queue_capacity);
  p["num_sites"] = num(pc.num_sites);
  p["wal"] = true;
  p["wal_fsync"] = fsync_name(pc.wal_fsync);
  p["wal_segment_bytes"] = num(pc.wal_segment_bytes);
  p["snapshot_interval_hours"] = num(pc.snapshot_interval_hours);
  p["trace_sample"] = pc.trace_sample;
  m["pipeline"] = std::move(p);

  json::Value r;
  r["sites"] = num(kReplaySites);
  r["detector_shards"] = num(kReplayShards);
  r["decode_batch_size"] = num(kReplayBatch);
  m["replay"] = std::move(r);

  const api::TcpListenerOptions lo = api_listener_options();
  json::Value a;
  a["num_event_loops"] = num(lo.num_event_loops);
  a["num_workers"] = num(lo.num_workers);
  a["queue_capacity"] = num(lo.queue_capacity);
  a["max_requests_per_connection"] = num(lo.max_requests_per_connection);
  a["max_request_bytes"] = num(lo.max_request_bytes);
  a["stream_watermark_bytes"] = num(lo.stream_watermark_bytes);
  a["read_timeout_ms"] = num(static_cast<std::size_t>(lo.read_timeout.count()));
  a["write_timeout_ms"] =
      num(static_cast<std::size_t>(lo.write_timeout.count()));
  a["cache_bytes"] = num(kApiCacheBytes);
  a["rate_limiter"] = false;
  a["client_connections"] = num(kApiConnections);
  m["api"] = std::move(a);
  return m.dump();
}

// ---------------------------------------------------------------------------
// Percentiles.

namespace {

/// Nearest-rank quantile of an ascending vector (q in (0, 1]).
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

}  // namespace

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = quantile_sorted(values, 0.5);
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(s.n) - 1e-9));
    if (s.n - std::min(rank, s.n) >= 10) {
      s.tail_q = q;
      s.tail = quantile_sorted(values, q);
      s.beyond = s.n - rank;
      break;
    }
  }
  return s;
}

std::string percentile_label(double q) {
  if (q <= 0.0) return "none";
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%g", q * 100.0);
  return buf;
}

bool percentile_selftest(std::string* why) {
  auto expect = [why](bool ok, const char* what) {
    if (!ok && why->empty()) *why = what;
    return ok;
  };
  bool ok = true;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  std::reverse(v.begin(), v.end());  // summarize must sort.
  Summary s = summarize(v);
  ok &= expect(s.n == 1000 && s.p50 == 500.0, "p50 of 1..1000");
  ok &= expect(s.tail_q == 0.99 && s.tail == 990.0 && s.beyond == 10,
               "1000 samples report p99 with 10 beyond");
  v.pop_back();  // 999 samples: p99 would leave 9 beyond.
  s = summarize(v);
  ok &= expect(s.tail_q == 0.95 && s.beyond >= 10, "999 samples fall to p95");
  v.assign(10000, 1.0);
  v.back() = 50.0;
  s = summarize(v);
  ok &= expect(s.tail_q == 0.999 && s.beyond == 10 && s.tail == 1.0,
               "10000 samples report p99.9");
  v.assign(19, 2.0);
  s = summarize(v);
  ok &= expect(s.tail_q == 0.0 && s.p50 == 2.0, "19 samples have no tail");
  v.assign(20, 3.0);
  s = summarize(v);
  ok &= expect(s.tail_q == 0.5 && s.beyond == 10, "20 samples report p50");
  ok &= expect(summarize({}).n == 0, "empty input");
  ok &= expect(percentile_label(0.999) == "p99.9", "label");
  return ok;
}

// ---------------------------------------------------------------------------
// Spans.

SpanLog& spans() {
  static SpanLog log;
  return log;
}

std::uint32_t SpanLog::open(const char* name) {
  Rec rec;
  rec.name = name;
  rec.trace = trace_;
  rec.parent = stack_.empty() ? 0 : stack_.back();
  rec.start_ns = now_ns();
  spans_.push_back(rec);
  const auto id = static_cast<std::uint32_t>(spans_.size());
  stack_.push_back(id);
  return id;
}

void SpanLog::close(std::uint32_t id) {
  spans_[id - 1].end_ns = now_ns();
  // Spans close in LIFO order (RAII scopes on one thread).
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void SpanLog::record(const char* name, std::int64_t start_ns,
                     std::int64_t end_ns) {
  Rec rec;
  rec.name = name;
  rec.trace = ++trace_;
  rec.start_ns = start_ns;
  rec.end_ns = end_ns;
  spans_.push_back(rec);
}

bool SpanLog::write_csv(const std::filesystem::path& file) const {
  std::FILE* out = std::fopen(file.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "trace,id,parent,name,start_ns,end_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    std::fprintf(out, "%llu,%zu,%u,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(r.trace), i + 1, r.parent,
                 r.name, static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns));
  }
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------------
// Memory and helpers.

bool reset_peak_rss() {
  // Hand freed heap back to the kernel first, so the mark starts from what
  // is live rather than from what earlier work left cached in the arenas.
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB.
    }
  }
  return 0.0;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace exiot::perfbench
