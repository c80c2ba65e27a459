#include "obs/span.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace exiot::obs {
namespace {

std::uint64_t process_start_micros() {
  static const std::uint64_t start = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return start;
}

/// splitmix64 finalizer: cheap, well-mixed, and identical on every thread —
/// the whole sampling decision rides on it.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string hex_id(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf);
}

}  // namespace

std::uint64_t steady_micros() {
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return now - process_start_micros();
}

const char* span_stage_name(SpanStage stage) {
  switch (stage) {
    case SpanStage::kProduce: return "produce";
    case SpanStage::kIngest: return "ingest";
    case SpanStage::kDetect: return "detect";
    case SpanStage::kAnnotate: return "annotate";
    case SpanStage::kCommit: return "commit";
    case SpanStage::kPublish: return "publish";
  }
  return "unknown";
}

Tracer::Tracer(TracerConfig config, MetricsRegistry* metrics)
    : tracer_id_([] {
        static std::atomic<std::uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()),
      config_(config),
      rings_(std::make_shared<Rings>()) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
  config_.sample_rate = std::clamp(config_.sample_rate, 0.0, 1.0);
  MetricsRegistry& reg = metrics != nullptr ? *metrics : scratch_registry();
  traces_c_ = &reg.counter("exiot_trace_traces_sampled_total",
                           "Trace contexts allocated by sampling decisions");
  recorded_c_ = &reg.counter("exiot_trace_spans_recorded_total",
                             "Spans recorded into per-thread rings");
  dropped_c_ = &reg.counter(
      "exiot_trace_spans_dropped_total",
      "Spans overwritten by per-thread ring overflow (oldest first)");
}

Tracer::~Tracer() = default;

std::uint64_t Tracer::record_key(std::uint32_t src,
                                 std::int64_t detect_time) {
  return mix64((static_cast<std::uint64_t>(src) << 32) ^
               static_cast<std::uint64_t>(detect_time));
}

TraceContext Tracer::maybe_trace(std::uint64_t key) const {
  if (config_.sample_rate <= 0.0) return {};
  // The top 53 bits of the mixed key, as a uniform double in [0, 1): the
  // comparison is exact for rate 1.0 and samples nothing at rate 0.
  const std::uint64_t mixed = mix64(key);
  const double u =
      static_cast<double>(mixed >> 11) * (1.0 / 9007199254740992.0);
  if (u >= config_.sample_rate) return {};
  traces_c_->inc();
  // id 0 is the "unsampled" sentinel, so force the low bit on.
  return TraceContext{mixed | 1ULL, steady_micros()};
}

Tracer::Ring& Tracer::local_ring() {
  // Each (thread, tracer) pair resolves its ring once, then reuses the
  // cached pointer. Keyed by tracer_id_ (unique per instance, never reused)
  // so rings of destroyed tracers can't alias a new tracer's cache slot.
  // On thread exit the cache hands each ring back to its tracer, if the
  // tracer is still alive.
  struct Lease {
    std::weak_ptr<Rings> owner;
    Ring* ring = nullptr;
  };
  struct Cache {
    std::unordered_map<std::uint64_t, Lease> leases;
    Cache() = default;
    Cache(const Cache&) = delete;
    Cache& operator=(const Cache&) = delete;
    ~Cache() {
      for (const auto& [id, lease] : leases) {
        if (const std::shared_ptr<Rings> owner = lease.owner.lock()) {
          std::lock_guard<std::mutex> lock(owner->mutex);
          owner->free.push_back(lease.ring);
        }
      }
    }
  };
  thread_local Cache cache;
  auto it = cache.leases.find(tracer_id_);
  if (it != cache.leases.end()) return *it->second.ring;
  std::erase_if(cache.leases,
                [](const auto& entry) { return entry.second.owner.expired(); });
  Ring* ring = nullptr;
  {
    std::lock_guard<std::mutex> lock(rings_->mutex);
    if (rings_->free.empty()) {
      rings_->all.push_back(std::make_unique<Ring>(config_.ring_capacity));
      ring = rings_->all.back().get();
    } else {
      ring = rings_->free.back();
      rings_->free.pop_back();
    }
  }
  cache.leases.emplace(tracer_id_, Lease{rings_, ring});
  return *ring;
}

void Tracer::record(const TraceContext& ctx, SpanStage stage,
                    std::uint64_t start_micros,
                    std::uint64_t processing_micros,
                    std::uint64_t queue_wait_micros, std::uint32_t src,
                    std::uint64_t seq) {
  if (!ctx.sampled()) return;
  Span span;
  span.trace_id = ctx.id;
  span.stage = stage;
  span.start_micros = start_micros;
  span.processing_micros = processing_micros;
  span.queue_wait_micros = queue_wait_micros;
  span.src = src;
  span.seq = seq;
  Ring& ring = local_ring();
  {
    std::lock_guard<std::mutex> lock(ring.mutex);
    if (ring.spans.size() < config_.ring_capacity) {
      ring.spans.push_back(span);
    } else {
      ring.spans[ring.next] = span;
      ring.next = (ring.next + 1) % config_.ring_capacity;
      dropped_c_->inc();
    }
  }
  recorded_c_->inc();
}

std::vector<Span> Tracer::snapshot() const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(rings_->mutex);
  for (const auto& ring : rings_->all) {
    std::lock_guard<std::mutex> ring_lock(ring->mutex);
    // Oldest-first: the overwrite cursor marks the oldest slot once the
    // ring has wrapped.
    for (std::size_t i = 0; i < ring->spans.size(); ++i) {
      out.push_back(ring->spans[(ring->next + i) % ring->spans.size()]);
    }
  }
  return out;
}

json::Value Tracer::to_json(std::size_t max_traces) const {
  struct Trace {
    std::uint32_t src = 0;
    std::uint64_t first_start = ~0ULL;
    std::vector<const Span*> spans;
  };
  const std::vector<Span> spans = snapshot();
  std::unordered_map<std::uint64_t, Trace> by_id;
  for (const Span& span : spans) {
    Trace& trace = by_id[span.trace_id];
    if (span.src != 0) trace.src = span.src;
    trace.first_start = std::min(trace.first_start, span.start_micros);
    trace.spans.push_back(&span);
  }
  // Most recently started traces first; they are what an operator
  // inspecting a live incident wants, and what `max_traces` keeps.
  std::vector<std::pair<std::uint64_t, Trace*>> ordered;
  ordered.reserve(by_id.size());
  for (auto& [id, trace] : by_id) ordered.emplace_back(id, &trace);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              if (a.second->first_start != b.second->first_start) {
                return a.second->first_start > b.second->first_start;
              }
              return a.first < b.first;
            });
  if (max_traces > 0 && ordered.size() > max_traces) {
    ordered.resize(max_traces);
  }

  json::Array traces;
  for (const auto& [id, trace] : ordered) {
    std::sort(trace->spans.begin(), trace->spans.end(),
              [](const Span* a, const Span* b) {
                if (a->start_micros != b->start_micros) {
                  return a->start_micros < b->start_micros;
                }
                return a->stage < b->stage;
              });
    json::Array span_array;
    for (const Span* span : trace->spans) {
      json::Object entry;
      entry["stage"] = span_stage_name(span->stage);
      entry["start_micros"] = static_cast<std::int64_t>(span->start_micros);
      entry["processing_micros"] =
          static_cast<std::int64_t>(span->processing_micros);
      entry["queue_wait_micros"] =
          static_cast<std::int64_t>(span->queue_wait_micros);
      if (span->seq != 0) {
        entry["seq"] = static_cast<std::int64_t>(span->seq);
      }
      span_array.push_back(std::move(entry));
    }
    json::Object obj;
    obj["trace_id"] = hex_id(id);
    if (trace->src != 0) {
      obj["src"] = static_cast<std::int64_t>(trace->src);
    }
    obj["spans"] = std::move(span_array);
    traces.push_back(std::move(obj));
  }

  json::Object root;
  root["sample_rate"] = config_.sample_rate;
  root["traces"] = std::move(traces);
  root["spans_recorded"] = static_cast<std::int64_t>(spans_recorded());
  root["spans_dropped"] = static_cast<std::int64_t>(spans_dropped());
  return json::Value(std::move(root));
}

std::uint64_t Tracer::spans_recorded() const {
  return static_cast<std::uint64_t>(recorded_c_->value());
}

std::uint64_t Tracer::spans_dropped() const {
  return static_cast<std::uint64_t>(dropped_c_->value());
}

}  // namespace exiot::obs
