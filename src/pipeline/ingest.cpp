#include "pipeline/ingest.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <thread>

namespace exiot::pipeline {

ThreadedIngest::ThreadedIngest(IngestConfig config,
                               flow::DetectorConfig detector_config,
                               flow::DetectorEvents sink,
                               std::vector<std::uint16_t> report_ports,
                               obs::MetricsRegistry* metrics,
                               obs::Tracer* tracer,
                               obs::Watchdog* watchdog)
    : sink_(std::move(sink)), tracer_(tracer), watchdog_(watchdog) {
  const int n = std::max(1, config.num_shards);
  obs::MetricsRegistry& reg =
      metrics != nullptr ? *metrics : obs::scratch_registry();
  packets_c_ = &reg.counter("exiot_ingest_packets_total",
                            "Packets routed through the capture->detect "
                            "stage.");
  events_c_ = &reg.counter("exiot_ingest_events_replayed_total",
                           "Detector events replayed into the downstream "
                           "at the hour barrier.");
  lanes_g_ = &reg.gauge("exiot_ingest_lanes",
                        "Capture lanes, each detecting its own sources.");
  lanes_g_->set(static_cast<double>(n));

  lanes_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto lane = std::make_unique<Lane>();
    Lane* lp = lane.get();
    flow::DetectorEvents events;
    events.on_scanner = [this, lp](const flow::FlowSummary& summary) {
      lp->events.push_back(Event{key_of(*lp), EventKind::kScanner,
                                 summary.src, summary, {}});
      if (tracer_ != nullptr && tracer_->enabled()) {
        // Root of the record trace: keyed by (src, detect_time), the same
        // identity exiot.cpp re-derives downstream — no context needs to
        // flow through the detector.
        const obs::TraceContext ctx =
            tracer_->maybe_trace(obs::Tracer::record_key(
                summary.src.value(), summary.detect_time));
        if (ctx.sampled()) {
          const std::uint64_t now = obs::steady_micros();
          const std::uint64_t start = lp->batch_start_micros;
          tracer_->record(ctx, obs::SpanStage::kDetect,
                          start != 0 ? start : now,
                          start != 0 && now > start ? now - start : 0, 0,
                          summary.src.value(), lp->cursor);
        }
      }
    };
    events.on_sample = [lp](Ipv4 src, const std::vector<net::Packet>& pkts) {
      lp->events.push_back(
          Event{key_of(*lp), EventKind::kSample, src, {}, pkts});
    };
    events.on_flow_end = [lp](const flow::FlowSummary& summary) {
      lp->events.push_back(Event{key_of(*lp), EventKind::kFlowEnd,
                                 summary.src, summary, {}});
    };
    events.on_report = [lp](const flow::SecondReport& report) {
      lp->reports.push_back(report);
    };
    lane->detector = std::make_unique<flow::FlowDetector>(
        detector_config, std::move(events), report_ports);
    lanes_.push_back(std::move(lane));
  }
}

ThreadedIngest::~ThreadedIngest() = default;

ThreadedIngest::Key ThreadedIngest::key_of(const Lane& lane) {
  if (lane.at_barrier) {
    return Key{std::numeric_limits<TimeMicros>::max(),
               std::numeric_limits<std::uint32_t>::max(),
               std::numeric_limits<std::uint64_t>::max()};
  }
  if (lane.hosts == nullptr) return Key{0, 0, lane.cursor};
  const std::size_t row = lane.cursor - lane.base;
  return Key{lane.ts[row], lane.hosts[row], lane.cursor};
}

std::size_t ThreadedIngest::run_hour_batched(const BatchSource& source,
                                             TimeMicros hour_end) {
  const std::size_t n = lanes_.size();
  const std::size_t count = source([this, n](const net::PacketBatch& in) {
    const std::size_t m = in.size();
    if (n == 1) {
      Lane& lane = *lanes_[0];
      lane.ordinals.resize(m);
      std::iota(lane.ordinals.begin(), lane.ordinals.end(), seq_);
      seq_ += m;
      lane.detector->process_batch(in, lane.ordinals.data(), &lane.cursor);
      return;
    }
    for (auto& lane : lanes_) {
      lane->routed.clear();
      lane->ordinals.clear();
    }
    const std::uint32_t* src = in.src();
    for (std::size_t i = 0; i < m; ++i) {
      Lane& lane = *lanes_[lane_of(src[i], n)];
      lane.routed.push_back(in[i]);
      lane.ordinals.push_back(seq_++);
    }
    for (auto& lane : lanes_) {
      lane->detector->process_batch(lane->routed, lane->ordinals.data(),
                                    &lane->cursor);
    }
  });
  return barrier(count, hour_end);
}

std::size_t ThreadedIngest::run_lane(std::size_t i, const LaneSource& source,
                                     bool tracing) {
  Lane& lane = *lanes_[i];
  auto heartbeat =
      obs::Watchdog::attach(watchdog_, "lane:" + std::to_string(i));
  std::uint64_t build_start = tracing ? obs::steady_micros() : 0;
  const std::size_t count = source(
      i, [&](const net::PacketBatch& batch, const std::uint32_t* hosts) {
        const std::size_t m = batch.size();
        lane.ordinals.resize(m);
        std::iota(lane.ordinals.begin(), lane.ordinals.end(),
                  lane.next_ordinal);
        lane.base = lane.next_ordinal;
        lane.next_ordinal += m;
        lane.ts = batch.ts();
        lane.hosts = hosts;
        obs::TraceContext trace;
        if (tracing) {
          // One trace per lane batch, keyed by (lane, batch ordinal):
          // building it (synthesis + federation filter) is the produce
          // span, detecting it the ingest span. Nothing waits in a queue.
          lane.batch_start_micros = obs::steady_micros();
          trace = tracer_->maybe_trace(obs::Tracer::record_key(
              static_cast<std::uint32_t>(i),
              static_cast<std::int64_t>(++lane.batch_seq)));
          tracer_->record(trace, obs::SpanStage::kProduce, build_start,
                          lane.batch_start_micros - build_start, 0, 0,
                          lane.batch_seq);
        }
        lane.detector->process_batch(batch, lane.ordinals.data(),
                                     &lane.cursor);
        if (tracing) {
          build_start = obs::steady_micros();
          tracer_->record(trace, obs::SpanStage::kIngest,
                          lane.batch_start_micros,
                          build_start - lane.batch_start_micros, 0, 0,
                          lane.batch_seq);
        }
        heartbeat.beat();
      });
  heartbeat.retire();
  return count;
}

std::size_t ThreadedIngest::run_hour_lanes(const LaneSource& source,
                                           TimeMicros hour_end) {
  const std::size_t n = lanes_.size();
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  std::vector<std::size_t> counts(n, 0);
  std::vector<std::exception_ptr> errors(n);
  auto run = [&](std::size_t i) {
    try {
      counts[i] = run_lane(i, source, tracing);
    } catch (...) {
      errors[i] = std::current_exception();
    }
    Lane& lane = *lanes_[i];
    lane.ts = nullptr;
    lane.hosts = nullptr;
    lane.batch_start_micros = 0;
  };
  {
    // jthreads join on destruction, so even a failed thread launch
    // leaves no joinable thread behind.
    std::vector<std::jthread> threads;
    threads.reserve(n - 1);
    for (std::size_t i = 1; i < n; ++i) threads.emplace_back(run, i);
    run(0);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  std::size_t count = 0;
  for (const std::size_t c : counts) count += c;
  return barrier(count, hour_end);
}

std::size_t ThreadedIngest::barrier(std::size_t count, TimeMicros hour_end) {
  packets_c_->inc(count);
  for (auto& lane : lanes_) {
    lane->at_barrier = true;
    lane->detector->end_of_hour(hour_end);
    lane->at_barrier = false;
  }
  drain();
  return count;
}

void ThreadedIngest::finish() {
  for (auto& lane : lanes_) {
    lane->at_barrier = true;
    lane->detector->finish();
    lane->at_barrier = false;
  }
  drain();
}

void ThreadedIngest::drain() {
  // Per-second reports: each lane saw only its slice of the stream, so
  // same-second partial reports are summed before replay. Replaying in
  // ascending second order reproduces the single-detector report stream.
  std::map<TimeMicros, flow::SecondReport> merged;
  for (auto& lane : lanes_) {
    for (flow::SecondReport& report : lane->reports) {
      auto [it, fresh] = merged.try_emplace(report.second_start);
      flow::SecondReport& into = it->second;
      if (fresh) {
        into = std::move(report);
      } else {
        into.total += report.total;
        into.tcp += report.tcp;
        into.udp += report.udp;
        into.icmp += report.icmp;
        into.backscatter_filtered += report.backscatter_filtered;
        into.new_scanners += report.new_scanners;
        for (const auto& [port, n] : report.per_port) {
          into.per_port[port] += n;
        }
      }
    }
    lane->reports.clear();
  }
  if (sink_.on_report) {
    for (auto& [second, report] : merged) sink_.on_report(report);
  }

  // Control events: merge all lanes by (ts, host, ordinal, src, kind) —
  // the exact order a single detector over the canonical stream would
  // have emitted them.
  std::vector<Event> events;
  std::size_t total = 0;
  for (const auto& lane : lanes_) total += lane->events.size();
  events.reserve(total);
  for (auto& lane : lanes_) {
    std::move(lane->events.begin(), lane->events.end(),
              std::back_inserter(events));
    lane->events.clear();
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) {
              if (a.key.ts != b.key.ts) return a.key.ts < b.key.ts;
              if (a.key.host != b.key.host) return a.key.host < b.key.host;
              if (a.key.ordinal != b.key.ordinal) {
                return a.key.ordinal < b.key.ordinal;
              }
              if (a.src.value() != b.src.value()) {
                return a.src.value() < b.src.value();
              }
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  for (Event& e : events) {
    switch (e.kind) {
      case EventKind::kScanner:
        if (sink_.on_scanner) sink_.on_scanner(e.summary);
        break;
      case EventKind::kSample:
        if (sink_.on_sample) sink_.on_sample(e.src, e.sample);
        break;
      case EventKind::kFlowEnd:
        if (sink_.on_flow_end) sink_.on_flow_end(e.summary);
        break;
    }
  }
  events_c_->inc(events.size());
}

flow::DetectorStats ThreadedIngest::stats() const {
  flow::DetectorStats sum;
  for (const auto& lane : lanes_) {
    const flow::DetectorStats& s = lane->detector->stats();
    sum.packets_processed += s.packets_processed;
    sum.backscatter_filtered += s.backscatter_filtered;
    sum.scanners_detected += s.scanners_detected;
    sum.samples_completed += s.samples_completed;
    sum.flows_ended += s.flows_ended;
    sum.pending_resets += s.pending_resets;
  }
  return sum;
}

std::size_t ThreadedIngest::tracked_sources() const {
  std::size_t sum = 0;
  for (const auto& lane : lanes_) sum += lane->detector->tracked_sources();
  return sum;
}

}  // namespace exiot::pipeline
