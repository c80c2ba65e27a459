// The capture->detect stage, run as source-partitioned capture lanes. The
// paper decouples the 1M pps telescope capture from the downstream modules
// with a 15 GB mbuffer; here the stage is split by source instead of
// queued. The flow detector keeps all of its state per source IP, so the
// telescope stream splits by source with no loss: lane i owns the sources
// lane_of() (pipeline/lane.h) maps to i and runs its own FlowDetector.
//
// run_hour_lanes() is the production path (ExIotPipeline::run_hours). On
// its own thread, each lane pulls its partition's batches from the lane
// source — synthesis and the federation filter, on that same thread — and
// detects them. Packets never cross threads; only detector events and
// per-second partial reports do, at the hour barrier:
//
//   - every event is keyed by the packet that triggered it:
//     (ts, global host index, lane ordinal). Canonical order is
//     (ts, host), and one host's packets stay in order inside one lane,
//     so the key orders packets exactly as the canonical stream does; the
//     events of one packet follow in (src, kind) order. The merge thus
//     replays the events a single detector over the canonical stream
//     would have emitted, in its order, and the feed is byte-identical
//     for any lane count. Barrier events (expiry, finish) sort after
//     every packet's, by (src, kind);
//   - per-lane partial SecondReports are summed by second and replayed in
//     ascending second order, reproducing the single-detector stream.
//
// A throwing lane source does not take the process down: each lane
// catches its own exception, every lane is joined, and the first (lowest
// lane) exception is rethrown on the caller.
//
// run_hour_batched() is the serial path (trace replay, the benches): one
// canonical stream on the calling thread, each batch's rows routed to
// their source's lane detector and keyed by arrival sequence, which is
// the canonical order itself.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.h"
#include "flow/detector.h"
#include "net/batch.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/watchdog.h"
#include "pipeline/lane.h"

namespace exiot::pipeline {

struct IngestConfig {
  /// Capture lanes, one FlowDetector each. The event stream is
  /// byte-identical for any value.
  int num_shards = 1;
  /// Not read: these sized the shard capture buffers, which are gone.
  /// They stay so existing aggregate initializers (the benchmark under
  /// perfbench/) still compile.
  std::size_t buffer_capacity = 64;
  std::size_t batch_size = 512;
};

class ThreadedIngest {
 public:
  using BatchFn = std::function<void(const net::PacketBatch&)>;
  /// A batched packet source: invokes the callback once per SoA batch
  /// (rows in canonical order across calls), returning the total number
  /// of packets emitted. The callback borrows the batch only for the call.
  using BatchSource = std::function<std::size_t(const BatchFn&)>;
  /// A lane's packet source, called on that lane's thread with the lane
  /// index: delivers the lane's batches (rows of the lane's own sources,
  /// canonical order, with host indices) and returns their packet count.
  using LaneSource =
      std::function<std::size_t(std::size_t lane, const LaneBatchFn&)>;

  /// `sink` receives the merged detector events; its callbacks run on the
  /// thread calling run_hour_*()/finish(), never concurrently.
  ThreadedIngest(IngestConfig config, flow::DetectorConfig detector_config,
                 flow::DetectorEvents sink,
                 std::vector<std::uint16_t> report_ports = {},
                 obs::MetricsRegistry* metrics = nullptr,
                 obs::Tracer* tracer = nullptr,
                 obs::Watchdog* watchdog = nullptr);
  ~ThreadedIngest();

  ThreadedIngest(const ThreadedIngest&) = delete;
  ThreadedIngest& operator=(const ThreadedIngest&) = delete;

  /// Runs one capture hour serially: streams `source`'s SoA batches
  /// through the lane detectors on the calling thread, runs the expiry
  /// sweep at `hour_end`, and replays all detector events into the sink
  /// before returning. Returns the number of packets processed.
  std::size_t run_hour_batched(const BatchSource& source,
                               TimeMicros hour_end);

  /// Runs one capture hour as lanes: lane i runs `source(i, ...)` and its
  /// own detector on its own thread (lane 0 on the calling thread), then
  /// the barrier sweeps and replays as run_hour_batched does. If any lane
  /// throws, all lanes are joined and the lowest lane's exception is
  /// rethrown; the ingest is then fit only for destruction.
  std::size_t run_hour_lanes(const LaneSource& source, TimeMicros hour_end);

  /// End of deployment: flushes every lane (END_FLOW for all detected
  /// flows, final partial reports) and replays the events into the sink.
  void finish();

  /// Detector counters summed across lanes.
  flow::DetectorStats stats() const;
  std::size_t tracked_sources() const;
  int num_lanes() const { return static_cast<int>(lanes_.size()); }

 private:
  /// Replay ranks: a packet triggers at most one scanner event, and at a
  /// barrier a source emits its (incomplete) sample before its END_FLOW.
  enum class EventKind { kScanner = 0, kSample = 1, kFlowEnd = 2 };

  /// The merge key of the packet an event fired on (see the header
  /// comment). The serial path keys by arrival sequence alone.
  struct Key {
    TimeMicros ts = 0;
    std::uint32_t host = 0;
    std::uint64_t ordinal = 0;
  };

  struct Event {
    Key key;
    EventKind kind = EventKind::kScanner;
    Ipv4 src;
    flow::FlowSummary summary;        // kScanner / kFlowEnd.
    std::vector<net::Packet> sample;  // kSample.
  };

  /// One capture lane. During an hour its fields are touched only by the
  /// lane's thread (the calling thread on the serial path); the barrier
  /// reads them after the join.
  struct Lane {
    std::unique_ptr<flow::FlowDetector> detector;
    std::vector<Event> events;
    std::vector<flow::SecondReport> reports;
    /// The batch being detected, read by the event callbacks:
    /// process_batch() stores each row's ordinal in `cursor` first.
    std::uint64_t cursor = 0;
    std::uint64_t base = 0;                // Ordinal of the batch's row 0.
    const TimeMicros* ts = nullptr;        // Row timestamps.
    const std::uint32_t* hosts = nullptr;  // Row hosts; null: serial path.
    bool at_barrier = false;
    std::uint64_t next_ordinal = 0;       // Lane packets so far.
    std::vector<std::uint64_t> ordinals;  // process_batch ordinal lane.
    net::PacketBatch routed;              // Serial-path routing scratch.
    std::uint64_t batch_seq = 0;          // Trace key ordinal.
    /// steady_micros() when the current batch reached the detector
    /// (0 outside a traced lane batch): the kDetect span start.
    std::uint64_t batch_start_micros = 0;
  };

  static Key key_of(const Lane& lane);
  /// One lane's hour, on the lane's thread.
  std::size_t run_lane(std::size_t i, const LaneSource& source,
                       bool tracing);
  /// Hour barrier: expiry sweep in every lane, then drain().
  std::size_t barrier(std::size_t count, TimeMicros hour_end);
  /// Merges and replays all lanes' queued events/reports into the sink.
  void drain();

  flow::DetectorEvents sink_;
  obs::Tracer* tracer_;
  obs::Watchdog* watchdog_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::uint64_t seq_ = 0;  // Serial-path arrival sequence.
  obs::Counter* packets_c_;
  obs::Counter* events_c_;
  obs::Gauge* lanes_g_;
};

}  // namespace exiot::pipeline
