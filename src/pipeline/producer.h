// Stage 0 of the pipeline: the telescope traffic source, partitioned by
// source for the capture lanes (pipeline/ingest.h). A host stream is one
// source IP, so partition p holds exactly the hosts whose address
// lane_of() (pipeline/lane.h) maps to p. Lane p synthesizes its partition
// with emit_lane() on its own thread and touches no other partition.
//
// Serial callers (trace capture, the benches, the replay chain) use
// emit_batches(), which merges every partition on the calling thread with
// one loser tree over all partitions' live streams (telescope::
// merge_window), keyed by the global host index. The stream is the
// canonical (ts, host_index) order, byte-identical for any partition
// count; there are no threads and no queues.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.h"
#include "inet/population.h"
#include "net/batch.h"
#include "obs/metrics.h"
#include "pipeline/lane.h"
#include "telescope/synthesizer.h"

namespace exiot::pipeline {

struct ProducerConfig {
  /// Source partitions, one per capture lane (clamped to the host count).
  /// The emitted stream is byte-identical for any value.
  int num_producers = 1;
  /// Not read: these sized the producer threads' batches and queues,
  /// which are gone. They stay so existing aggregate initializers (the
  /// benchmark under perfbench/) still compile.
  std::size_t batch_size = 1024;
  TimeMicros batch_span = minutes(1);
  std::size_t queue_capacity = 8;
};

class ParallelProducer {
 public:
  ParallelProducer(const inet::Population& pop, Cidr aperture,
                   ProducerConfig config = {},
                   obs::MetricsRegistry* metrics = nullptr);

  ParallelProducer(const ParallelProducer&) = delete;
  ParallelProducer& operator=(const ParallelProducer&) = delete;

  /// Emits every packet with ts in [t0, t1), from every partition, in the
  /// canonical (ts, host_index) order, delivered as batches of
  /// `batch_size` rows via `fn(const net::PacketBatch&)` on the calling
  /// thread (void return; the batch is borrowed only for the call). If
  /// `fn` throws, the exception propagates and the streams are left
  /// mid-window. Returns the number of packets emitted.
  template <typename BatchFn>
  std::size_t emit_batches(TimeMicros t0, TimeMicros t1,
                           std::size_t batch_size, BatchFn&& fn) {
    slots_.clear();
    for (auto& part : partitions_) enter(*part, t0, t1, slots_);
    batch_.reserve(batch_size);
    const std::size_t count =
        telescope::merge_window(slots_, t1, batch_size, batch_, nullptr,
                                std::forward<BatchFn>(fn));
    packets_c_->inc(count);
    return count;
  }

  /// Lane `lane`'s share of emit_batches: its partition's packets with ts
  /// in [t0, t1) in canonical order, with each row's global host index
  /// (see LaneBatchFn). Touches only that partition's streams and
  /// scratch, so distinct lanes may run concurrently, each on its own
  /// thread. Returns the number of packets emitted.
  std::size_t emit_lane(std::size_t lane, TimeMicros t0, TimeMicros t1,
                        std::size_t batch_size, const LaneBatchFn& fn);

  int num_producers() const {
    return static_cast<int>(partitions_.size());
  }
  /// Exhausted host streams removed from the live emit lists so far.
  std::uint64_t streams_pruned() const;
  /// Window-entry scans of dead streams skipped thanks to the live lists.
  std::uint64_t dead_stream_scans_avoided() const;
  /// Host streams still able to produce packets.
  std::size_t live_streams() const;
  std::uint64_t packets_emitted() const { return packets_c_->value(); }

 private:
  /// One lane's share of the host streams. While a lane runs, only its
  /// thread touches its partition; between windows only the calling
  /// thread does.
  struct Partition {
    std::vector<telescope::HostStream> streams;
    std::vector<std::uint32_t> hosts;  // Local slot -> global host index.
    std::vector<std::uint32_t> live;   // Local slots, compacted.
    std::size_t pruned = 0;
    std::uint64_t dead_scans_avoided = 0;
    // emit_lane scratch, reused across windows.
    std::vector<telescope::MergeSlot> slots;
    net::PacketBatch batch;
    std::vector<std::uint32_t> row_hosts;
  };

  /// Window entry for one partition: prunes its exhausted streams and
  /// appends its open streams to `slots`.
  void enter(Partition& part, TimeMicros t0, TimeMicros t1,
             std::vector<telescope::MergeSlot>& slots);

  std::vector<std::unique_ptr<Partition>> partitions_;
  // emit_batches scratch, reused across windows.
  std::vector<telescope::MergeSlot> slots_;
  net::PacketBatch batch_;
  obs::Counter* packets_c_;
  obs::Counter* pruned_c_;
  obs::Counter* dead_scans_c_;
};

}  // namespace exiot::pipeline
