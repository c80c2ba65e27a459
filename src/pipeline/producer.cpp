#include "pipeline/producer.h"

#include <algorithm>

namespace exiot::pipeline {

ParallelProducer::ParallelProducer(const inet::Population& pop,
                                   Cidr aperture, ProducerConfig config,
                                   obs::MetricsRegistry* metrics) {
  // No point in more partitions than there are host streams.
  const auto n_hosts = pop.hosts().size();
  std::size_t k =
      static_cast<std::size_t>(std::max(1, config.num_producers));
  if (n_hosts > 0) k = std::min(k, n_hosts);

  obs::MetricsRegistry& reg =
      metrics != nullptr ? *metrics : obs::scratch_registry();
  packets_c_ = &reg.counter("exiot_producer_packets_total",
                            "Packets emitted by the traffic producer "
                            "stage.");
  pruned_c_ = &reg.counter("exiot_synth_streams_pruned_total",
                           "Exhausted host streams removed from the live "
                           "emit lists.");
  dead_scans_c_ = &reg.counter(
      "exiot_synth_dead_stream_scans_avoided_total",
      "Window-entry scans of exhausted streams skipped thanks to the "
      "compacted live lists.");

  partitions_.reserve(k);
  for (std::size_t p = 0; p < k; ++p) {
    partitions_.push_back(std::make_unique<Partition>());
  }
  for (std::size_t i = 0; i < n_hosts; ++i) {
    const inet::Host& host = pop.hosts()[i];
    Partition& part = *partitions_[lane_of(host.addr.value(), k)];
    part.live.push_back(static_cast<std::uint32_t>(part.streams.size()));
    part.hosts.push_back(static_cast<std::uint32_t>(i));
    part.streams.emplace_back(pop, host, aperture);
  }
}

void ParallelProducer::enter(Partition& part, TimeMicros t0, TimeMicros t1,
                             std::vector<telescope::MergeSlot>& slots) {
  const std::uint64_t avoided = part.streams.size() - part.live.size();
  part.dead_scans_avoided += avoided;
  dead_scans_c_->inc(avoided);
  const std::size_t pruned_before = part.pruned;
  telescope::enter_window(part.streams, part.hosts.data(), part.live, t0, t1,
                          part.pruned, slots);
  pruned_c_->inc(part.pruned - pruned_before);
}

std::size_t ParallelProducer::emit_lane(std::size_t lane, TimeMicros t0,
                                        TimeMicros t1,
                                        std::size_t batch_size,
                                        const LaneBatchFn& fn) {
  Partition& part = *partitions_[lane];
  part.slots.clear();
  enter(part, t0, t1, part.slots);
  part.batch.reserve(batch_size);
  const std::size_t count = telescope::merge_window(
      part.slots, t1, batch_size, part.batch, &part.row_hosts,
      [&part, &fn](const net::PacketBatch& batch) {
        fn(batch, part.row_hosts.data());
      });
  packets_c_->inc(count);
  return count;
}

std::uint64_t ParallelProducer::streams_pruned() const {
  std::uint64_t sum = 0;
  for (const auto& part : partitions_) sum += part->pruned;
  return sum;
}

std::uint64_t ParallelProducer::dead_stream_scans_avoided() const {
  std::uint64_t sum = 0;
  for (const auto& part : partitions_) sum += part->dead_scans_avoided;
  return sum;
}

std::size_t ParallelProducer::live_streams() const {
  std::size_t sum = 0;
  for (const auto& part : partitions_) sum += part->live.size();
  return sum;
}

}  // namespace exiot::pipeline
