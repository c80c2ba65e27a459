// Tests for the source-partitioned traffic producer (pipeline/producer.h):
// the packet-stream determinism guarantee at every partition count, the
// ingest event log and full pipeline feed across the lane matrix, and the
// packet/pruning accounting. The lane runner itself is covered by
// lanes_test.cpp.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "feed/export.h"
#include "flow/detector.h"
#include "inet/population.h"
#include "obs/metrics.h"
#include "pipeline/exiot.h"
#include "pipeline/ingest.h"
#include "pipeline/producer.h"
#include "telescope/synthesizer.h"

namespace exiot::pipeline {
namespace {

inet::Population small_population(Cidr aperture) {
  inet::PopulationConfig config;
  config.iot_per_day = 30;
  config.generic_per_day = 20;
  config.misconfig_per_day = 10;
  config.victims_per_day = 4;
  config.benign_per_day = 2;
  config.days = 1;
  config.seed = 42;
  auto world = inet::WorldModel::standard(aperture);
  return inet::Population::generate(config, world);
}

/// Appends every row of one emit_batches window to `out`. The 100-row
/// output batches straddle the producers' own batch boundaries.
std::size_t emit_rows(ParallelProducer& producer, TimeMicros t0,
                      TimeMicros t1, std::vector<net::Packet>& out) {
  return producer.emit_batches(t0, t1, 100,
                               [&out](const net::PacketBatch& batch) {
                                 for (std::size_t i = 0; i < batch.size();
                                      ++i) {
                                   out.push_back(batch[i]);
                                 }
                               });
}

std::vector<net::Packet> producer_stream(const inet::Population& pop,
                                         Cidr aperture, int producers,
                                         TimeMicros t0, TimeMicros t1) {
  ProducerConfig config;
  config.num_producers = producers;
  ParallelProducer producer(pop, aperture, config);
  std::vector<net::Packet> out;
  const std::size_t count = emit_rows(producer, t0, t1, out);
  EXPECT_EQ(count, out.size());
  return out;
}

// ------------------------------------------------- Stream determinism ----

TEST(ParallelProducerTest, PacketStreamIdenticalAtEveryProducerCount) {
  const Cidr aperture(Ipv4(44, 0, 0, 0), 8);
  auto pop = small_population(aperture);

  // Reference: the original single-threaded synthesizer merge.
  std::vector<net::Packet> reference;
  telescope::TrafficSynthesizer synth(pop, aperture);
  synth.emit(0, hours(2), [&reference](const net::Packet& pkt) {
    reference.push_back(pkt);
  });
  ASSERT_GT(reference.size(), 1000u);

  for (const int producers : {1, 2, 4}) {
    const auto stream =
        producer_stream(pop, aperture, producers, 0, hours(2));
    ASSERT_EQ(stream.size(), reference.size()) << producers << " producers";
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ASSERT_EQ(stream[i], reference[i])
          << producers << " producers diverge at packet " << i;
    }
  }
}

TEST(ParallelProducerTest, WindowedEmitMatchesWholeRun) {
  // Emitting hour by hour (the pipeline's calling pattern, with stream
  // pruning between windows) must concatenate to the whole-run stream.
  const Cidr aperture(Ipv4(44, 0, 0, 0), 8);
  auto pop = small_population(aperture);
  const auto whole = producer_stream(pop, aperture, 2, 0, hours(3));

  ProducerConfig config;
  config.num_producers = 2;
  ParallelProducer producer(pop, aperture, config);
  std::vector<net::Packet> windowed;
  for (int h = 0; h < 3; ++h) {
    emit_rows(producer, hours(h), hours(h + 1), windowed);
  }
  ASSERT_EQ(windowed.size(), whole.size());
  for (std::size_t i = 0; i < windowed.size(); ++i) {
    ASSERT_EQ(windowed[i], whole[i]) << "diverges at packet " << i;
  }
}

// ------------------------------------------ Ingest event-log invariance ----

/// Runs one hour through a ThreadedIngest at `lanes` and returns the
/// textual event log the detector sink saw. `lane_path` drives the lanes
/// (one thread each, fed by emit_lane); otherwise the serial path feeds
/// the merged emit_batches stream through run_hour_batched.
std::string ingest_log_at(int lanes, bool lane_path) {
  const Cidr aperture(Ipv4(44, 0, 0, 0), 8);
  auto pop = small_population(aperture);

  std::ostringstream log;
  flow::DetectorEvents sink;
  sink.on_scanner = [&log](const flow::FlowSummary& s) {
    log << "SCANNER " << s.src.to_string() << " " << s.total_packets << "\n";
  };
  sink.on_flow_end = [&log](const flow::FlowSummary& s) {
    log << "END " << s.src.to_string() << " " << s.total_packets << "\n";
  };
  sink.on_report = [&log](const flow::SecondReport& r) {
    log << "REPORT " << r.second_start / kMicrosPerSecond << " " << r.total
        << " " << r.new_scanners << "\n";
  };

  ProducerConfig producer_config;
  producer_config.num_producers = lanes;
  ParallelProducer producer(pop, aperture, producer_config);

  IngestConfig config;
  config.num_shards = producer.num_producers();
  ThreadedIngest ingest(config, flow::DetectorConfig{}, std::move(sink),
                        {23, 80, 8080});
  if (lane_path) {
    ingest.run_hour_lanes(
        [&producer](std::size_t lane, const LaneBatchFn& fn) {
          return producer.emit_lane(lane, 0, kMicrosPerHour, 100, fn);
        },
        kMicrosPerHour);
  } else {
    ingest.run_hour_batched(
        [&producer](const ThreadedIngest::BatchFn& fn) {
          return producer.emit_batches(0, kMicrosPerHour, 100, fn);
        },
        kMicrosPerHour);
  }
  ingest.finish();
  return log.str();
}

TEST(ParallelProducerTest, IngestEventLogInvariantAcrossMatrix) {
  const std::string reference = ingest_log_at(1, false);
  EXPECT_NE(reference.find("SCANNER"), std::string::npos);
  EXPECT_EQ(reference, ingest_log_at(4, false));
  for (const int lanes : {1, 2, 4, 8}) {
    EXPECT_EQ(reference, ingest_log_at(lanes, true)) << lanes << " lanes";
  }
}

// ------------------------------------------- Full pipeline determinism ----

/// Runs the full pipeline at a (producers, shards) point — the pipeline
/// runs max(producers, shards) lanes — and returns the exported feed plus
/// headline counters.
std::string feed_jsonl_at(int producers, int shards,
                          PipelineStats* stats_out) {
  inet::PopulationConfig config;
  config.iot_per_day = 30;
  config.generic_per_day = 20;
  config.misconfig_per_day = 10;
  config.victims_per_day = 4;
  config.benign_per_day = 2;
  config.days = 1;
  config.seed = 42;
  auto world = inet::WorldModel::standard(Cidr(Ipv4(44, 0, 0, 0), 8));
  auto population = inet::Population::generate(config, world);
  PipelineConfig pipe_config;
  pipe_config.num_producer_threads = producers;
  pipe_config.num_detector_shards = shards;
  ExIotPipeline pipe(population, world, pipe_config);
  pipe.run_days(0, 1);
  pipe.finish();
  if (stats_out != nullptr) *stats_out = pipe.stats();
  std::ostringstream out;
  feed::export_jsonl(pipe.feed(), out);
  return out.str();
}

TEST(ParallelProducerTest, FeedInvariantAcrossProducerShardMatrix) {
  PipelineStats base_stats;
  const std::string base = feed_jsonl_at(1, 1, &base_stats);
  EXPECT_GT(base_stats.records_published, 0u);
  for (const auto& [producers, shards] :
       std::vector<std::pair<int, int>>{{2, 1}, {1, 4}, {8, 8}}) {
    PipelineStats stats;
    const std::string feed = feed_jsonl_at(producers, shards, &stats);
    EXPECT_EQ(base, feed) << producers << "x" << shards;
    EXPECT_EQ(base_stats.packets_processed, stats.packets_processed);
    EXPECT_EQ(base_stats.scanners_detected, stats.scanners_detected);
    EXPECT_EQ(base_stats.records_published, stats.records_published);
    EXPECT_EQ(base_stats.report_messages, stats.report_messages);
  }
}

// ------------------------------------------------ Batching + metrics ----

TEST(ParallelProducerTest, BatchAndPacketAccounting) {
  const Cidr aperture(Ipv4(44, 0, 0, 0), 8);
  auto pop = small_population(aperture);
  obs::MetricsRegistry registry;
  ProducerConfig config;
  config.num_producers = 3;
  ParallelProducer producer(pop, aperture, config, &registry);
  std::size_t delivered = 0;
  producer.emit_batches(0, kMicrosPerHour, 100,
                        [&delivered](const net::PacketBatch& batch) {
                          delivered += batch.size();
                        });
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(producer.packets_emitted(), delivered);
  EXPECT_EQ(registry.counter_value("exiot_producer_packets_total"),
            delivered);
}

TEST(ParallelProducerTest, PrunesExhaustedStreamsAcrossWindows) {
  const Cidr aperture(Ipv4(44, 0, 0, 0), 8);
  auto pop = small_population(aperture);
  ProducerConfig config;
  config.num_producers = 2;
  ParallelProducer producer(pop, aperture, config);
  const std::size_t live_start = producer.live_streams();
  ASSERT_GT(live_start, 0u);
  std::uint64_t dead_scans_prev = 0;
  // By late in the day most sessions have ended; pruned streams must
  // leave the live lists and stop being rescanned at window entry.
  for (int h = 0; h < 24; ++h) {
    producer.emit_batches(hours(h), hours(h + 1), 100,
                          [](const net::PacketBatch&) {});
  }
  EXPECT_GT(producer.streams_pruned(), 0u);
  EXPECT_LT(producer.live_streams(), live_start);
  EXPECT_GT(producer.dead_stream_scans_avoided(), dead_scans_prev);
  EXPECT_EQ(producer.live_streams() + producer.streams_pruned(), live_start);
}

}  // namespace
}  // namespace exiot::pipeline
