// Tests for the pipeline module: the blocking buffer, the serial ingest
// path and the lane-count determinism guarantee, the reconnecting tunnel, the packet organizer, the scan
// module, and the update classifier's sliding-window retraining.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "common/rng.h"
#include "feed/export.h"
#include "inet/population.h"
#include "pipeline/buffer.h"
#include "pipeline/exiot.h"
#include "pipeline/ingest.h"
#include "pipeline/organizer.h"
#include "pipeline/scan_module.h"
#include "pipeline/tunnel.h"
#include "pipeline/update_classifier.h"

namespace exiot::pipeline {
namespace {

// --------------------------------------------------------------- Buffer ----

TEST(BufferTest, FifoOrder) {
  BoundedBuffer<int> buffer(4);
  EXPECT_TRUE(buffer.push(1));
  EXPECT_TRUE(buffer.push(2));
  EXPECT_EQ(buffer.pop(), 1);
  EXPECT_EQ(buffer.pop(), 2);
  EXPECT_FALSE(buffer.try_pop().has_value());
}

TEST(BufferTest, TryPushRefusedWhenFull) {
  BoundedBuffer<int> buffer(2);
  EXPECT_TRUE(buffer.try_push(1));
  EXPECT_TRUE(buffer.try_push(2));
  EXPECT_FALSE(buffer.try_push(3));  // Refused, not dropped silently.
  EXPECT_EQ(buffer.rejected(), 1u);
  (void)buffer.pop();
  EXPECT_TRUE(buffer.try_push(3));
}

TEST(BufferTest, HighWatermarkTracksPeak) {
  BoundedBuffer<int> buffer(10);
  for (int i = 0; i < 7; ++i) (void)buffer.push(i);
  for (int i = 0; i < 5; ++i) (void)buffer.pop();
  (void)buffer.push(99);
  EXPECT_EQ(buffer.high_watermark(), 7u);
}

TEST(BufferTest, PushBlocksUntilPopFreesASlot) {
  BoundedBuffer<int> buffer(1);
  ASSERT_TRUE(buffer.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(buffer.push(2));  // Blocks: the buffer is full.
    pushed.store(true);
  });
  // The producer must be parked, not dropping or failing.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(buffer.pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(buffer.pop(), 2);
  EXPECT_GT(buffer.producer_blocked_micros(), 0u);
}

TEST(BufferTest, PopBlocksUntilPush) {
  BoundedBuffer<int> buffer(4);
  std::atomic<int> got{0};
  std::thread consumer([&] {
    auto item = buffer.pop();  // Blocks: the buffer is empty.
    ASSERT_TRUE(item.has_value());
    got.store(*item);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(got.load(), 0);
  ASSERT_TRUE(buffer.push(7));
  consumer.join();
  EXPECT_EQ(got.load(), 7);
  EXPECT_GT(buffer.consumer_blocked_micros(), 0u);
}

TEST(BufferTest, CloseReleasesBlockedProducerAndConsumer) {
  BoundedBuffer<int> full(1);
  ASSERT_TRUE(full.push(1));
  std::thread producer([&] { EXPECT_FALSE(full.push(2)); });
  BoundedBuffer<int> empty(1);
  std::thread consumer([&] { EXPECT_FALSE(empty.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  full.close();
  empty.close();
  producer.join();
  consumer.join();
}

TEST(BufferTest, CloseDrainsRemainingItems) {
  BoundedBuffer<int> buffer(4);
  ASSERT_TRUE(buffer.push(1));
  ASSERT_TRUE(buffer.push(2));
  buffer.close();
  EXPECT_FALSE(buffer.push(3));  // Closed: refused immediately.
  EXPECT_EQ(buffer.pop(), 1);   // Remaining items stay poppable.
  EXPECT_EQ(buffer.pop(), 2);
  EXPECT_FALSE(buffer.pop().has_value());
}

TEST(BufferTest, ReopenAfterCloseAcceptsAgain) {
  BoundedBuffer<int> buffer(4);
  ASSERT_TRUE(buffer.push(1));
  buffer.close();
  EXPECT_EQ(buffer.pop(), 1);
  buffer.reopen();
  EXPECT_TRUE(buffer.push(2));
  EXPECT_EQ(buffer.pop(), 2);
}

TEST(BufferTest, BatchPushPop) {
  BoundedBuffer<int> buffer(8);
  std::vector<int> in{1, 2, 3, 4, 5};
  EXPECT_EQ(buffer.push_all(in), 5u);
  std::vector<int> out;
  EXPECT_EQ(buffer.pop_all(out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(buffer.pop_all(out, 10), 2u);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(out.back(), 5);
}

TEST(BufferTest, ProducerConsumerStress) {
  constexpr int kItems = 20000;
  BoundedBuffer<int> buffer(16);  // Small: forces constant back-pressure.
  std::atomic<long long> sum{0};
  std::atomic<int> count{0};
  auto consume = [&] {
    while (auto item = buffer.pop()) {
      sum.fetch_add(*item);
      count.fetch_add(1);
    }
  };
  std::thread c1(consume), c2(consume);
  for (int i = 1; i <= kItems; ++i) ASSERT_TRUE(buffer.push(i));
  buffer.close();
  c1.join();
  c2.join();
  EXPECT_EQ(count.load(), kItems);
  EXPECT_EQ(sum.load(), static_cast<long long>(kItems) * (kItems + 1) / 2);
}

// ------------------------------------------------------- ThreadedIngest ----

/// Replays crafted packets through ThreadedIngest's serial path at a given
/// lane count and returns a textual log of every event the sink saw, in
/// order.
std::string ingest_event_log(int shards) {
  // Six sources, 150 SYNs each at 1 s spacing, interleaved in time order:
  // all cross the scanner thresholds; none completes its 200-packet sample
  // (incomplete samples ship at finish).
  std::vector<net::Packet> packets;
  const std::vector<Ipv4> sources{Ipv4(10, 0, 0, 1), Ipv4(10, 0, 1, 1),
                                  Ipv4(10, 0, 2, 1), Ipv4(172, 16, 0, 9),
                                  Ipv4(192, 168, 3, 3), Ipv4(203, 0, 113, 77)};
  for (int i = 0; i < 150; ++i) {
    for (std::size_t s = 0; s < sources.size(); ++s) {
      packets.push_back(net::make_syn(
          seconds(i) + static_cast<TimeMicros>(s) * 1000, sources[s],
          Ipv4(44, 0, 0, 1), 40000, 23, static_cast<std::uint32_t>(i)));
    }
  }

  std::ostringstream log;
  flow::DetectorEvents sink;
  sink.on_scanner = [&log](const flow::FlowSummary& s) {
    log << "SCANNER " << s.src.to_string() << " " << s.total_packets << "\n";
  };
  sink.on_sample = [&log](Ipv4 src, const std::vector<net::Packet>& pkts) {
    log << "SAMPLE " << src.to_string() << " " << pkts.size() << "\n";
  };
  sink.on_flow_end = [&log](const flow::FlowSummary& s) {
    log << "END " << s.src.to_string() << " " << s.total_packets << "\n";
  };
  sink.on_report = [&log](const flow::SecondReport& r) {
    log << "REPORT " << r.second_start / kMicrosPerSecond << " " << r.total
        << " " << r.new_scanners << "\n";
  };

  IngestConfig config;
  config.num_shards = shards;
  ThreadedIngest ingest(config, flow::DetectorConfig{}, std::move(sink),
                        {23, 80});
  // The replayed source hands over 100-row batches; the serial path routes
  // each batch's rows to their source's lane detector.
  ingest.run_hour_batched(
      [&packets](const ThreadedIngest::BatchFn& fn) {
        net::PacketBatch batch;
        for (const auto& pkt : packets) {
          batch.push_back(pkt);
          if (batch.size() == 100) {
            fn(batch);
            batch.clear();
          }
        }
        if (!batch.empty()) fn(batch);
        return packets.size();
      },
      kMicrosPerHour);
  ingest.finish();
  EXPECT_EQ(ingest.stats().packets_processed, packets.size());
  EXPECT_EQ(ingest.stats().scanners_detected, 6u);
  return log.str();
}

TEST(ThreadedIngestTest, ShardCountInvariantEventSequence) {
  const std::string single = ingest_event_log(1);
  // The single-shard log contains every source's detection and end.
  EXPECT_NE(single.find("SCANNER 10.0.0.1 100"), std::string::npos);
  EXPECT_NE(single.find("END 203.0.113.77 150"), std::string::npos);
  EXPECT_NE(single.find("SAMPLE 10.0.1.1 50"), std::string::npos);
  // The merged multi-lane event stream is byte-identical.
  EXPECT_EQ(single, ingest_event_log(3));
  EXPECT_EQ(single, ingest_event_log(5));
}

// -------------------------------------------------- Pipeline determinism ----

/// Runs the full pipeline over a small population at the given lane count
/// and returns the exported feed plus headline counters.
std::string feed_jsonl_at_lanes(int lanes, PipelineStats* stats_out) {
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
  pipe_config.num_detector_shards = lanes;
  ExIotPipeline pipe(population, world, pipe_config);
  pipe.run_days(0, 1);
  pipe.finish();
  if (stats_out != nullptr) *stats_out = pipe.stats();
  std::ostringstream out;
  feed::export_jsonl(pipe.feed(), out);
  return out.str();
}

TEST(PipelineDeterminismTest, FeedOutputInvariantAcrossShardCounts) {
  PipelineStats single_stats;
  const std::string single = feed_jsonl_at_lanes(1, &single_stats);
  EXPECT_GT(single_stats.records_published, 0u);
  for (const int lanes : {2, 4, 8}) {
    PipelineStats sharded_stats;
    const std::string sharded = feed_jsonl_at_lanes(lanes, &sharded_stats);
    EXPECT_EQ(single, sharded) << lanes << " lanes";  // Byte-identical.
    EXPECT_EQ(single_stats.packets_processed,
              sharded_stats.packets_processed);
    EXPECT_EQ(single_stats.scanners_detected,
              sharded_stats.scanners_detected);
    EXPECT_EQ(single_stats.records_published,
              sharded_stats.records_published);
    EXPECT_EQ(single_stats.report_messages, sharded_stats.report_messages);
  }
}

// ------------------------------------------------- Pending re-detection ----

TEST(PipelineRedetectionTest, RedetectionPreservesInFlightPendingState) {
  // A scanner whose flow expires while its probe is still waiting in the
  // scan-module batch, and which then scans again: the re-detection must
  // not clobber the in-flight record or double-submit the probe.
  const Cidr telescope(Ipv4(44, 0, 0, 0), 8);
  auto world = inet::WorldModel::standard(telescope);
  inet::PopulationConfig empty;
  empty.iot_per_day = 0;
  empty.generic_per_day = 0;
  empty.benign_per_day = 0;
  empty.misconfig_per_day = 0;
  empty.victims_per_day = 0;
  empty.days = 1;
  auto population = inet::Population::generate(empty, world);

  inet::Host scanner;
  scanner.addr = Ipv4(198, 51, 100, 7);
  scanner.cls = inet::HostClass::kInfectedGeneric;
  scanner.asn = 7922;
  const auto& families = inet::BehaviorRoster::standard().generic_families;
  for (std::size_t f = 0; f < families.size(); ++f) {
    if (families[f].family == "zmap") {
      scanner.behavior_index = static_cast<int>(f);
    }
  }
  scanner.behavior_is_iot = false;
  scanner.responds_banner = true;
  // Two scan sessions separated by > flow_expiry of idle time: the first
  // flow expires at an hour barrier, the source is re-detected in hour 3.
  scanner.sessions.push_back({minutes(5), minutes(35), 4.0});
  scanner.sessions.push_back({hours(3) + minutes(5), hours(3) + minutes(35),
                              4.0});
  scanner.seed = 0x5E1F5CA9;
  population.inject_host(scanner);

  PipelineConfig config;
  config.telescope = telescope;
  // Keep the probe in flight across the whole run: the batch never fills
  // and never times out, so the outcome only lands at finish().
  config.batcher.max_records = 100000;
  config.batcher.max_wait = hours(1000);
  ExIotPipeline pipe(population, world, config);
  pipe.run_hours(0, 5);
  pipe.finish();

  EXPECT_EQ(pipe.stats().scanners_detected, 2u);
  EXPECT_EQ(pipe.metrics().counter_value(
                "exiot_pipeline_pending_clobbered_total"),
            1u);
  // One record: the re-detection reused the in-flight probe submission.
  auto records = pipe.feed().records_for(scanner.addr);
  ASSERT_EQ(records.size(), 1u);
  // The published record reflects the second flow, not the clobbered one.
  EXPECT_GE(records.front().scan_start, hours(3));
}

// --------------------------------------------------------------- Tunnel ----

TEST(TunnelTest, ConnectedPassesThrough) {
  ReconnectingTunnel tunnel;
  EXPECT_EQ(tunnel.deliver(seconds(100)), seconds(100));
  EXPECT_EQ(tunnel.delayed_messages(), 0u);
  EXPECT_EQ(tunnel.messages(), 1u);
}

TEST(TunnelTest, OutageDelaysWithoutLoss) {
  ReconnectingTunnel tunnel(seconds(5));
  tunnel.schedule_outage(seconds(100), seconds(200));
  EXPECT_FALSE(tunnel.connected_at(seconds(150)));
  EXPECT_TRUE(tunnel.connected_at(seconds(250)));
  // Message sent mid-outage waits for reconnect.
  EXPECT_EQ(tunnel.deliver(seconds(150)), seconds(205));
  // Message before the outage flows normally.
  EXPECT_EQ(tunnel.deliver(seconds(99)), seconds(99));
  // A message sent at 201 lands inside the reconnect window [200, 205):
  // the SSH session is still re-establishing, so it queues until 205 —
  // the regression the old model got wrong (it passed it through).
  EXPECT_EQ(tunnel.deliver(seconds(201)), seconds(205));
  EXPECT_EQ(tunnel.deliver(seconds(205)), seconds(205));
  EXPECT_EQ(tunnel.delayed_messages(), 2u);
}

// The reconnect window is part of the blackout: connected_at and
// delivery_time must agree about every instant in it.
TEST(TunnelTest, ReconnectWindowDelaysAndAgreesWithConnectedAt) {
  ReconnectingTunnel tunnel(seconds(5));
  tunnel.schedule_outage(seconds(100), seconds(200));
  for (TimeMicros t = seconds(95); t <= seconds(210); t += seconds(1)) {
    EXPECT_EQ(tunnel.connected_at(t), tunnel.delivery_time(t) == t)
        << "disagreement at t=" << t;
  }
  // Window edges: still down at 200 and 204.999999, up again at exactly
  // outage end + reconnect delay.
  EXPECT_FALSE(tunnel.connected_at(seconds(200)));
  EXPECT_FALSE(tunnel.connected_at(seconds(205) - 1));
  EXPECT_TRUE(tunnel.connected_at(seconds(205)));
  EXPECT_EQ(tunnel.delivery_time(seconds(204)), seconds(205));
}

TEST(TunnelTest, CascadingOutages) {
  ReconnectingTunnel tunnel(seconds(10));
  tunnel.schedule_outage(seconds(100), seconds(200));
  tunnel.schedule_outage(seconds(205), seconds(300));
  // Reconnect at 210 lands inside the second outage -> 310.
  EXPECT_EQ(tunnel.delivery_time(seconds(150)), seconds(310));
}

// Back-to-back outages whose reconnect window overlaps the next outage:
// a send inside the FIRST outage's reconnect window must cascade through
// the second outage too.
TEST(TunnelTest, ReconnectWindowOverlappingNextOutageCascades) {
  ReconnectingTunnel tunnel(seconds(10));
  tunnel.schedule_outage(seconds(100), seconds(200));
  tunnel.schedule_outage(seconds(208), seconds(300));
  // Sent at 203: inside [200, 210), so it waits for the reconnect at 210
  // — which is inside the second outage -> waits again until 310.
  EXPECT_EQ(tunnel.delivery_time(seconds(203)), seconds(310));
  EXPECT_FALSE(tunnel.connected_at(seconds(203)));
  // Sent mid-first-outage cascades identically.
  EXPECT_EQ(tunnel.delivery_time(seconds(150)), seconds(310));
  // The whole span [100, 310) is down; 310 is up.
  EXPECT_FALSE(tunnel.connected_at(seconds(309)));
  EXPECT_TRUE(tunnel.connected_at(seconds(310)));
}

// Overlapping outage injections merge at schedule time into one span.
TEST(TunnelTest, OverlappingOutagesMergeOnInsert) {
  ReconnectingTunnel tunnel(seconds(5));
  tunnel.schedule_outage(seconds(150), seconds(250));
  tunnel.schedule_outage(seconds(100), seconds(200));  // Overlaps before.
  tunnel.schedule_outage(seconds(240), seconds(260));  // Overlaps after.
  // One merged outage [100, 260): a single reconnect is crossed.
  EXPECT_EQ(tunnel.delivery_time(seconds(120)), seconds(265));
  EXPECT_EQ(tunnel.deliver(seconds(120)), seconds(265));
  EXPECT_EQ(tunnel.delayed_messages(), 1u);
}

// deliver and delivery_time share one cascade walk, so the reconnect
// counter tracks exactly the outages a delivery waited through.
TEST(TunnelTest, ReconnectCounterMatchesCascadeDepth) {
  obs::MetricsRegistry metrics;
  ReconnectingTunnel tunnel(seconds(10), &metrics);
  tunnel.schedule_outage(seconds(100), seconds(200));
  tunnel.schedule_outage(seconds(205), seconds(300));
  tunnel.schedule_outage(seconds(305), seconds(400));
  // 150 -> 210 (in outage 2) -> 310 (in outage 3) -> 410: 3 reconnects.
  EXPECT_EQ(tunnel.deliver(seconds(150)), seconds(410));
  EXPECT_EQ(metrics.counter_value("exiot_tunnel_reconnects_total"), 3u);
  // A direct message crosses none.
  EXPECT_EQ(tunnel.deliver(seconds(50)), seconds(50));
  EXPECT_EQ(metrics.counter_value("exiot_tunnel_reconnects_total"), 3u);
  // A send in the last reconnect window crosses exactly one.
  EXPECT_EQ(tunnel.deliver(seconds(402)), seconds(410));
  EXPECT_EQ(metrics.counter_value("exiot_tunnel_reconnects_total"), 4u);
}

// ------------------------------------------------------------ Organizer ----

std::vector<net::Packet> sample_of(int n) {
  std::vector<net::Packet> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(net::make_syn(seconds(n - i), Ipv4(1, 2, 3, 4),
                                Ipv4(44, 0, 0, 1), 40000, 23));
  }
  return out;
}

TEST(OrganizerTest, DropsShortSamples) {
  PacketOrganizer organizer(OrganizerConfig{.min_samples = 20});
  EXPECT_FALSE(organizer.organize(Ipv4(1, 2, 3, 4), sample_of(19))
                   .has_value());
  EXPECT_EQ(organizer.dropped_sources(), 1u);
  EXPECT_TRUE(organizer.organize(Ipv4(1, 2, 3, 4), sample_of(20))
                  .has_value());
  EXPECT_EQ(organizer.organized_sources(), 1u);
}

TEST(OrganizerTest, SortsByArrivalTime) {
  PacketOrganizer organizer(OrganizerConfig{.min_samples = 2});
  auto bundle = organizer.organize(Ipv4(1, 2, 3, 4), sample_of(30));
  ASSERT_TRUE(bundle.has_value());
  for (std::size_t i = 1; i < bundle->sample.size(); ++i) {
    EXPECT_LE(bundle->sample[i - 1].ts, bundle->sample[i].ts);
  }
  EXPECT_EQ(bundle->first_sample_ts, bundle->sample.front().ts);
  EXPECT_EQ(bundle->last_sample_ts, bundle->sample.back().ts);
}

TEST(OrganizerTest, JsonBundleCarriesPacketFields) {
  PacketOrganizer organizer(OrganizerConfig{.min_samples = 1});
  auto bundle = organizer.organize(Ipv4(1, 2, 3, 4), sample_of(3));
  ASSERT_TRUE(bundle.has_value());
  json::Value doc = PacketOrganizer::to_json(*bundle);
  EXPECT_EQ(doc.get_string("src_ip"), "1.2.3.4");
  EXPECT_EQ(doc.get_int("count"), 3);
  ASSERT_NE(doc.find("packets"), nullptr);
  EXPECT_EQ(doc.find("packets")->as_array().size(), 3u);
  EXPECT_EQ(doc.find("packets")->as_array()[0].get_int("dport"), 23);
}

// ---------------------------------------------------------- ScanModule ----

class ScanModuleTest : public ::testing::Test {
 protected:
  static inet::PopulationConfig config() {
    inet::PopulationConfig c;
    c.iot_per_day = 400;
    c.generic_per_day = 200;
    c.benign_per_day = 0;
    c.misconfig_per_day = 0;
    c.victims_per_day = 0;
    return c;
  }
  inet::WorldModel world_ =
      inet::WorldModel::standard(Cidr(Ipv4(44, 0, 0, 0), 8));
  inet::Population pop_ = inet::Population::generate(config(), world_);
  probe::ActiveProber prober_{pop_, probe::ProberConfig::standard()};
};

TEST_F(ScanModuleTest, BatchesAndLabels) {
  probe::BatcherConfig batcher;
  batcher.max_records = 1000;  // Larger than the submissions below.
  ScanModule module(prober_, fingerprint::RuleDb::standard(), batcher);

  for (const auto& host : pop_.hosts()) {
    auto flushed = module.submit(host.addr, seconds(1));
    EXPECT_TRUE(flushed.empty());  // Under both flush conditions.
  }
  auto outcomes = module.flush(minutes(5));
  ASSERT_EQ(outcomes.size(), pop_.hosts().size());

  int iot_labels = 0, noniot_labels = 0, unlabeled = 0;
  for (const auto& outcome : outcomes) {
    const inet::Host* host = pop_.find(outcome.src);
    ASSERT_NE(host, nullptr);
    if (outcome.training_label == 1) {
      ++iot_labels;
      // IoT training labels must come from true IoT devices (dropbear/
      // embedded rules keep this sound in the catalog).
      EXPECT_EQ(host->cls, inet::HostClass::kInfectedIot);
    } else if (outcome.training_label == 0) {
      ++noniot_labels;
    } else {
      ++unlabeled;
    }
  }
  // Banner-labeled flows are a small fraction, as the paper reports.
  EXPECT_GT(iot_labels, 0);
  EXPECT_GT(noniot_labels, 0);
  EXPECT_GT(unlabeled, iot_labels + noniot_labels);
}

TEST_F(ScanModuleTest, TimeFlushAfterSixtyMinutes) {
  ScanModule module(prober_, fingerprint::RuleDb::standard());
  (void)module.submit(pop_.hosts()[0].addr, 0);
  EXPECT_TRUE(module.tick(minutes(59)).empty());
  EXPECT_EQ(module.tick(minutes(60)).size(), 1u);
}

TEST_F(ScanModuleTest, UnknownBannerLogCollectsScrubbedDeviceText) {
  ScanModule module(prober_, fingerprint::RuleDb::standard());
  for (const auto& host : pop_.hosts()) {
    (void)module.submit(host.addr, 0);
  }
  (void)module.flush(minutes(120));
  EXPECT_EQ(module.probed(), pop_.hosts().size());
}

// ----------------------------------------------------- UpdateClassifier ----

ml::FeatureVector feature_for(int label, Rng& rng) {
  ml::FeatureVector f(8);
  for (auto& x : f) x = rng.normal(label * 2.0, 1.0);
  return f;
}

TEST(UpdateClassifierTest, NoModelWithoutEnoughExamples) {
  TrainerConfig config;
  config.min_examples_per_class = 10;
  UpdateClassifier trainer(config);
  Rng rng(1);
  for (int i = 0; i < 9; ++i) {
    trainer.add_example(hours(1), feature_for(1, rng), 1);
    trainer.add_example(hours(1), feature_for(0, rng), 0);
  }
  EXPECT_FALSE(trainer.retrain(hours(2)).has_value());
  EXPECT_EQ(trainer.latest(), nullptr);
}

TEST(UpdateClassifierTest, TrainsAndScores) {
  TrainerConfig config;
  config.min_examples_per_class = 10;
  config.selection.search_iterations = 2;
  UpdateClassifier trainer(config);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    trainer.add_example(hours(1), feature_for(1, rng), 1);
    trainer.add_example(hours(1), feature_for(0, rng), 0);
  }
  ASSERT_TRUE(trainer.retrain(hours(2)).has_value());
  const DeployedModel* model = trainer.latest();
  ASSERT_NE(model, nullptr);
  // Individual scores are not calibrated; class-mean separation is the
  // contract (ranking, hence ROC-AUC, is what model selection optimizes).
  Rng probe_rng(3);
  double pos = 0, neg = 0;
  for (int i = 0; i < 30; ++i) {
    pos += model->score(feature_for(1, probe_rng));
    neg += model->score(feature_for(0, probe_rng));
  }
  EXPECT_GT(pos / 30, neg / 30 + 0.3);
  EXPECT_GT(model->selected.test_auc, 0.9);
}

TEST(UpdateClassifierTest, RetrainIntervalEnforced) {
  TrainerConfig config;
  config.min_examples_per_class = 5;
  config.retrain_interval = kMicrosPerDay;
  config.selection.search_iterations = 1;
  UpdateClassifier trainer(config);
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    trainer.add_example(hours(1), feature_for(1, rng), 1);
    trainer.add_example(hours(1), feature_for(0, rng), 0);
  }
  EXPECT_TRUE(trainer.maybe_retrain(hours(10)).has_value());
  EXPECT_FALSE(trainer.maybe_retrain(hours(20)).has_value());
  EXPECT_TRUE(trainer.maybe_retrain(hours(10) + kMicrosPerDay).has_value());
  EXPECT_EQ(trainer.models_trained(), 2u);
}

TEST(UpdateClassifierTest, SlidingWindowPrunesOldExamples) {
  TrainerConfig config;
  config.window = 14 * kMicrosPerDay;
  config.min_examples_per_class = 5;
  config.selection.search_iterations = 1;
  UpdateClassifier trainer(config);
  Rng rng(5);
  // Old cohort at day 0, fresh cohort at day 13.
  for (int i = 0; i < 20; ++i) {
    trainer.add_example(hours(1), feature_for(1, rng), 1);
    trainer.add_example(13 * kMicrosPerDay, feature_for(0, rng), 0);
  }
  // Retraining at day 20: day-0 examples fall outside the window, leaving
  // only one class -> no model.
  EXPECT_FALSE(trainer.retrain(20 * kMicrosPerDay).has_value());
  EXPECT_EQ(trainer.window_size(), 20u);
}

TEST(UpdateClassifierTest, PersistsDailyModelsWhenConfigured) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("exiot_trainer_models_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  TrainerConfig config;
  config.min_examples_per_class = 5;
  config.selection.search_iterations = 1;
  config.model_dir = dir;
  UpdateClassifier trainer(config);
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    trainer.add_example(hours(1), feature_for(1, rng), 1);
    trainer.add_example(hours(1), feature_for(0, rng), 0);
  }
  ASSERT_TRUE(trainer.retrain(hours(2)).has_value());
  ml::ModelDirectory directory(dir);
  ASSERT_EQ(directory.list().size(), 1u);
  auto loaded = directory.load_at(hours(3));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().trained_at, hours(2));
  // The archived model scores exactly like the deployed one.
  Rng probe(8);
  auto raw = feature_for(1, probe);
  EXPECT_DOUBLE_EQ(
      loaded.value().forest.predict_score(
          loaded.value().normalizer.transform(raw)),
      trainer.latest()->score(raw));
  std::filesystem::remove_all(dir);
}

TEST(UpdateClassifierTest, ModelAtTimeSelectsContemporary) {
  TrainerConfig config;
  config.min_examples_per_class = 5;
  config.retrain_interval = kMicrosPerDay;
  config.selection.search_iterations = 1;
  UpdateClassifier trainer(config);
  Rng rng(6);
  for (int day = 1; day <= 3; ++day) {
    for (int i = 0; i < 30; ++i) {
      trainer.add_example(day * kMicrosPerDay, feature_for(1, rng), 1);
      trainer.add_example(day * kMicrosPerDay, feature_for(0, rng), 0);
    }
    (void)trainer.retrain(day * kMicrosPerDay + hours(1));
  }
  EXPECT_EQ(trainer.models_trained(), 3u);
  EXPECT_EQ(trainer.model_at(kMicrosPerDay), nullptr);
  EXPECT_EQ(trainer.model_at(kMicrosPerDay + hours(2))->trained_at,
            kMicrosPerDay + hours(1));
  EXPECT_EQ(trainer.model_at(10 * kMicrosPerDay)->trained_at,
            3 * kMicrosPerDay + hours(1));
}

}  // namespace
}  // namespace exiot::pipeline
