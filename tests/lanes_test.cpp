// Tests for the capture lanes (pipeline/ingest.h, pipeline/lane.h): each
// lane's producer partition is exactly its sources' slice of the canonical
// stream; the barrier merge replays detector events event-for-event like
// one detector over the canonical stream, also when sources in different
// lanes share timestamps; the federation filter carries host indices
// through its compaction; and a throwing lane source is rethrown on the
// caller after every lane has joined.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "flow/detector.h"
#include "inet/population.h"
#include "net/packet.h"
#include "pipeline/federation.h"
#include "pipeline/ingest.h"
#include "pipeline/lane.h"
#include "pipeline/producer.h"

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

/// A canonical-stream row with its global host index.
struct HostRow {
  net::Packet pkt;
  std::uint32_t host = 0;
};

// --------------------------------------------------- Producer partitions ----

TEST(CaptureLanesTest, LaneStreamsPartitionTheCanonicalStream) {
  const Cidr aperture(Ipv4(44, 0, 0, 0), 8);
  auto pop = small_population(aperture);
  std::vector<net::Packet> reference;
  {
    ParallelProducer serial(pop, aperture);
    serial.emit_batches(0, hours(2), 100,
                        [&reference](const net::PacketBatch& batch) {
                          for (std::size_t i = 0; i < batch.size(); ++i) {
                            reference.push_back(batch[i]);
                          }
                        });
  }
  ASSERT_GT(reference.size(), 1000u);

  for (const int lanes : {2, 4, 8}) {
    ProducerConfig config;
    config.num_producers = lanes;
    ParallelProducer producer(pop, aperture, config);
    const auto n = static_cast<std::size_t>(producer.num_producers());
    std::vector<HostRow> merged;
    for (std::size_t lane = 0; lane < n; ++lane) {
      std::vector<HostRow> rows;
      for (int h = 0; h < 2; ++h) {
        producer.emit_lane(
            lane, hours(h), hours(h + 1), 64,
            [&rows](const net::PacketBatch& batch,
                    const std::uint32_t* hosts) {
              for (std::size_t i = 0; i < batch.size(); ++i) {
                rows.push_back(HostRow{batch[i], hosts[i]});
              }
            });
      }
      for (std::size_t i = 0; i < rows.size(); ++i) {
        // Every row of lane `lane` is one of its own sources...
        ASSERT_EQ(lane_of(rows[i].pkt.src.value(), n), lane);
        // ...and the lane's stream is in canonical (ts, host) order.
        if (i > 0) {
          ASSERT_LE(std::tie(rows[i - 1].pkt.ts, rows[i - 1].host),
                    std::tie(rows[i].pkt.ts, rows[i].host));
        }
      }
      merged.insert(merged.end(), rows.begin(), rows.end());
    }
    // Merging the lanes by (ts, host) — stable, so one host's equal-ts
    // packets keep their lane order — rebuilds the canonical stream.
    std::stable_sort(merged.begin(), merged.end(),
                     [](const HostRow& a, const HostRow& b) {
                       return std::tie(a.pkt.ts, a.host) <
                              std::tie(b.pkt.ts, b.host);
                     });
    ASSERT_EQ(merged.size(), reference.size()) << lanes << " lanes";
    for (std::size_t i = 0; i < merged.size(); ++i) {
      ASSERT_EQ(merged[i].pkt, reference[i])
          << lanes << " lanes diverge at packet " << i;
    }
  }
}

// --------------------------------------------------------- Event merge ----

/// Twelve sources scanning on one shared clock: every source sends at
/// exactly the same timestamps, so all detections (and sample
/// completions) of one instant tie across lanes. Host indices run against
/// source order, so only the (ts, host) key — not (ts, src) — merges them
/// right. Host 3 sends twice at some instants (equal (ts, host) rows,
/// ordered by lane ordinal). Returns the canonical stream.
std::vector<HostRow> shared_clock_stream() {
  constexpr int kSources = 12;
  std::vector<HostRow> rows;
  for (int i = 0; i < 160; ++i) {
    for (int s = 0; s < kSources; ++s) {
      const Ipv4 src(10, static_cast<std::uint8_t>(s), 0, 1);
      const auto host = static_cast<std::uint32_t>(kSources - 1 - s);
      const int copies = host == 3 && i % 10 == 0 ? 2 : 1;
      for (int c = 0; c < copies; ++c) {
        rows.push_back(HostRow{
            net::make_syn(seconds(i), src, Ipv4(44, 0, 0, 1),
                          static_cast<std::uint16_t>(40000 + c), 23,
                          static_cast<std::uint32_t>(i)),
            host});
      }
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const HostRow& a, const HostRow& b) {
                     return std::tie(a.pkt.ts, a.host) <
                            std::tie(b.pkt.ts, b.host);
                   });
  return rows;
}

/// Event log sink: every event in arrival order.
flow::DetectorEvents logging_sink(std::ostringstream& log) {
  flow::DetectorEvents sink;
  sink.on_scanner = [&log](const flow::FlowSummary& s) {
    log << "SCANNER " << s.src.to_string() << " " << s.detect_time << " "
        << s.total_packets << "\n";
  };
  sink.on_sample = [&log](Ipv4 src, const std::vector<net::Packet>& pkts) {
    log << "SAMPLE " << src.to_string() << " " << pkts.size() << " "
        << pkts.back().ts << " " << pkts.back().src_port << "\n";
  };
  sink.on_flow_end = [&log](const flow::FlowSummary& s) {
    log << "END " << s.src.to_string() << " " << s.total_packets << "\n";
  };
  sink.on_report = [&log](const flow::SecondReport& r) {
    log << "REPORT " << r.second_start / kMicrosPerSecond << " " << r.total
        << " " << r.new_scanners << "\n";
  };
  return sink;
}

flow::DetectorConfig short_sample_config() {
  flow::DetectorConfig config;
  config.sample_count = 7;  // Samples complete mid-hour, on shared ts.
  return config;
}

TEST(CaptureLanesTest, EventMergeReplaysCanonicalOrderOnSharedTimestamps) {
  const std::vector<HostRow> rows = shared_clock_stream();

  // Reference: one detector over the merged canonical stream.
  std::ostringstream expected;
  {
    ThreadedIngest serial(IngestConfig{1}, short_sample_config(),
                          logging_sink(expected), {23});
    serial.run_hour_batched(
        [&rows](const ThreadedIngest::BatchFn& fn) {
          net::PacketBatch batch;
          for (const HostRow& row : rows) {
            batch.push_back(row.pkt);
            if (batch.size() == 7) {
              fn(batch);
              batch.clear();
            }
          }
          if (!batch.empty()) fn(batch);
          return rows.size();
        },
        kMicrosPerHour);
    serial.finish();
  }
  ASSERT_NE(expected.str().find("SCANNER"), std::string::npos);
  ASSERT_NE(expected.str().find("SAMPLE"), std::string::npos);

  for (const int lanes : {2, 3, 4, 8}) {
    const auto n = static_cast<std::size_t>(lanes);
    std::vector<std::size_t> used(n, 0);
    for (const HostRow& row : rows) ++used[lane_of(row.pkt.src.value(), n)];
    ASSERT_GT(std::count_if(used.begin(), used.end(),
                            [](std::size_t c) { return c > 0; }),
              1)
        << "sources must span several lanes";

    std::ostringstream got;
    ThreadedIngest ingest(IngestConfig{lanes}, short_sample_config(),
                          logging_sink(got), {23});
    const std::size_t count = ingest.run_hour_lanes(
        [&rows, n](std::size_t lane, const LaneBatchFn& fn) {
          // This lane's rows, in canonical order, in 5-row batches.
          net::PacketBatch batch;
          std::vector<std::uint32_t> hosts;
          std::size_t emitted = 0;
          for (const HostRow& row : rows) {
            if (lane_of(row.pkt.src.value(), n) != lane) continue;
            batch.push_back(row.pkt);
            hosts.push_back(row.host);
            ++emitted;
            if (batch.size() == 5) {
              fn(batch, hosts.data());
              batch.clear();
              hosts.clear();
            }
          }
          if (!batch.empty()) fn(batch, hosts.data());
          return emitted;
        },
        kMicrosPerHour);
    ingest.finish();
    EXPECT_EQ(count, rows.size());
    EXPECT_EQ(got.str(), expected.str()) << lanes << " lanes";
  }
}

// ------------------------------------------------- Federation per lane ----

TEST(CaptureLanesTest, FederationLaneFilterCarriesHostsAndSightings) {
  // Four sites with two dark: run_lane must forward exactly the active
  // rows with their host indices, and record the same sightings as the
  // serial run_window pass.
  const Cidr telescope(Ipv4(44, 0, 0, 0), 8);
  const FederationConfig config{telescope, 4, 2, {}};
  std::vector<HostRow> rows;
  for (int i = 0; i < 400; ++i) {
    const Ipv4 src(10, 0, static_cast<std::uint8_t>(i % 16), 1);
    // Each source's destinations cycle through all four quarters of the
    // /8, so sources are sighted by both active sites.
    const Ipv4 dst(44, static_cast<std::uint8_t>((i / 16 % 4) * 64 + 1), 0,
                   1);
    rows.push_back(HostRow{net::make_syn(seconds(i), src, dst, 40000, 23,
                                         static_cast<std::uint32_t>(i)),
                           static_cast<std::uint32_t>(i % 16)});
  }
  FederationStage serial(config);
  serial.run_window(
      [&rows](const FederationStage::BatchFn& fn) {
        net::PacketBatch batch;
        for (const HostRow& row : rows) batch.push_back(row.pkt);
        fn(batch);
        return rows.size();
      },
      [](const net::PacketBatch&) {});

  constexpr std::size_t kLanes = 3;
  FederationStage laned(config, nullptr, kLanes);
  std::vector<HostRow> forwarded;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    laned.run_lane(
        lane,
        [&rows, lane](const LaneBatchFn& fn) {
          net::PacketBatch batch;
          std::vector<std::uint32_t> hosts;
          for (const HostRow& row : rows) {
            if (lane_of(row.pkt.src.value(), kLanes) != lane) continue;
            batch.push_back(row.pkt);
            hosts.push_back(row.host);
          }
          fn(batch, hosts.data());
          return batch.size();
        },
        [&forwarded](const net::PacketBatch& batch,
                     const std::uint32_t* hosts) {
          for (std::size_t i = 0; i < batch.size(); ++i) {
            forwarded.push_back(HostRow{batch[i], hosts[i]});
          }
        });
  }
  std::size_t active = 0;
  for (const HostRow& row : rows) {
    if (row.pkt.dst.value() >= Ipv4(44, 128, 0, 0).value()) continue;
    ++active;
    const auto hit = std::find_if(
        forwarded.begin(), forwarded.end(),
        [&row](const HostRow& f) { return f.pkt == row.pkt; });
    ASSERT_NE(hit, forwarded.end());
    EXPECT_EQ(hit->host, row.host);
  }
  EXPECT_EQ(forwarded.size(), active);
  for (int s = 0; s < 16; ++s) {
    const Ipv4 src(10, 0, static_cast<std::uint8_t>(s), 1);
    const auto want = serial.sightings_of(src);
    const auto have = laned.sightings_of(src);
    ASSERT_EQ(have.size(), want.size()) << src.to_string();
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(have[i].sensor, want[i].sensor);
      EXPECT_EQ(have[i].first_seen, want[i].first_seen);
      EXPECT_EQ(have[i].packets, want[i].packets);
    }
  }
  EXPECT_EQ(laned.multi_sensor_sources(), serial.multi_sensor_sources());
  EXPECT_GT(laned.multi_sensor_sources(), 0u);
}

// ----------------------------------------------------------- Failures ----

TEST(CaptureLanesTest, ThrowingLaneSourceIsRethrownAfterEveryLaneJoins) {
  const std::vector<HostRow> rows = shared_clock_stream();
  std::atomic<int> finished{0};
  {
    ThreadedIngest ingest(IngestConfig{4}, flow::DetectorConfig{},
                          flow::DetectorEvents{}, {23});
    EXPECT_THROW(
        ingest.run_hour_lanes(
            [&rows, &finished](std::size_t lane, const LaneBatchFn& fn) {
              net::PacketBatch batch;
              std::vector<std::uint32_t> hosts;
              for (const HostRow& row : rows) {
                if (lane_of(row.pkt.src.value(), 4) != lane) continue;
                batch.push_back(row.pkt);
                hosts.push_back(row.host);
                if (batch.size() == 16) {
                  fn(batch, hosts.data());
                  batch.clear();
                  hosts.clear();
                  // Lane 2 fails mid-hour, after detecting some rows.
                  if (lane == 2) throw std::runtime_error("lane 2 source");
                }
              }
              ++finished;
              return std::size_t{0};
            },
            kMicrosPerHour),
        std::runtime_error);
    // Every other lane ran to completion before the rethrow.
    EXPECT_EQ(finished.load(), 3);
    // The ingest is destroyed here, mid-hour, without terminating.
  }
}

TEST(CaptureLanesTest, ThrowingSerialSourcePropagatesAtAnyLaneCount) {
  const std::vector<HostRow> rows = shared_clock_stream();
  for (const int lanes : {1, 2, 4}) {
    ThreadedIngest ingest(IngestConfig{lanes}, flow::DetectorConfig{},
                          flow::DetectorEvents{}, {23});
    EXPECT_THROW(ingest.run_hour_batched(
                     [&rows](const ThreadedIngest::BatchFn& fn) -> std::size_t {
                       net::PacketBatch batch;
                       for (std::size_t i = 0; i < 64; ++i) {
                         batch.push_back(rows[i].pkt);
                       }
                       fn(batch);
                       throw std::runtime_error("source stops");
                     },
                     kMicrosPerHour),
                 std::runtime_error)
        << lanes << " lanes";
  }
}

}  // namespace
}  // namespace exiot::pipeline
