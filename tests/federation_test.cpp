// Tests for the telescope federation layer: aperture partitioning, the
// per-sensor sighting ledger, the federation stage's in-order
// attribute/drop/forward semantics — and the determinism
// matrix: the merged feed (export, outbox, API bodies) is byte-identical
// across site counts {1, 2, 4} x skew profiles x outage profiles x capture
// lanes {1, 2, 4, 8} x annotate-workers, with per-sensor first-seen
// attribution asserted on the multi-site runs. Invalid site counts are
// rejected in every build type.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "api/server.h"
#include "common/rng.h"
#include "feed/export.h"
#include "inet/population.h"
#include "pipeline/exiot.h"
#include "pipeline/federation.h"
#include "telescope/site.h"

namespace exiot::pipeline {
namespace {

// ------------------------------------------------------------ Partition ----

TEST(PartitionTest, SplitsIntoEqualPowerOfTwoSubPrefixes) {
  const Cidr telescope(Ipv4(44, 0, 0, 0), 8);
  const auto quarters = telescope::partition_aperture(telescope, 4);
  ASSERT_EQ(quarters.size(), 4u);
  EXPECT_EQ(quarters[0], Cidr(Ipv4(44, 0, 0, 0), 10));
  EXPECT_EQ(quarters[1], Cidr(Ipv4(44, 64, 0, 0), 10));
  EXPECT_EQ(quarters[2], Cidr(Ipv4(44, 128, 0, 0), 10));
  EXPECT_EQ(quarters[3], Cidr(Ipv4(44, 192, 0, 0), 10));
  // The partition tiles the aperture: disjoint, covering, ordered.
  std::uint64_t covered = 0;
  for (const auto& q : quarters) covered += q.size();
  EXPECT_EQ(covered, telescope.size());
  // n = 1 is the identity.
  const auto whole = telescope::partition_aperture(telescope, 1);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0], telescope);
}

TEST(PartitionTest, RejectsInvalidSiteCountsInEveryBuild) {
  // Checked with exceptions, not assert: the tier-1 and bench builds
  // compile asserts out.
  const Cidr telescope(Ipv4(44, 0, 0, 0), 8);
  // 0 sites would leave deliver_event without a tunnel.
  EXPECT_THROW(telescope::partition_aperture(telescope, 0),
               std::invalid_argument);
  // 3 sites would silently leave the top quarter dark.
  EXPECT_THROW(telescope::partition_aperture(telescope, 3),
               std::invalid_argument);
  EXPECT_THROW(telescope::partition_aperture(telescope, -4),
               std::invalid_argument);
  // A /30 has room for 4 sites, not 8 (prefix length + bits > 32).
  const Cidr tiny(Ipv4(44, 0, 0, 0), 30);
  EXPECT_EQ(telescope::partition_aperture(tiny, 4).size(), 4u);
  EXPECT_THROW(telescope::partition_aperture(tiny, 8),
               std::invalid_argument);

  for (const int sites : {0, 3}) {
    EXPECT_THROW(FederationStage(FederationConfig{telescope, sites, 0, {}}),
                 std::invalid_argument)
        << sites << " sites";
  }
  EXPECT_THROW(FederationStage(FederationConfig{tiny, 8, 0, {}}),
               std::invalid_argument);

  // The pipeline refuses the config instead of running half-dark.
  inet::PopulationConfig config;
  config.iot_per_day = 2;
  config.generic_per_day = 2;
  config.misconfig_per_day = 1;
  config.victims_per_day = 1;
  config.benign_per_day = 1;
  config.days = 1;
  auto world = inet::WorldModel::standard(telescope);
  auto population = inet::Population::generate(config, world);
  PipelineConfig pipe_config;
  pipe_config.num_sites = 3;
  EXPECT_THROW(ExIotPipeline(population, world, pipe_config),
               std::invalid_argument);
}

// ------------------------------------------------------- SightingTable ----

TEST(SightingTableTest, TracksPerSiteFirstSeenAndDedup) {
  telescope::SightingTable table(4);
  const std::uint32_t scanner = Ipv4(203, 0, 113, 9).value();
  table.record(scanner, 2, seconds(10), seconds(10) + seconds(3));
  table.record(scanner, 2, seconds(12), seconds(12) + seconds(3));
  table.record(scanner, 0, seconds(11), seconds(11));
  EXPECT_EQ(table.sources(), 1u);
  EXPECT_EQ(table.multi_sensor_sources(), 1u);

  const auto sightings = table.sightings_of(scanner);
  ASSERT_EQ(sightings.size(), 2u);  // Site order: 0 then 2.
  EXPECT_EQ(sightings[0].site, 0u);
  EXPECT_EQ(sightings[0].first_seen, seconds(11));
  EXPECT_EQ(sightings[0].packets, 1u);
  EXPECT_EQ(sightings[1].site, 2u);
  EXPECT_EQ(sightings[1].first_seen, seconds(10));
  EXPECT_EQ(sightings[1].local_first_seen, seconds(13));
  EXPECT_EQ(sightings[1].packets, 2u);

  // A single-sensor source never counts as multi-sensor.
  table.record(Ipv4(198, 51, 100, 1).value(), 1, seconds(20), seconds(20));
  EXPECT_EQ(table.sources(), 2u);
  EXPECT_EQ(table.multi_sensor_sources(), 1u);
  EXPECT_TRUE(table.sightings_of(Ipv4(192, 0, 2, 1).value()).empty());
}

TEST(SightingTableTest, SurvivesGrowth) {
  telescope::SightingTable table(2);
  for (std::uint32_t i = 0; i < 5000; ++i) {
    table.record(i * 2654435761u, i % 2, seconds(i), seconds(i));
  }
  EXPECT_EQ(table.sources(), 5000u);
  const auto s = table.sightings_of(7 * 2654435761u);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].first_seen, seconds(7));
}

// ----------------------------------------------------- FederationStage ----

/// A source streaming one crafted batch.
FederationStage::BatchSource one_batch(const net::PacketBatch& batch) {
  return [&batch](const FederationStage::BatchFn& fn) {
    fn(batch);
    return batch.size();
  };
}

/// One window of seeded canonical batches: timestamps advance in runs of
/// equal values, a handful of sources each hit destinations across the
/// whole telescope, and about one row in eight lands outside it. The
/// source port is the row's window-wide ordinal, so rows stay distinct.
std::vector<net::PacketBatch> seeded_window(std::uint64_t seed,
                                            const std::vector<Ipv4>& srcs) {
  Rng rng(seed);
  const Cidr telescope(Ipv4(44, 0, 0, 0), 8);
  std::vector<net::PacketBatch> batches(6);
  TimeMicros ts = seconds(1);
  std::uint16_t ordinal = 0;
  for (auto& batch : batches) {
    const std::uint64_t rows = 1 + rng.next_below(300);
    for (std::uint64_t i = 0; i < rows; ++i) {
      if (rng.bernoulli(0.3)) ts += 1 + static_cast<TimeMicros>(
                                           rng.next_below(1000));
      const Ipv4 dst =
          rng.bernoulli(0.125)
              ? Ipv4(rng.bernoulli(0.5) ? 43 : 45,
                     static_cast<std::uint8_t>(rng.next_below(256)), 0, 1)
              : telescope.address_at(rng.next_below(telescope.size()));
      batch.push_back(net::make_syn(ts, srcs[rng.next_below(srcs.size())],
                                    dst, ordinal++, 23));
    }
  }
  return batches;
}

TEST(FederationStageTest, ForwardsActiveRowsInInputOrder) {
  const Cidr telescope(Ipv4(44, 0, 0, 0), 8);
  const std::vector<Ipv4> srcs{Ipv4(203, 0, 113, 1), Ipv4(203, 0, 113, 2),
                               Ipv4(198, 51, 100, 3), Ipv4(192, 0, 2, 4),
                               Ipv4(100, 64, 0, 5)};
  for (const int sites : {2, 4, 8}) {
    for (int active = 1; active <= sites; ++active) {
      SCOPED_TRACE("sites=" + std::to_string(sites) +
                   " active=" + std::to_string(active));
      const auto batches = seeded_window(
          static_cast<std::uint64_t>(sites * 100 + active), srcs);
      FederationConfig config;
      config.telescope = telescope;
      config.num_sites = sites;
      config.active_sites = active;
      config.sites.resize(static_cast<std::size_t>(sites));
      for (int i = 0; i < sites; ++i) {
        config.sites[static_cast<std::size_t>(i)].clock_skew = seconds(i);
      }
      obs::MetricsRegistry metrics;
      FederationStage stage(config, &metrics);

      std::size_t input = 0;
      std::vector<net::Packet> got;
      const std::size_t forwarded = stage.run_window(
          [&](const FederationStage::BatchFn& fn) {
            for (const auto& batch : batches) {
              fn(batch);
              input += batch.size();
            }
            return input;
          },
          [&](const net::PacketBatch& out) {
            for (std::size_t i = 0; i < out.size(); ++i) {
              got.push_back(out[i]);
            }
          });

      // The direct count: a row belongs to site (dst - network) / slice.
      const std::uint64_t slice =
          telescope.size() / static_cast<std::uint64_t>(sites);
      std::vector<net::Packet> want;
      std::uint64_t dropped = 0;
      std::vector<std::uint64_t> per_site(static_cast<std::size_t>(sites));
      std::map<std::pair<std::uint32_t, std::size_t>,
               telescope::SightingTable::Sighting>
          sighted;
      for (const auto& batch : batches) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const net::Packet& p = batch[i];
          const std::size_t site =
              telescope.contains(p.dst)
                  ? static_cast<std::size_t>(
                        (p.dst.value() - telescope.network().value()) / slice)
                  : static_cast<std::size_t>(sites);
          if (site >= static_cast<std::size_t>(active)) {
            ++dropped;
            continue;
          }
          want.push_back(p);
          ++per_site[site];
          auto& s = sighted[{p.src.value(), site}];
          s.first_seen = std::min(s.first_seen, p.ts);
          ++s.packets;
        }
      }
      ASSERT_GT(dropped, 0u);
      EXPECT_EQ(forwarded, want.size());
      EXPECT_EQ(got, want);
      EXPECT_EQ(metrics.counter_value("exiot_federation_dropped_total"),
                dropped);
      for (std::size_t s = 0; s < per_site.size(); ++s) {
        EXPECT_EQ(metrics.counter_value(
                      "exiot_federation_packets_total",
                      obs::Labels{{"site", "site" + std::to_string(s)}}),
                  per_site[s])
            << "site " << s;
      }
      for (const Ipv4 src : srcs) {
        std::vector<feed::SensorSighting> expect;
        for (const auto& [key, s] : sighted) {
          if (key.first != src.value()) continue;
          feed::SensorSighting e;
          e.sensor = "site" + std::to_string(key.second);
          e.first_seen = s.first_seen;
          e.local_first_seen =
              s.first_seen + seconds(static_cast<double>(key.second));
          e.packets = s.packets;
          expect.push_back(e);
        }
        const auto actual = stage.sightings_of(src);
        ASSERT_EQ(actual.size(), expect.size()) << src.to_string();
        for (std::size_t i = 0; i < actual.size(); ++i) {
          EXPECT_EQ(actual[i].sensor, expect[i].sensor);
          EXPECT_EQ(actual[i].first_seen, expect[i].first_seen);
          EXPECT_EQ(actual[i].local_first_seen, expect[i].local_first_seen);
          EXPECT_EQ(actual[i].packets, expect[i].packets);
        }
      }
    }
  }
}

TEST(FederationStageTest, DemuxesRecordsAndDropsDarkApertures) {
  FederationConfig config;
  config.telescope = Cidr(Ipv4(44, 0, 0, 0), 8);
  config.num_sites = 2;
  config.active_sites = 1;  // Site 1 is dark.
  config.sites.resize(2);
  config.sites[1].clock_skew = seconds(7);
  obs::MetricsRegistry metrics;
  FederationStage stage(config, &metrics);

  net::PacketBatch batch;
  const Ipv4 scanner(203, 0, 113, 9);
  // Row 0 lands in site 0's half, row 1 in dark site 1's half.
  batch.push_back(net::make_syn(seconds(1), scanner, Ipv4(44, 10, 0, 1),
                                40000, 23));
  batch.push_back(net::make_syn(seconds(2), scanner, Ipv4(44, 200, 0, 1),
                                40001, 23));

  std::size_t forwarded_rows = 0;
  const std::size_t forwarded =
      stage.run_window(one_batch(batch), [&](const net::PacketBatch& out) {
        forwarded_rows += out.size();
        EXPECT_EQ(out[0].dst, Ipv4(44, 10, 0, 1));
      });
  EXPECT_EQ(forwarded, 1u);
  EXPECT_EQ(forwarded_rows, 1u);
  EXPECT_EQ(metrics.counter_value("exiot_federation_dropped_total"), 1u);

  // Only the live site sighted the scanner.
  const auto sightings = stage.sightings_of(scanner);
  ASSERT_EQ(sightings.size(), 1u);
  EXPECT_EQ(sightings[0].sensor, "site0");
  EXPECT_EQ(sightings[0].aperture, "44.0.0.0/9");
  EXPECT_EQ(sightings[0].first_seen, seconds(1));
}

TEST(FederationStageTest, SkewColorsAttributionOnly) {
  FederationConfig config;
  config.num_sites = 4;
  config.sites.resize(4);
  config.sites[3].clock_skew = -seconds(2);
  FederationStage stage(config);

  net::PacketBatch batch;
  const Ipv4 scanner(198, 51, 100, 7);
  batch.push_back(net::make_syn(seconds(5), scanner, Ipv4(44, 1, 0, 1),
                                40000, 23));
  batch.push_back(net::make_syn(seconds(6), scanner, Ipv4(44, 201, 0, 1),
                                40001, 23));
  std::vector<TimeMicros> merged_ts;
  stage.run_window(one_batch(batch), [&](const net::PacketBatch& out) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      merged_ts.push_back(out[i].ts);
    }
  });
  // The merged stream keeps canonical timestamps and order.
  EXPECT_EQ(merged_ts, (std::vector<TimeMicros>{seconds(5), seconds(6)}));
  const auto sightings = stage.sightings_of(scanner);
  ASSERT_EQ(sightings.size(), 2u);
  EXPECT_EQ(sightings[0].sensor, "site0");
  EXPECT_EQ(sightings[0].local_first_seen, seconds(5));
  EXPECT_EQ(sightings[1].sensor, "site3");
  EXPECT_EQ(sightings[1].first_seen, seconds(6));
  EXPECT_EQ(sightings[1].local_first_seen, seconds(4));  // skew -2s.
}

TEST(FederationStageTest, EventDeliveryWaitsForSlowestSightedTunnel) {
  FederationConfig config;
  config.num_sites = 2;
  config.sites.resize(2);
  config.sites[1].outages.emplace_back(seconds(100), seconds(200));
  config.sites[1].reconnect_delay = seconds(5);
  FederationStage stage(config);

  const Ipv4 both_sites(203, 0, 113, 5);
  const Ipv4 site0_only(203, 0, 113, 6);
  net::PacketBatch batch;
  batch.push_back(net::make_syn(seconds(1), both_sites, Ipv4(44, 1, 0, 1),
                                40000, 23));
  batch.push_back(net::make_syn(seconds(2), both_sites, Ipv4(44, 200, 0, 1),
                                40001, 23));
  batch.push_back(net::make_syn(seconds(3), site0_only, Ipv4(44, 2, 0, 1),
                                40002, 23));
  stage.run_window(one_batch(batch), [](const net::PacketBatch&) {});

  // An event about a source sighted by both sites waits for site 1's
  // outage + reconnect; a site-0-only source sails through.
  EXPECT_EQ(stage.deliver_event(both_sites, seconds(150)), seconds(205));
  EXPECT_EQ(stage.deliver_event(site0_only, seconds(150)), seconds(150));
}

// ------------------------------------------------ Determinism matrix ----

struct RunOutput {
  std::string feed;
  std::string outbox;
  std::string records_api;
  std::string snapshot_api;
  PipelineStats stats;
};

struct SiteProfile {
  int sites = 1;
  int active = 0;
  std::vector<double> skew_seconds;  // Index-matched, missing = 0.
  /// One outage applied to EVERY site's tunnel (a global transport event
  /// — the only outage shape that can be feed-invariant across site
  /// counts, since per-site outages change which events are delayed).
  std::pair<double, double> global_outage{0, 0};
};

/// Full pipeline run over the small deterministic population; returns
/// every externally visible artifact for byte comparison (the same
/// harness as the annotate determinism matrix, plus federation knobs).
RunOutput run_pipeline(
    const SiteProfile& profile, int annotate_workers, int lanes,
    const std::function<void(ExIotPipeline&)>& inspect = nullptr) {
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
  pipe_config.num_producer_threads = lanes;
  pipe_config.num_annotate_workers = annotate_workers;
  pipe_config.annotate_queue_capacity = 8;
  pipe_config.num_sites = profile.sites;
  pipe_config.active_sites = profile.active;
  pipe_config.site_specs.resize(static_cast<std::size_t>(profile.sites));
  for (std::size_t i = 0; i < pipe_config.site_specs.size(); ++i) {
    if (i < profile.skew_seconds.size()) {
      pipe_config.site_specs[i].clock_skew =
          seconds(profile.skew_seconds[i]);
    }
    if (profile.global_outage.second > profile.global_outage.first) {
      pipe_config.site_specs[i].outages.emplace_back(
          seconds(profile.global_outage.first),
          seconds(profile.global_outage.second));
    }
  }
  ExIotPipeline pipe(population, world, pipe_config);
  pipe.run_days(0, 1);
  pipe.finish();

  RunOutput out;
  out.stats = pipe.stats();
  std::ostringstream feed;
  feed::export_jsonl(pipe.feed(), feed);
  out.feed = feed.str();
  std::ostringstream outbox;
  for (const auto& mail : pipe.outbox()) {
    outbox << mail.sent_at << "|" << mail.to << "|" << mail.subject << "|"
           << mail.body << "\n";
  }
  out.outbox = outbox.str();
  api::ApiServer server(pipe.feed());
  server.add_token("t");
  auto request = [&](const std::string& target) {
    auto parsed = api::HttpRequest::parse(
        "GET " + target + " HTTP/1.1\r\nAuthorization: Bearer t\r\n\r\n");
    EXPECT_TRUE(parsed.has_value());
    return server.handle(*parsed).body;
  };
  out.records_api = request("/v1/records?limit=100000");
  out.snapshot_api = request("/v1/snapshot");
  if (inspect) inspect(pipe);
  return out;
}

TEST(FederationDeterminismTest, FeedInvariantAcrossSiteMatrix) {
  const RunOutput baseline = run_pipeline(SiteProfile{}, 1, 1);
  EXPECT_GT(baseline.stats.records_published, 0u);
  EXPECT_FALSE(baseline.outbox.empty());
  // Site count x skew profile x lanes x annotate-workers: filtering the
  // canonical stream per sensor inside each lane and merging the lanes'
  // events must reconstruct it exactly, and skew never reaches the feed.
  for (const auto& [sites, skews, workers, lanes] :
       {std::tuple{1, std::vector<double>{}, 2, 8},
        std::tuple{2, std::vector<double>{}, 1, 1},
        std::tuple{2, std::vector<double>{3.0, -2.0}, 2, 2},
        std::tuple{4, std::vector<double>{}, 1, 4},
        std::tuple{4, std::vector<double>{1.0, 0.0, -5.0, 60.0}, 4, 8}}) {
    SiteProfile profile;
    profile.sites = sites;
    profile.skew_seconds = skews;
    const RunOutput run = run_pipeline(profile, workers, lanes);
    EXPECT_EQ(baseline.feed, run.feed)
        << "sites=" << sites << " workers=" << workers
        << " lanes=" << lanes;
    EXPECT_EQ(baseline.outbox, run.outbox) << "sites=" << sites;
    EXPECT_EQ(baseline.records_api, run.records_api) << "sites=" << sites;
    EXPECT_EQ(baseline.snapshot_api, run.snapshot_api) << "sites=" << sites;
    EXPECT_EQ(baseline.stats.records_published, run.stats.records_published);
    EXPECT_EQ(baseline.stats.scanners_detected, run.stats.scanners_detected);
  }
}

TEST(FederationDeterminismTest, GlobalOutageProfileInvariantAcrossSites) {
  // Under a transport outage that hits every site's tunnel identically,
  // the feed changes (deliveries are delayed) but stays byte-identical
  // across site counts: every sighted site delivers at the same instant.
  SiteProfile outage1;
  outage1.global_outage = {3600.0 * 4, 3600.0 * 7};
  const RunOutput baseline = run_pipeline(outage1, 1, 1);
  EXPECT_GT(baseline.stats.records_published, 0u);
  for (int sites : {2, 4}) {
    SiteProfile profile = outage1;
    profile.sites = sites;
    const RunOutput run = run_pipeline(profile, 2, 4);
    EXPECT_EQ(baseline.feed, run.feed) << "sites=" << sites;
    EXPECT_EQ(baseline.records_api, run.records_api) << "sites=" << sites;
    EXPECT_EQ(baseline.snapshot_api, run.snapshot_api) << "sites=" << sites;
  }
  // And the outage did change the feed relative to the clean baseline.
  const RunOutput clean = run_pipeline(SiteProfile{}, 1, 1);
  EXPECT_NE(clean.feed, baseline.feed);
}

TEST(FederationAttributionTest, RecordsCarryPerSensorFirstSeen) {
  SiteProfile profile;
  profile.sites = 4;
  profile.skew_seconds = {0.0, 2.0, 0.0, -3.0};
  const RunOutput run =
      run_pipeline(profile, 1, 4, [&](ExIotPipeline& pipe) {
        // Random /8-wide scanners land in several sites' apertures: the
        // ledger must dedup them into one source carrying a multi-sensor
        // sighting list, with local first-seen = canonical + site skew.
        EXPECT_GT(pipe.federation().multi_sensor_sources(), 0u);
        std::size_t multi_sensor_records = 0;
        for (const auto& record :
             pipe.feed().published_between(0, hours(24 * 365))) {
          const auto sightings = pipe.federation().sightings_of(record.src);
          ASSERT_FALSE(sightings.empty())
              << "published record without attribution: "
              << record.src.to_string();
          if (sightings.size() > 1) ++multi_sensor_records;
          for (const auto& s : sightings) {
            const std::size_t site =
                static_cast<std::size_t>(s.sensor.back() - '0');
            ASSERT_LT(site, profile.skew_seconds.size());
            EXPECT_EQ(s.local_first_seen,
                      s.first_seen + seconds(profile.skew_seconds[site]))
                << "sensor " << s.sensor;
            EXPECT_GT(s.packets, 0u);
            // The claimed aperture is one of the four /10 quarters.
            EXPECT_EQ(Cidr::parse(s.aperture)->prefix_len(), 10);
          }
        }
        EXPECT_GT(multi_sensor_records, 0u);
      });
  EXPECT_GT(run.stats.records_published, 0u);
}

TEST(FederationApertureTest, FewerActiveSitesShrinkDetection) {
  SiteProfile full;
  full.sites = 8;
  const RunOutput all = run_pipeline(full, 1, 1);
  SiteProfile quarter = full;
  quarter.active = 2;  // A quarter of the aperture.
  const RunOutput partial = run_pipeline(quarter, 1, 2);
  // A smaller aperture sees strictly less traffic and no more scanners.
  EXPECT_LT(partial.stats.packets_processed, all.stats.packets_processed);
  EXPECT_LE(partial.stats.scanners_detected, all.stats.scanners_detected);
  EXPECT_LE(partial.stats.records_published, all.stats.records_published);
  EXPECT_GT(partial.stats.packets_processed, 0u);
}

}  // namespace
}  // namespace exiot::pipeline
