// Throughput of the capture->detect stage, in three modes:
//
//   replay — one pre-synthesized hour, held as 1024-row SoA batches,
//     pushed through the serial ThreadedIngest::run_hour_batched, its rows
//     routed to 1/2/4/8 lane detectors on the calling thread (the producer
//     cost is a plain replay of the stored batches).
//   live — serial end-to-end pps (synthesis + routing + detection on the
//     calling thread) across the producer-partitions x detector-lanes
//     grid: ParallelProducer::emit_batches into run_hour_batched.
//   lanes — the pipeline's lane path (ExIotPipeline::run_hours): each of
//     1/2/4 lanes synthesizes, filters (one federation site) and detects
//     its own sources on its own thread via run_hour_lanes.
//
//   ./bench_ingest_throughput            (EXIOT_SCALE=0.2 EXIOT_SEED=42)
//
// All tables are also written to BENCH_ingest.json for the perf
// trajectory. Speedups are relative to the single-lane configuration and
// can only materialize on multi-core hardware — the binary prints the
// core count alongside so single-core CI numbers are not misread as a
// regression.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "flow/detector.h"
#include "inet/population.h"
#include "pipeline/federation.h"
#include "pipeline/ingest.h"
#include "pipeline/producer.h"
#include "probe/prober.h"
#include "telescope/synthesizer.h"

using namespace exiot;

namespace {

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atof(value) : fallback;
}

pipeline::ThreadedIngest make_ingest(int shards) {
  pipeline::IngestConfig config;
  config.num_shards = shards;
  // Empty sink: measures capture routing + detection, not downstream.
  return pipeline::ThreadedIngest(config, flow::DetectorConfig{},
                                  flow::DetectorEvents{},
                                  probe::table1_ports());
}

double run_replay(const std::vector<net::PacketBatch>& batches,
                  std::size_t packets, int shards) {
  pipeline::ThreadedIngest ingest = make_ingest(shards);
  const auto start = std::chrono::steady_clock::now();
  ingest.run_hour_batched(
      [&batches, packets](const pipeline::ThreadedIngest::BatchFn& fn) {
        for (const auto& batch : batches) fn(batch);
        return packets;
      },
      kMicrosPerHour);
  ingest.finish();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(packets) / elapsed;
}

double run_live(const inet::Population& population, Cidr aperture,
                int producers, int shards, std::size_t* packets_out) {
  pipeline::ProducerConfig producer_config;
  producer_config.num_producers = producers;
  pipeline::ParallelProducer producer(population, aperture, producer_config);
  pipeline::ThreadedIngest ingest = make_ingest(shards);
  const auto start = std::chrono::steady_clock::now();
  const std::size_t count = ingest.run_hour_batched(
      [&producer](const pipeline::ThreadedIngest::BatchFn& fn) {
        return producer.emit_batches(0, kMicrosPerHour, 1024, fn);
      },
      kMicrosPerHour);
  ingest.finish();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (packets_out != nullptr) *packets_out = count;
  return static_cast<double>(count) / elapsed;
}

/// The lane path run_hours drives over the first `hours` capture hours:
/// producer partition -> federation filter -> lane detector, one thread
/// per lane.
double run_lanes(const inet::Population& population, Cidr aperture,
                 int lanes, int hours, std::size_t* packets_out,
                 obs::Tracer* tracer = nullptr) {
  pipeline::ProducerConfig producer_config;
  producer_config.num_producers = lanes;
  pipeline::ParallelProducer producer(population, aperture, producer_config);
  const auto n = static_cast<std::size_t>(producer.num_producers());
  pipeline::FederationStage federation(
      pipeline::FederationConfig{aperture, 1, 0, {}}, nullptr, n);
  pipeline::IngestConfig ingest_config;
  ingest_config.num_shards = producer.num_producers();
  pipeline::ThreadedIngest ingest(ingest_config, flow::DetectorConfig{},
                                  flow::DetectorEvents{},
                                  probe::table1_ports(), nullptr, tracer);
  const auto start = std::chrono::steady_clock::now();
  std::size_t count = 0;
  for (int h = 0; h < hours; ++h) {
    const TimeMicros t0 = h * kMicrosPerHour;
    const TimeMicros t1 = t0 + kMicrosPerHour;
    count += ingest.run_hour_lanes(
        [&](std::size_t lane, const pipeline::LaneBatchFn& detect) {
          return federation.run_lane(
              lane,
              [&](const pipeline::LaneBatchFn& filter) {
                return producer.emit_lane(lane, t0, t1, 512, filter);
              },
              detect);
        },
        t1);
  }
  ingest.finish();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (packets_out != nullptr) *packets_out = count;
  return static_cast<double>(count) / elapsed;
}

}  // namespace

int main() {
  const double scale = env_double("EXIOT_SCALE", 0.2);
  const auto seed = static_cast<std::uint64_t>(env_double("EXIOT_SEED", 42));

  const Cidr aperture(Ipv4(44, 0, 0, 0), 8);
  auto world = inet::WorldModel::standard(aperture);
  inet::PopulationConfig config;
  config.seed = seed;
  auto population = inet::Population::generate(config.scaled(scale), world);

  // Pre-synthesize the hour so the replay numbers isolate the ingest
  // stage itself.
  std::vector<net::PacketBatch> batches;
  telescope::TrafficSynthesizer synth(population, aperture);
  const std::size_t packets = synth.emit_batches(
      0, kMicrosPerHour, 1024,
      [&batches](const net::PacketBatch& batch) { batches.push_back(batch); });
  std::printf("one capture hour: %zu packets (scale %.2f, seed %llu), "
              "%u hardware threads\n\n",
              packets, scale,
              static_cast<unsigned long long>(seed),
              std::thread::hardware_concurrency());

  std::FILE* json = benchx::open_bench_json("BENCH_ingest.json");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"ingest_throughput\",\n"
                 "  \"scale\": %.3f,\n  \"seed\": %llu,\n"
                 "  \"hardware_threads\": %u,\n  \"hour_packets\": %zu,\n",
                 scale, static_cast<unsigned long long>(seed),
                 std::thread::hardware_concurrency(), packets);
  }

  std::printf("replay (pre-synthesized hour; serial routing to lane "
              "detectors)\n");
  std::printf("%8s %14s %10s\n", "shards", "pps", "speedup");
  if (json != nullptr) std::fprintf(json, "  \"replay\": [");
  double base = 0.0;
  bool first = true;
  for (const int shards : {1, 2, 4, 8}) {
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const double pps = run_replay(batches, packets, shards);
      if (pps > best) best = pps;
    }
    if (shards == 1) base = best;
    std::printf("%8d %14.0f %9.2fx\n", shards, best, best / base);
    if (json != nullptr) {
      std::fprintf(json,
                   "%s\n    {\"shards\": %d, \"pps\": %.0f, "
                   "\"speedup\": %.3f}",
                   first ? "" : ",", shards, best, best / base);
    }
    first = false;
  }
  if (json != nullptr) std::fprintf(json, "\n  ],\n");

  std::printf("\nlive (serial synthesis + routing + detection, end to "
              "end)\n");
  std::printf("%10s %8s %14s %10s\n", "producers", "shards", "pps",
              "speedup");
  if (json != nullptr) std::fprintf(json, "  \"live\": [");
  double live_base = 0.0;
  first = true;
  for (const int producers : {1, 2, 4}) {
    for (const int shards : {1, 2, 4}) {
      double best = 0.0;
      std::size_t live_packets = 0;
      for (int rep = 0; rep < 2; ++rep) {
        const double pps =
            run_live(population, aperture, producers, shards, &live_packets);
        if (pps > best) best = pps;
      }
      if (live_packets != packets) {
        std::printf("!! live packet count %zu != replay %zu "
                    "(determinism violation)\n",
                    live_packets, packets);
      }
      if (producers == 1 && shards == 1) live_base = best;
      std::printf("%10d %8d %14.0f %9.2fx\n", producers, shards, best,
                  best / live_base);
      if (json != nullptr) {
        std::fprintf(json,
                     "%s\n    {\"producers\": %d, \"shards\": %d, "
                     "\"pps\": %.0f, \"speedup\": %.3f}",
                     first ? "" : ",", producers, shards, best,
                     best / live_base);
      }
      first = false;
    }
  }
  if (json != nullptr) std::fprintf(json, "\n  ],\n");

  // A whole day per run (one hour is ~15 ms of work at scale 0.2, too
  // short for thread start-up to amortize), median of 3.
  std::printf("\nlanes (the pipeline's lane path over a day: synthesis + "
              "federation filter + detection, one thread per lane; median "
              "of 3)\n");
  std::printf("%8s %14s %10s\n", "lanes", "pps", "speedup");
  if (json != nullptr) std::fprintf(json, "  \"lanes\": [");
  double lanes_base = 0.0;
  std::size_t day_packets = 0;
  first = true;
  for (const int lanes : {1, 2, 4}) {
    std::vector<double> reps;
    std::size_t lane_packets = 0;
    for (int rep = 0; rep < 3; ++rep) {
      reps.push_back(
          run_lanes(population, aperture, lanes, 24, &lane_packets));
    }
    std::sort(reps.begin(), reps.end());
    const double median = reps[1];
    if (lanes == 1) {
      lanes_base = median;
      day_packets = lane_packets;
    } else if (lane_packets != day_packets) {
      std::printf("!! lane packet count %zu != 1-lane %zu "
                  "(determinism violation)\n",
                  lane_packets, day_packets);
    }
    std::printf("%8d %14.0f %9.2fx\n", lanes, median, median / lanes_base);
    if (json != nullptr) {
      std::fprintf(json,
                   "%s\n    {\"lanes\": %d, \"pps\": %.0f, "
                   "\"speedup\": %.3f}",
                   first ? "" : ",", lanes, median, median / lanes_base);
    }
    first = false;
  }
  if (json != nullptr) std::fprintf(json, "\n  ],\n");

  // Span-tracing overhead on the 1-lane path: a disabled tracer must be a
  // single predictable branch (<= 3% cost is the budget; see
  // src/obs/span.h), and even 100% sampling should only pay for timestamp
  // reads and ring writes.
  std::printf("\ntracing overhead (lane path, 1 lane)\n");
  std::printf("%16s %14s %10s\n", "sampling", "pps", "vs off");
  double trace_base = 0.0;
  first = true;
  if (json != nullptr) std::fprintf(json, "  \"tracing\": [");
  for (const double rate : {-1.0, 0.0, 1.0}) {
    obs::MetricsRegistry scratch;
    obs::Tracer tracer(obs::TracerConfig{rate < 0.0 ? 0.0 : rate, 4096},
                       &scratch);
    obs::Tracer* arg = rate < 0.0 ? nullptr : &tracer;
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const double pps =
          run_lanes(population, aperture, 1, 1, nullptr, arg);
      if (pps > best) best = pps;
    }
    if (rate < 0.0) trace_base = best;
    const char* label = rate < 0.0 ? "no tracer"
                        : rate == 0.0 ? "0% (disabled)" : "100%";
    std::printf("%16s %14.0f %9.3fx\n", label, best, best / trace_base);
    if (json != nullptr) {
      std::fprintf(json,
                   "%s\n    {\"sampling\": \"%s\", \"pps\": %.0f, "
                   "\"relative\": %.4f}",
                   first ? "" : ",", label, best, best / trace_base);
    }
    first = false;
  }
  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote %s\n",
                benchx::bench_json_path("BENCH_ingest.json").c_str());
  }
  std::printf("\nthe replay and live tables run on one thread, so lanes "
              "there only add routing; the lanes table scales with cores "
              "(expect >= 2x at 4 lanes on >= 4 cores). 0%% sampling should "
              "stay within ~3%% of the no-tracer baseline.\n");
  return 0;
}
