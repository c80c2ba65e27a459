// replay_day: one virtual day captured to hourly trace files in setup
// (telescope::capture_to_files), then replayed hour by hour: one sized read
// of the file, TraceDecoder::next_batch, FederationStage::run_window across
// four sites, and a one-shard ThreadedIngest::run_hour_batched — nested the
// way ExIotPipeline::run_hours nests them. Synthesis is out of the timed
// path, so decode, federation merge and detection do the work.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "events.h"
#include "goldens.h"
#include "probe/prober.h"
#include "telescope/capture.h"
#include "trace/trace.h"

namespace exiot::perfbench {
namespace {

struct Capture {
  std::unique_ptr<Sim> sim;
  std::vector<telescope::CapturedHour> hours;
  std::uint64_t packets = 0;
};

std::unique_ptr<Capture> capture_day(std::uint64_t seed,
                                     const std::filesystem::path& dir,
                                     RunResult& res) {
  auto cap = std::make_unique<Capture>();
  cap->sim = std::make_unique<Sim>(make_sim(seed));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  telescope::TrafficSynthesizer synth(cap->sim->population,
                                      telescope_aperture());
  auto hours = telescope::capture_to_files(
      synth, 0, kDayHours * kMicrosPerHour, dir, telescope::CollectionModel{});
  if (!hours.ok()) {
    res.fail("capture_to_files: " + hours.error().message);
    return cap;
  }
  cap->hours = std::move(hours).take();
  for (const auto& h : cap->hours) cap->packets += h.packet_count;
  // Write the capture back before timing anything: background writeback
  // of 1.4 GB would otherwise slow the replayed days.
  ::sync();
  return cap;
}

/// One sized read of a whole trace file.
bool read_file(const std::filesystem::path& file,
               std::vector<std::uint8_t>& out) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(file, ec);
  if (ec) return false;
  out.resize(size);
  std::FILE* in = std::fopen(file.c_str(), "rb");
  if (in == nullptr) return false;
  const std::size_t got = std::fread(out.data(), 1, out.size(), in);
  std::fclose(in);
  return got == out.size();
}

struct Day {
  std::vector<double> hour_ms;
  std::vector<double> hour_pps;  // Packets through detect per hour second.
  double day_s = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t dropped = 0;
  double rss_mb = 0.0;
  EventLog events;
};

Day replay(const Capture& cap, RunResult& res) {
  Day day;
  reset_peak_rss();
  Span root("bench.iteration");
  const auto start = Clock::now();
  obs::MetricsRegistry reg;
  pipeline::FederationStage federation(
      pipeline::FederationConfig{telescope_aperture(), kReplaySites, 0, {}},
      &reg);
  pipeline::ThreadedIngest ingest(
      pipeline::IngestConfig{kReplayShards, 64, kReplayBatch},
      flow::DetectorConfig{}, day.events.sink(), probe::table1_ports(), &reg);
  net::PacketBatch batch;
  batch.reserve(kReplayBatch);
  day.day_s += seconds_between(start, Clock::now());
  for (const auto& hour : cap.hours) {
    const auto t0 = Clock::now();
    Span hour_span("bench.hour");
    day.events.current = static_cast<std::size_t>(
        std::clamp<std::int64_t>(hour.hour_index, 0, kDayHours - 1));
    std::vector<std::uint8_t> bytes;
    {
      Span read("trace.read");
      if (!read_file(hour.file, bytes)) {
        res.fail("cannot read " + hour.file.filename().string());
      }
    }
    trace::TraceDecoder decoder(std::move(bytes));
    std::size_t decoded = 0;
    {
      Span ingest_span("pipeline.ingest.run_hour_batched");
      ingest.run_hour_batched(
          [&](const pipeline::ThreadedIngest::BatchFn& fn) {
            Span fed_span("pipeline.federation.run_window");
            return federation.run_window(
                [&](const pipeline::FederationStage::BatchFn& inner) {
                  std::size_t n = 0;
                  for (;;) {
                    batch.clear();
                    std::size_t got = 0;
                    {
                      Span decode("trace.decode");
                      got = decoder.next_batch(batch, kReplayBatch);
                    }
                    if (got == 0) break;
                    n += got;
                    Span demux("pipeline.federation.demux");
                    inner(batch);
                  }
                  decoded += n;
                  return n;
                },
                [&](const net::PacketBatch& b) {
                  Span consume("pipeline.ingest.consume");
                  fn(b);
                });
          },
          (hour.hour_index + 1) * kMicrosPerHour);
    }
    if (!decoder.valid() || decoded != hour.packet_count) {
      res.fail("hour " + std::to_string(hour.hour_index) + ": decoded " +
               std::to_string(decoded) + " of " +
               std::to_string(hour.packet_count) + " packets (" +
               decoder.last_error() + ")");
    }
    day.packets += decoded;
    const double s = seconds_between(t0, Clock::now());
    day.hour_ms.push_back(s * 1e3);
    day.hour_pps.push_back(static_cast<double>(decoded) / s);
    day.day_s += s;
  }
  day.events.current = kDayHours;
  const auto t0 = Clock::now();
  {
    Span fin("pipeline.ingest.finish");
    ingest.finish();
  }
  day.day_s += seconds_between(t0, Clock::now());
  day.rss_mb = peak_rss_mb();
  day.dropped = reg.counter_value("exiot_federation_dropped_total");
  return day;
}

}  // namespace

RunResult run_replay_day(const Options& opts) {
  RunResult res;
  double setup_s = 0.0;
  const std::filesystem::path dir = opts.out_dir / "capture";
  auto cap = timed_setup<std::unique_ptr<Capture>>(
      kHeavySetupRepeats, [&] { return capture_day(opts.seed, dir, res); },
      &setup_s);
  res.set("setup_s", setup_s, "s", kHeavySetupRepeats,
          "population build + capture_to_files of one day");
  if (cap->hours.empty()) {
    res.fail("no capture hours");
    return res;
  }

  const auto* golden = replay_golden(opts.seed);
  std::vector<std::uint64_t> reference;
  std::vector<Day> days, traced;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds));
  auto check = [&](const Day& day) {
    const auto got = day.events.values();
    if (reference.empty()) reference = golden ? *golden : got;
    const std::uint64_t bad = count_mismatches(got, reference);
    res.attempted += reference.size();
    res.failed += bad;
    if (bad > 0) {
      res.fail(std::to_string(bad) + " replay_day event digest slot(s) "
               "differ from " + (golden ? "the golden" : "the first day"));
    }
    if (day.packets != cap->packets) res.fail("replayed packet count");
  };
  // At least two days (a traced run: one untraced and one traced), so the
  // cross-day determinism check always runs.
  const std::size_t min_days = opts.trace ? 1 : 2;
  while (days.size() < min_days || Clock::now() < deadline) {
    spans().enable(false);
    days.push_back(replay(*cap, res));
    check(days.back());
    if (opts.trace) {
      spans().enable(true);
      spans().begin_trace();
      traced.push_back(replay(*cap, res));
      check(traced.back());
      spans().enable(false);
    }
  }
  // Negative self-test: a day whose first hour delivered one extra event
  // must fail the digest check.
  {
    auto bad = days.front().events.values();
    Digest d;
    d.h = bad[0];
    d.add_pod(0);
    bad[0] = d.h;
    if (count_mismatches(bad, reference) != 1) {
      res.fail("negative self-test: a perturbed event digest was not caught");
    }
  }
  std::filesystem::remove_all(dir);
  std::printf("digests replay_day seed=%llu",
              static_cast<unsigned long long>(opts.seed));
  for (auto v : days.front().events.values()) {
    std::printf(" %s", hex64(v).c_str());
  }
  std::printf("\n");

  std::vector<double> hours, hour_pps, pps, rss, day_s;
  for (const Day& d : days) {
    std::printf("day %.3f s, %llu packets, peak %.1f MB\n", d.day_s,
                static_cast<unsigned long long>(d.packets), d.rss_mb);
    hours.insert(hours.end(), d.hour_ms.begin(), d.hour_ms.end());
    hour_pps.insert(hour_pps.end(), d.hour_pps.begin(), d.hour_pps.end());
    pps.push_back(static_cast<double>(d.packets) / d.day_s);
    rss.push_back(d.rss_mb);
    day_s.push_back(d.day_s);
  }
  const Summary hs = summarize(hours);
  const std::size_t n = days.size();
  res.set("throughput_per_s", median(hour_pps), "1/s", hour_pps.size(),
          "packets through detect per second of a replayed hour, p50");
  res.set("peak_rss_mb", median(rss), "MB", n);
  res.print_only("packets_per_s", median(hour_pps), "1/s", hour_pps.size(),
                 "per replayed hour, p50");
  res.print_only("day_packets_per_s", median(pps), "1/s", n,
                 "packets per second of the whole day");
  res.print_only("hour_p50_ms", hs.p50, "ms", hs.n);
  res.print_only("hour_tail_ms", hs.tail, "ms", hs.n,
                 percentile_label(hs.tail_q));
  res.print_only("day_s", median(day_s), "s", n);
  res.print_only("packets_per_day", static_cast<double>(cap->packets), "count",
                 n);
  res.print_only("scanners_per_day",
                 static_cast<double>(days.front().events.scanners), "count",
                 n);

  if (opts.trace) {
    std::vector<double> traced_s;
    for (const Day& d : traced) traced_s.push_back(d.day_s);
    const Day& t = traced.front();
    const std::size_t m = traced.size();
    res.set("obs.trace_overhead", median(traced_s) / median(day_s), "ratio", m,
            "traced / untraced day wall");
    res.set("trace.packets", static_cast<double>(t.packets), "count", 1);
    res.set("pipeline.federation.dropped", static_cast<double>(t.dropped),
            "count", 1);
    res.set("flow.scanners", static_cast<double>(t.events.scanners), "count",
            1);
    res.set("flow.samples", static_cast<double>(t.events.samples), "count", 1);
  }
  return res;
}

}  // namespace exiot::perfbench
