// live_day: ExIotPipeline::run_hours over one virtual day, every thread
// knob at 4, one site, WAL on in a fresh data directory — the deployment
// path end to end, synthesis included.
//
// Untraced runs time each run_hours(h, h + 1) call and finish(). The traced
// run also times the capture -> detect chain on its own (producer ->
// federation -> ingest, built from the same knobs) so the time run_hours
// spends outside that chain can be derived (pipeline.rest_s).
#include <memory>
#include <optional>
#include <sstream>

#include "bench.h"
#include "events.h"
#include "feed/export.h"
#include "goldens.h"
#include "probe/prober.h"

namespace exiot::perfbench {
namespace {

struct Day {
  std::vector<double> hour_ms;
  std::vector<double> hour_pps;  // Packets through detect per hour second.
  double day_s = 0.0;  // Construction, the hours and finish().
  double construct_s = 0.0;
  double finish_s = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t records = 0;
  double rss_mb = 0.0;
  std::vector<std::uint64_t> digests;
  // Registry reads (per-layer counts of the traced run).
  double annotate_busy_s = 0.0;
  double wal_fsync_s = 0.0;
  std::uint64_t annotate_records = 0;
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t scanners = 0;
  std::uint64_t samples = 0;
};

/// Per-hour digests of the committed feed through feed::export_jsonl
/// (records bucketed by the capture hour that detected them), plus one
/// slot for the outbox.
std::vector<std::uint64_t> feed_digests(
    const feed::FeedManager& feed,
    const std::vector<feed::EmailMessage>& outbox) {
  std::vector<Digest> slots(kDayHours + 1);
  std::ostringstream out;
  feed::export_jsonl(feed, out);
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    auto doc = json::parse(line);
    std::int64_t hour = doc.ok() ? doc.value().get_int("detect_time", -1) /
                                       kMicrosPerHour
                                 : -1;
    if (hour < 0 || hour >= kDayHours) hour = kDayHours - 1;
    slots[static_cast<std::size_t>(hour)].add(line);
    slots[static_cast<std::size_t>(hour)].add("\n");
  }
  Digest& mail = slots[kDayHours];
  for (const feed::EmailMessage& m : outbox) {
    mail.add(m.to);
    mail.add(m.subject);
    mail.add(m.body);
    mail.add_pod(m.sent_at);
  }
  std::vector<std::uint64_t> values;
  for (const Digest& d : slots) values.push_back(d.h);
  return values;
}

Day run_day(const Sim& sim, const std::filesystem::path& data_dir,
            bool perturb_check, RunResult& res) {
  Day day;
  std::filesystem::remove_all(data_dir);
  std::filesystem::create_directories(data_dir);
  reset_peak_rss();
  std::unique_ptr<pipeline::ExIotPipeline> pipe;
  {
    Span iteration("bench.iteration");
    // A day starts from a fresh pipeline over an empty data directory;
    // constructing it is part of the day.
    const auto c0 = Clock::now();
    {
      Span span("pipeline.construct");
      pipe = std::make_unique<pipeline::ExIotPipeline>(
          sim.population, sim.world, live_pipeline_config(data_dir));
    }
    day.construct_s = seconds_between(c0, Clock::now());
    day.day_s += day.construct_s;
    std::uint64_t packets_before = 0;
    for (int h = 0; h < kDayHours; ++h) {
      const auto t0 = Clock::now();
      {
        Span span("pipeline.run_hours");
        pipe->run_hours(h, h + 1);
      }
      const double s = seconds_between(t0, Clock::now());
      const std::uint64_t packets = pipe->stats().packets_processed;
      day.hour_ms.push_back(s * 1e3);
      day.hour_pps.push_back(static_cast<double>(packets - packets_before) /
                             s);
      packets_before = packets;
      day.day_s += s;
    }
    const auto f0 = Clock::now();
    {
      Span span("pipeline.finish");
      pipe->finish();
    }
    day.finish_s = seconds_between(f0, Clock::now());
    day.day_s += day.finish_s;
  }
  day.rss_mb = peak_rss_mb();
  if (!pipe->recovery_error().empty() || pipe->durability() == nullptr) {
    res.fail("WAL not enabled: " + pipe->recovery_error());
  }

  const pipeline::PipelineStats stats = pipe->stats();
  day.packets = stats.packets_processed;
  day.records = stats.records_published;
  day.scanners = stats.scanners_detected;
  const obs::MetricsRegistry& reg = pipe->metrics();
  day.samples = reg.counter_value("exiot_detector_samples_completed_total");
  const int workers = live_pipeline_config("").num_annotate_workers;
  for (int w = 0; w < workers; ++w) {
    day.annotate_busy_s +=
        static_cast<double>(
            reg.counter_value("exiot_annotate_worker_busy_micros_total",
                              {{"worker", std::to_string(w)}})) /
        1e6;
  }
  day.wal_fsync_s =
      static_cast<double>(reg.counter_value("exiot_wal_fsync_micros_total")) /
      1e6;
  day.annotate_records = reg.counter_value("exiot_annotate_records_total");
  day.wal_appends = reg.counter_value("exiot_wal_appends_total");
  day.wal_bytes = reg.counter_value("exiot_wal_bytes_written_total");
  day.digests = feed_digests(pipe->feed(), pipe->outbox());
  if (perturb_check) {
    // Negative self-test: republish the first record with its label
    // flipped; the perturbed feed must fail the digest check.
    feed::FeedManager& feed = pipe->feed();
    std::optional<feed::CtiRecord> first;
    feed.latest_store().for_each(
        [&](const store::ObjectId&, const json::Value& doc) {
          if (!first) first = feed::CtiRecord::from_json(doc);
        });
    if (first) {
      first->label = first->label == feed::kLabelIot ? feed::kLabelBenign
                                                     : feed::kLabelIot;
      feed.publish(*first, first->published_at);
    }
    if (!first || count_mismatches(feed_digests(feed, pipe->outbox()),
                                   day.digests) == 0) {
      res.fail("negative self-test: a perturbed feed passed the check");
    }
  }
  pipe.reset();
  std::filesystem::remove_all(data_dir);
  return day;
}

struct Chain {
  double day_s = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t dropped = 0;
  EventLog events;
};

/// The capture -> detect chain of run_hours, driven directly through the
/// layers' public functions with a span around each call.
Chain run_chain(const Sim& sim) {
  Chain chain;
  const pipeline::PipelineConfig pc = live_pipeline_config("");
  obs::MetricsRegistry reg;
  pipeline::ParallelProducer producer(
      sim.population, pc.telescope,
      pipeline::ProducerConfig{pc.num_producer_threads,
                               pc.producer_batch_size, minutes(1),
                               pc.producer_queue_capacity},
      &reg);
  pipeline::FederationStage federation(
      pipeline::FederationConfig{pc.telescope, pc.num_sites, pc.active_sites,
                                 pc.site_specs},
      &reg);
  pipeline::ThreadedIngest ingest(
      pipeline::IngestConfig{pc.num_detector_shards, pc.buffer_capacity,
                             pc.ingest_batch_size},
      pc.detector, chain.events.sink(), probe::table1_ports(), &reg);
  const auto t0 = Clock::now();
  Span root("bench.chain");
  for (int h = 0; h < kDayHours; ++h) {
    const TimeMicros start = h * kMicrosPerHour;
    const TimeMicros end = start + kMicrosPerHour;
    chain.events.current = static_cast<std::size_t>(h);
    Span hour("bench.chain_hour");
    Span ingest_span("pipeline.ingest.run_hour_batched");
    ingest.run_hour_batched(
        [&](const pipeline::ThreadedIngest::BatchFn& fn) {
          Span fed_span("pipeline.federation.run_window");
          return federation.run_window(
              [&](const pipeline::FederationStage::BatchFn& inner) {
                Span synth("telescope.emit_batches");
                return producer.emit_batches(
                    start, end, pc.decode_batch_size,
                    [&](const net::PacketBatch& batch) {
                      chain.packets += batch.size();
                      Span demux("pipeline.federation.demux");
                      inner(batch);
                    });
              },
              [&](const net::PacketBatch& batch) {
                Span consume("pipeline.ingest.consume");
                fn(batch);
              });
        },
        end);
  }
  chain.events.current = kDayHours;
  {
    Span fin("pipeline.ingest.finish");
    ingest.finish();
  }
  chain.day_s = seconds_between(t0, Clock::now());
  chain.dropped = reg.counter_value("exiot_federation_dropped_total");
  return chain;
}

}  // namespace

RunResult run_live_day(const Options& opts) {
  RunResult res;
  double setup_s = 0.0;
  auto sim = timed_setup<std::unique_ptr<Sim>>(
      kSetupRepeats,
      [&] { return std::make_unique<Sim>(make_sim(opts.seed)); }, &setup_s);
  res.set("setup_s", setup_s, "s", kSetupRepeats, "population build");

  const std::filesystem::path data_dir = opts.out_dir / "live-wal";
  const auto* golden = live_golden(opts.seed);
  std::vector<Day> days;         // Untraced days (end-to-end metrics).
  std::vector<Day> traced_days;  // Traced days (per-layer metrics).
  std::vector<Chain> chains;
  std::vector<double> chain_untraced_s;
  std::vector<std::uint64_t> reference;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds));
  auto check = [&](const Day& day) {
    if (reference.empty()) reference = golden ? *golden : day.digests;
    const std::uint64_t bad = count_mismatches(day.digests, reference);
    res.attempted += reference.size();
    res.failed += bad;
    if (bad > 0) {
      res.fail(std::to_string(bad) + " live_day digest slot(s) differ from " +
               (golden ? "the golden" : "the run's first day"));
    }
  };
  // At least two days (a traced run: one untraced and one traced), so the
  // cross-day determinism check always runs.
  const std::size_t min_days = opts.trace ? 1 : 2;
  while (days.size() < min_days || Clock::now() < deadline) {
    spans().enable(false);
    days.push_back(run_day(*sim, data_dir, days.empty(), res));
    check(days.back());
    if (opts.trace) {
      spans().enable(true);
      spans().begin_trace();
      traced_days.push_back(run_day(*sim, data_dir, false, res));
      check(traced_days.back());
      spans().begin_trace();
      chains.push_back(run_chain(*sim));
      spans().enable(false);
      chain_untraced_s.push_back(run_chain(*sim).day_s);
    }
  }
  std::printf("digests live_day seed=%llu", static_cast<unsigned long long>(
                                                opts.seed));
  for (auto v : days.front().digests) std::printf(" %s", hex64(v).c_str());
  std::printf("\n");

  std::vector<double> hours, hour_pps, pps, rps, rss, day_s;
  for (const Day& d : days) {
    std::printf("day %.3f s, %llu packets, peak %.1f MB\n", d.day_s,
                static_cast<unsigned long long>(d.packets), d.rss_mb);
    hours.insert(hours.end(), d.hour_ms.begin(), d.hour_ms.end());
    hour_pps.insert(hour_pps.end(), d.hour_pps.begin(), d.hour_pps.end());
    pps.push_back(static_cast<double>(d.packets) / d.day_s);
    rps.push_back(static_cast<double>(d.records) / d.day_s);
    rss.push_back(d.rss_mb);
    day_s.push_back(d.day_s);
  }
  const Summary hs = summarize(hours);
  const std::size_t n = days.size();
  res.set("throughput_per_s", median(hour_pps), "1/s", hour_pps.size(),
          "packets through detect per second of a capture hour, p50");
  res.set("peak_rss_mb", median(rss), "MB", n);
  res.print_only("packets_per_s", median(hour_pps), "1/s", hour_pps.size(),
                 "per capture hour, p50");
  res.print_only("day_packets_per_s", median(pps), "1/s", n,
                 "packets per second of the whole day");
  res.print_only("records_per_s", median(rps), "1/s", n);
  res.print_only("hour_p50_ms", hs.p50, "ms", hs.n);
  res.print_only("hour_tail_ms", hs.tail, "ms", hs.n,
                 percentile_label(hs.tail_q));
  res.print_only("day_s", median(day_s), "s", n,
                 "construct + 24 x run_hours + finish");
  std::vector<double> construct;
  for (const Day& d : days) construct.push_back(d.construct_s);
  res.print_only("construct_s", median(construct), "s", n);
  res.print_only("packets_per_day", static_cast<double>(days[0].packets),
                 "count", n);
  res.print_only("records_per_day", static_cast<double>(days[0].records),
                 "count", n);

  if (opts.trace) {
    std::vector<double> traced_s, chain_s, busy, fsync;
    for (const Day& d : traced_days) {
      traced_s.push_back(d.day_s);
      busy.push_back(d.annotate_busy_s);
      fsync.push_back(d.wal_fsync_s);
    }
    for (const Chain& c : chains) {
      chain_s.push_back(c.day_s);
      if (c.events.values() != chains.front().events.values()) {
        res.fail("live chain detector events differ between days");
      }
    }
    const Day& t = traced_days.front();
    const Chain& c = chains.front();
    const std::size_t m = traced_days.size();
    res.set("obs.trace_overhead", median(traced_s) / median(day_s), "ratio", m,
            "traced / untraced day wall");
    res.print_only("obs.trace_overhead.chain",
                   median(chain_s) / median(chain_untraced_s), "ratio", m,
                   "capture -> detect chain with per-batch spans");
    res.set("pipeline.annotate.busy_s", median(busy), "s", m,
            "exiot_annotate_worker_busy_micros_total, summed over workers");
    res.set("store.wal_fsync_s", median(fsync), "s", m,
            "exiot_wal_fsync_micros_total");
    res.set("telescope.packets", static_cast<double>(c.packets), "count", 1);
    res.set("pipeline.federation.dropped", static_cast<double>(c.dropped),
            "count", 1);
    res.set("flow.scanners", static_cast<double>(t.scanners), "count", 1);
    res.set("flow.samples", static_cast<double>(t.samples), "count", 1);
    res.set("pipeline.annotate.records",
            static_cast<double>(t.annotate_records), "count", 1);
    res.set("store.wal_appends", static_cast<double>(t.wal_appends), "count",
            1);
    res.set("store.wal_bytes", static_cast<double>(t.wal_bytes), "count", 1);
    if (c.packets != t.packets) {
      res.fail("chain packet count differs from run_hours");
    }
  }
  return res;
}

}  // namespace exiot::perfbench
