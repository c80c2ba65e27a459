// Tests for the parallel annotate/classify/publish stage: the ordered
// commit of each pass (unit level, with crafted completion delays), the
// pass bound, annotator failures, shutdown with records pending, and the
// pipeline-level determinism matrix — feed export, email outbox, and API
// responses must be byte-identical for any annotate-workers x
// capture-lanes x batch-size combination.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/server.h"
#include "feed/export.h"
#include "inet/population.h"
#include "pipeline/annotate.h"
#include "pipeline/exiot.h"

namespace exiot::pipeline {
namespace {

// ------------------------------------------------------ Ordered commit ----

/// A job tagged with `index`; `sleep_ms` shapes the completion order.
AnnotateJob tagged_job(int index, int sleep_ms) {
  AnnotateJob job;
  job.summary.src = Ipv4(10, 0, static_cast<std::uint8_t>(index >> 8),
                         static_cast<std::uint8_t>(index & 0xff));
  job.sample_ready_at = sleep_ms;
  return job;
}

/// Annotator that sleeps for the job's crafted delay, then echoes the tag.
AnnotateStage::Annotator delayed_annotator() {
  return [](const AnnotateJob& job) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(job.sample_ready_at));
    AnnotateResult result;
    result.record.src = job.summary.src;
    return result;
  };
}

struct CommitLog {
  std::vector<std::string> entries;  // "R <ip>" or "E <ip>".
  AnnotateStage::CommitFn commit() {
    return [this](AnnotateResult& result) {
      entries.push_back("R " + result.record.src.to_string());
    };
  }
  AnnotateStage::MarkEndedFn mark_ended() {
    return [this](Ipv4 src, TimeMicros, TimeMicros) {
      entries.push_back("E " + src.to_string());
    };
  }
};

TEST(AnnotateStageTest, CommitsInSubmitOrderDespiteOutOfOrderCompletion) {
  CommitLog log;
  AnnotateStage stage({.num_workers = 4, .queue_capacity = 32},
                      delayed_annotator(), log.commit(), log.mark_ended());
  // The first job is the slowest: every later job is annotated before it,
  // and none of them may commit until it has.
  stage.submit(tagged_job(0, 60));
  for (int i = 1; i < 12; ++i) stage.submit(tagged_job(i, 0));
  stage.drain();
  ASSERT_EQ(log.entries.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(log.entries[static_cast<std::size_t>(i)],
              "R " + tagged_job(i, 0).summary.src.to_string());
  }
  EXPECT_EQ(stage.submitted(), 12u);
  EXPECT_EQ(stage.committed(), 12u);
}

TEST(AnnotateStageTest, CommitSequenceMirrorsCommittedOnEveryPath) {
  // The lock-free commit_sequence mirror is what keys the API response
  // cache; it must advance exactly once per commit, records and END_FLOW
  // ops alike, at any worker count.
  for (int workers : {1, 4}) {
    CommitLog log;
    AnnotateStage stage({.num_workers = workers, .queue_capacity = 16},
                        delayed_annotator(), log.commit(), log.mark_ended());
    EXPECT_EQ(stage.commit_sequence(), 0u);
    for (int i = 0; i < 10; ++i) stage.submit(tagged_job(i, 0));
    stage.submit_mark_ended(Ipv4(192, 0, 2, 9), seconds(1), seconds(2));
    EXPECT_EQ(stage.commit_sequence(), 0u) << "workers=" << workers;
    stage.drain();
    EXPECT_EQ(stage.commit_sequence(), 11u) << "workers=" << workers;
    EXPECT_EQ(stage.commit_sequence(), stage.committed());
    EXPECT_EQ(log.entries.size(), 11u);
  }
}

TEST(AnnotateStageTest, MarkEndedSequencesWithRecords) {
  CommitLog log;
  AnnotateStage stage({.num_workers = 2, .queue_capacity = 8},
                      delayed_annotator(), log.commit(), log.mark_ended());
  // END_FLOW submitted between two records must commit between them, even
  // though it needs no annotation and the first record is still annotating.
  stage.submit(tagged_job(1, 40));
  stage.submit_mark_ended(Ipv4(192, 0, 2, 9), seconds(5), seconds(6));
  stage.submit(tagged_job(2, 0));
  stage.drain();
  ASSERT_EQ(log.entries.size(), 3u);
  EXPECT_EQ(log.entries[0], "R 10.0.0.1");
  EXPECT_EQ(log.entries[1], "E 192.0.2.9");
  EXPECT_EQ(log.entries[2], "R 10.0.0.2");
}

TEST(AnnotateStageTest, ShutdownCommitsRecordsInFlight) {
  // Records still pending when the stage ends — by shutdown() or by plain
  // destruction, no drain() first — all commit, in submit order.
  for (bool destroy : {false, true}) {
    CommitLog log;
    {
      AnnotateStage stage({.num_workers = 4, .queue_capacity = 64},
                          delayed_annotator(), log.commit(),
                          log.mark_ended());
      for (int i = 0; i < 24; ++i) stage.submit(tagged_job(i, i % 3));
      EXPECT_TRUE(log.entries.empty());  // Below the pass bound.
      if (!destroy) {
        stage.shutdown();
        EXPECT_EQ(stage.committed(), 24u);
      }
    }
    ASSERT_EQ(log.entries.size(), 24u) << "destroy=" << destroy;
    for (int i = 0; i < 24; ++i) {
      EXPECT_EQ(log.entries[static_cast<std::size_t>(i)],
                "R " + tagged_job(i, 0).summary.src.to_string());
    }
  }
}

TEST(AnnotateStageTest, FullPassRunsWithoutDrain) {
  // queue_capacity bounds the pending ops: every capacity-th submit runs
  // a pass, so with capacity 4 the first 12 of 13 records are committed
  // before any drain().
  CommitLog log;
  AnnotateStage stage({.num_workers = 2, .queue_capacity = 4},
                      delayed_annotator(), log.commit(), log.mark_ended());
  for (int i = 0; i < 13; ++i) stage.submit(tagged_job(i, i % 2));
  ASSERT_EQ(log.entries.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(log.entries[static_cast<std::size_t>(i)],
              "R " + tagged_job(i, 0).summary.src.to_string());
  }
  EXPECT_EQ(stage.commit_sequence(), 12u);
  EXPECT_EQ(stage.submitted(), 13u);
  stage.drain();
  EXPECT_EQ(stage.commit_sequence(), 13u);
}

TEST(AnnotateStageTest, ThrowingAnnotatorFailsDrainAfterCommittedPrefix) {
  // An annotator exception reaches the drain() caller; the records before
  // the failed one are committed in order, the rest are dropped, and the
  // stage stays usable and destroys cleanly.
  for (int workers : {1, 4}) {
    CommitLog log;
    AnnotateStage stage(
        {.num_workers = workers, .queue_capacity = 64},
        [](const AnnotateJob& job) {
          if (job.summary.src == tagged_job(5, 0).summary.src) {
            throw std::runtime_error("annotator failed");
          }
          // Later records finish first, so they are ready when job 5 fails.
          std::this_thread::sleep_for(std::chrono::milliseconds(
              job.summary.src.value() % 256 < 5 ? 5 : 0));
          AnnotateResult result;
          result.record.src = job.summary.src;
          return result;
        },
        log.commit(), log.mark_ended());
    for (int i = 0; i < 10; ++i) stage.submit(tagged_job(i, 0));
    EXPECT_THROW(stage.drain(), std::runtime_error) << "workers=" << workers;
    ASSERT_EQ(log.entries.size(), 5u) << "workers=" << workers;
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(log.entries[static_cast<std::size_t>(i)],
                "R " + tagged_job(i, 0).summary.src.to_string());
    }
    EXPECT_EQ(stage.commit_sequence(), 5u);
    stage.submit(tagged_job(20, 0));
    stage.drain();
    EXPECT_EQ(log.entries.back(),
              "R " + tagged_job(20, 0).summary.src.to_string());
    EXPECT_EQ(stage.commit_sequence(), 6u);
  }
}

TEST(AnnotateStageTest, StageMetricsExposeProgress) {
  obs::MetricsRegistry registry;
  CommitLog log;
  AnnotateStage stage({.num_workers = 2, .queue_capacity = 8},
                      delayed_annotator(), log.commit(), log.mark_ended(),
                      &registry);
  stage.submit(tagged_job(0, 30));
  for (int i = 1; i < 6; ++i) stage.submit(tagged_job(i, 0));
  EXPECT_EQ(registry.gauge_value("exiot_annotate_inflight"), 6.0);
  stage.drain();
  EXPECT_EQ(registry.counter_value("exiot_annotate_records_total"), 6u);
  EXPECT_EQ(registry.gauge_value("exiot_annotate_inflight"), 0.0);
  EXPECT_EQ(registry.gauge_value("exiot_annotate_workers"), 2.0);
  std::uint64_t busy = 0;
  for (int w = 0; w < 2; ++w) {
    busy += registry.counter_value("exiot_annotate_worker_busy_micros_total",
                                   {{"worker", std::to_string(w)}});
  }
  EXPECT_GT(busy, 0u);
}

// ------------------------------------------------ Determinism matrix ----

struct RunOutput {
  std::string feed;
  std::string outbox;
  std::string records_api;
  std::string snapshot_api;
  PipelineStats stats;
};

/// Full pipeline run over the small deterministic population; returns
/// every externally visible artifact for byte comparison.
RunOutput run_pipeline(int annotate_workers, int lanes,
                       int batch_size = 512) {
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
  pipe_config.decode_batch_size = static_cast<std::size_t>(batch_size);
  pipe_config.annotate_queue_capacity = 8;  // Small: back-pressure on submit.
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
  return out;
}

TEST(AnnotateDeterminismTest, OutputInvariantAcrossWorkerMatrix) {
  const RunOutput baseline = run_pipeline(1, 1);
  EXPECT_GT(baseline.stats.records_published, 0u);
  EXPECT_FALSE(baseline.outbox.empty());
  // Workers x lanes x decode batch size: every externally
  // visible artifact — feed export, outbox, and API bodies — must be
  // byte-identical to the fully serial run. The batch dimension pins the
  // SoA hot path: batching is an execution detail, never a semantic one.
  for (const auto& [workers, lanes, batch] :
       {std::tuple{1, 2, 512}, std::tuple{2, 4, 512}, std::tuple{4, 8, 64},
        std::tuple{8, 2, 1024}, std::tuple{1, 1, 1}, std::tuple{2, 4, 1}}) {
    const RunOutput run = run_pipeline(workers, lanes, batch);
    EXPECT_EQ(baseline.feed, run.feed)
        << "workers=" << workers << " lanes=" << lanes
        << " batch=" << batch;
    EXPECT_EQ(baseline.outbox, run.outbox) << "workers=" << workers;
    EXPECT_EQ(baseline.records_api, run.records_api)
        << "workers=" << workers;
    EXPECT_EQ(baseline.snapshot_api, run.snapshot_api)
        << "workers=" << workers;
    EXPECT_EQ(baseline.stats.records_published, run.stats.records_published);
    EXPECT_EQ(baseline.stats.labeled_examples, run.stats.labeled_examples);
    EXPECT_EQ(baseline.stats.records_ended, run.stats.records_ended);
    EXPECT_EQ(baseline.stats.iot_records, run.stats.iot_records);
    EXPECT_EQ(baseline.stats.noniot_records, run.stats.noniot_records);
  }
}

TEST(AnnotateDeterminismTest, ParallelRunReportsStageMetrics) {
  inet::PopulationConfig config;
  config.iot_per_day = 20;
  config.generic_per_day = 10;
  config.misconfig_per_day = 0;
  config.victims_per_day = 0;
  config.benign_per_day = 0;
  config.days = 1;
  config.seed = 7;
  auto world = inet::WorldModel::standard(Cidr(Ipv4(44, 0, 0, 0), 8));
  auto population = inet::Population::generate(config, world);
  PipelineConfig pipe_config;
  pipe_config.num_annotate_workers = 4;
  ExIotPipeline pipe(population, world, pipe_config);
  pipe.run_days(0, 1);
  pipe.finish();
  EXPECT_EQ(pipe.metrics().counter_value("exiot_annotate_records_total"),
            pipe.stats().records_published);
  EXPECT_EQ(pipe.metrics().gauge_value("exiot_annotate_inflight"), 0.0);
  EXPECT_EQ(pipe.metrics().gauge_value("exiot_annotate_workers"), 4.0);
  // The latency histogram (observed at commit) still covers every record.
  const obs::Histogram* h =
      pipe.metrics().find_histogram("exiot_annotate_latency_seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), pipe.stats().records_published);
}

TEST(AnnotateDeterminismTest, MidRunDestructionShutsDownCleanly) {
  // Destroying the pipeline without finish() — an aborted deployment —
  // must stop the annotate workers without deadlock or loss of committed
  // state (the destructor drains in-flight records before teardown).
  inet::PopulationConfig config;
  config.iot_per_day = 20;
  config.generic_per_day = 10;
  config.misconfig_per_day = 0;
  config.victims_per_day = 0;
  config.benign_per_day = 0;
  config.days = 1;
  config.seed = 11;
  auto world = inet::WorldModel::standard(Cidr(Ipv4(44, 0, 0, 0), 8));
  auto population = inet::Population::generate(config, world);
  PipelineConfig pipe_config;
  pipe_config.num_annotate_workers = 4;
  pipe_config.annotate_queue_capacity = 4;
  {
    ExIotPipeline pipe(population, world, pipe_config);
    pipe.run_hours(0, 3);  // No finish(): probes still batched in flight.
  }
  SUCCEED();
}

}  // namespace
}  // namespace exiot::pipeline
