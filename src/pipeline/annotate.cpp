#include "pipeline/annotate.h"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "common/log.h"

namespace exiot::pipeline {

AnnotateStage::AnnotateStage(AnnotateStageConfig config, Annotator annotator,
                             CommitFn commit, MarkEndedFn mark_ended,
                             obs::MetricsRegistry* metrics,
                             obs::Tracer* tracer, obs::Watchdog* watchdog)
    : workers_(std::max(config.num_workers, 1)),
      capacity_(std::max<std::size_t>(config.queue_capacity, 1)),
      annotator_(std::move(annotator)),
      commit_(std::move(commit)),
      mark_ended_(std::move(mark_ended)),
      tracer_(tracer),
      watchdog_(watchdog) {
  ops_.reserve(capacity_);
  obs::MetricsRegistry& reg =
      metrics != nullptr ? *metrics : obs::scratch_registry();
  reg.gauge("exiot_annotate_workers", "Annotate-stage worker threads.")
      .set(static_cast<double>(workers_));
  inflight_g_ = &reg.gauge(
      "exiot_annotate_inflight",
      "Records submitted to the annotate stage and not yet committed.");
  records_c_ = &reg.counter("exiot_annotate_records_total",
                            "Records annotated and committed to the feed.");
  busy_c_.reserve(static_cast<std::size_t>(workers_));
  for (int w = 0; w < workers_; ++w) {
    busy_c_.push_back(&reg.counter(
        "exiot_annotate_worker_busy_micros_total",
        "Wall-clock micros each worker spent inside the annotator.",
        {{"worker", std::to_string(w)}}));
  }
}

AnnotateStage::~AnnotateStage() {
  try {
    drain();
  } catch (const std::exception& e) {
    EXIOT_LOG(LogLevel::kError, "annotate",
              std::string("pending ops dropped at teardown: ") + e.what());
  } catch (...) {
    EXIOT_LOG(LogLevel::kError, "annotate",
              "pending ops dropped at teardown: unknown exception");
  }
}

void AnnotateStage::submit(AnnotateJob job) {
  if (tracer_ != nullptr && job.trace.sampled()) {
    job.trace.handoff_micros = obs::steady_micros();
  }
  Op op;
  op.job = std::move(job);
  ops_.push_back(std::move(op));
  ++submitted_;
  inflight_g_->set(static_cast<double>(ops_.size()));
  if (ops_.size() >= capacity_) run_pass();
}

void AnnotateStage::submit_mark_ended(Ipv4 src, TimeMicros scan_end,
                                      TimeMicros at) {
  Op op;
  op.kind = Op::Kind::kMarkEnded;
  op.src = src;
  op.scan_end = scan_end;
  op.at = at;
  ops_.push_back(std::move(op));
  ++submitted_;
  inflight_g_->set(static_cast<double>(ops_.size()));
}

void AnnotateStage::drain() { run_pass(); }

void AnnotateStage::run_pass() {
  const std::size_t n = ops_.size();
  if (n == 0) return;
  std::vector<std::atomic<bool>> ready(n);
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::vector<std::jthread> pool;
  try {
    const std::size_t threads =
        std::min(static_cast<std::size_t>(workers_), n);
    pool.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w) {
      pool.emplace_back([this, w, &next, &ready] {
        annotate_ops(w, next, ready);
      });
    }
    for (std::size_t i = 0; i < n; ++i) {
      ready[i].wait(false, std::memory_order_acquire);
      Op& op = ops_[i];
      if (op.error) std::rethrow_exception(op.error);
      commit(op);
      inflight_g_->set(static_cast<double>(n - i - 1));
    }
  } catch (...) {
    error = std::current_exception();
  }
  // On failure the ops after the failed one are never committed (so never
  // logged); stop handing them out, then join whatever is still running.
  next.store(n, std::memory_order_relaxed);
  pool.clear();
  ops_.clear();
  inflight_g_->set(0.0);
  if (error) std::rethrow_exception(error);
}

void AnnotateStage::annotate_ops(std::size_t worker,
                                 std::atomic<std::size_t>& next,
                                 std::vector<std::atomic<bool>>& ready) {
  auto heartbeat =
      obs::Watchdog::attach(watchdog_, "annotate:" + std::to_string(worker));
  std::uint64_t busy_micros = 0;
  for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
       i < ops_.size(); i = next.fetch_add(1, std::memory_order_relaxed)) {
    Op& op = ops_[i];
    if (op.kind == Op::Kind::kRecord) {
      const std::uint64_t start = obs::steady_micros();
      try {
        op.result = annotator_(op.job);
        op.result.trace = op.job.trace;
      } catch (...) {
        op.error = std::current_exception();
      }
      const std::uint64_t end = obs::steady_micros();
      busy_micros += end - start;
      op.annotate_micros = start;
      op.ready_micros = end;
    }
    ready[i].store(true, std::memory_order_release);
    ready[i].notify_one();
    heartbeat.beat();
  }
  busy_c_[worker]->inc(busy_micros);
  heartbeat.retire();
}

void AnnotateStage::commit(Op& op) {
  if (op.kind == Op::Kind::kMarkEnded) {
    mark_ended_(op.src, op.scan_end, op.at);
  } else {
    AnnotateResult& result = op.result;
    const bool traced = tracer_ != nullptr && result.trace.sampled();
    const std::uint64_t commit_start = traced ? obs::steady_micros() : 0;
    commit_(result);
    records_c_->inc();
    if (traced) {
      // Both spans are recorded here, on the committing thread, so pass
      // threads never allocate trace rings. kAnnotate's queue wait runs
      // from submit to annotate start; kCommit's from ready to commit.
      const std::uint32_t src = result.record.src.value();
      const std::uint64_t handoff = result.trace.handoff_micros;
      tracer_->record(result.trace, obs::SpanStage::kAnnotate,
                      op.annotate_micros, op.ready_micros - op.annotate_micros,
                      op.annotate_micros > handoff
                          ? op.annotate_micros - handoff
                          : 0,
                      src, commit_sequence());
      tracer_->record(result.trace, obs::SpanStage::kCommit, commit_start,
                      obs::steady_micros() - commit_start,
                      commit_start > op.ready_micros
                          ? commit_start - op.ready_micros
                          : 0,
                      src);
    }
  }
  commit_seq_.fetch_add(1, std::memory_order_release);
}

}  // namespace exiot::pipeline
