// The parallel annotate/classify/publish stage: the per-record work after
// detection — feature extraction, Random Forest scoring, tool
// fingerprinting, rDNS/geo/whois enrichment, flow statistics — runs in
// ordered passes, and the side effects
// (`feed_.publish`, `trainer_.add_example`, notifications, `mark_ended`)
// fire in the exact order the records were submitted.
//
// Determinism contract (the same one the capture lanes keep): a record's
// content depends only on its job — the model registry is frozen between
// `drain()` barriers, and every enrichment lookup is a pure read — and
// commit order equals submit order, so the feed, the email outbox,
// ObjectId assignment, and every API response are byte-identical for any
// `num_workers` x lanes combination.
//
// Mechanics: `submit` and `submit_mark_ended` only append an op to a
// vector, in submit order. `drain()` runs one pass over the pending ops,
// and so does `submit` once `queue_capacity` ops are pending (the memory
// bound). In a pass, `num_workers` short-lived threads claim op indices
// from one atomic counter, annotate them, and raise each op's ready flag;
// meanwhile the calling thread commits op i as soon as its flag is up,
// strictly in index order. Commit order is submit order by construction,
// and commits overlap annotation. One worker runs the same pass on one
// thread.
//
// The driver must call `drain()` before any step that mutates state the
// workers read (model retraining reallocates the deployed-model registry)
// or that reads state the commits write (feed expiry, stats snapshots).
// Between barriers, commits run on the thread that calls `submit` or
// `drain`.
//
// The ordered commit stream doubles as the pipeline's write-ahead log:
// the commit callbacks run in exact submit order, so the durability layer
// (pipeline/durability.h) appends each commit to disk inside the callback,
// before its side effects — a total order that holds for any workers x
// lanes combination, which is what makes crash recovery byte-identical to
// an uninterrupted run.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "feed/manager.h"
#include "flow/detector.h"
#include "ml/features.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/watchdog.h"
#include "pipeline/organizer.h"
#include "pipeline/scan_module.h"

namespace exiot::pipeline {

/// A completed pending record: probe outcome and organized sample both
/// available, ready for the expensive annotation pass.
struct AnnotateJob {
  flow::FlowSummary summary;
  ProbeOutcome probe;
  ScannerBundle bundle;
  TimeMicros sample_ready_at = 0;
  bool ended = false;  // END_FLOW arrived before publication.
  TimeMicros end_ts = 0;
  /// Per-sensor attribution, copied out of the federation ledger on the
  /// driver thread at submit time so workers never touch shared state.
  /// Empty in the single-telescope configuration.
  std::vector<feed::SensorSighting> sightings;
  /// Record trace (sampled at detection); content-neutral metadata only.
  obs::TraceContext trace;
};

/// Everything the commit step needs, produced worker-side.
struct AnnotateResult {
  feed::CtiRecord record;
  ml::FeatureVector features;
  int training_label = -1;       // 1 / 0 feed the trainer; -1 = none.
  TimeMicros annotate_start = 0;  // max(probe done, sample ready).
  TimeMicros published = 0;
  bool ended = false;
  TimeMicros end_ts = 0;
  /// Propagated from the job by the stage (the annotator need not copy
  /// it); lets the commit callback hand the context to feed publish.
  obs::TraceContext trace;
  /// The WAL publish payload, encoded by the annotator when durability is
  /// on: encoding is pure, so it runs on a pass thread and the ordered
  /// commit only appends it.
  std::string wal_payload;
};

struct AnnotateStageConfig {
  /// Threads annotating during a pass (values < 1 run one).
  int num_workers = 1;
  /// Pending ops that make `submit` run a pass: the stage holds at most
  /// this many between passes.
  std::size_t queue_capacity = 256;
};

class AnnotateStage {
 public:
  /// Pure per-record computation; runs on pass threads, so it must only
  /// read state that is frozen between drain() barriers.
  using Annotator = std::function<AnnotateResult(const AnnotateJob&)>;
  /// Side-effecting publication; runs on the thread that called submit()
  /// or drain(), strictly in submit order, never concurrently with itself.
  using CommitFn = std::function<void(AnnotateResult&)>;
  /// Applies an END_FLOW for an already-published record; same thread,
  /// same ordering guarantee. Args: (src, scan_end, processed_at).
  using MarkEndedFn = std::function<void(Ipv4, TimeMicros, TimeMicros)>;

  AnnotateStage(AnnotateStageConfig config, Annotator annotator,
                CommitFn commit, MarkEndedFn mark_ended,
                obs::MetricsRegistry* metrics = nullptr,
                obs::Tracer* tracer = nullptr,
                obs::Watchdog* watchdog = nullptr);
  /// Commits every pending op (drain()); a failure there is logged, since
  /// a destructor cannot rethrow it.
  ~AnnotateStage();

  AnnotateStage(const AnnotateStage&) = delete;
  AnnotateStage& operator=(const AnnotateStage&) = delete;

  /// Queues a record for annotation; runs a pass when `queue_capacity`
  /// ops are pending.
  void submit(AnnotateJob job);

  /// Sequences an END_FLOW for a record that already left the pipeline:
  /// it commits after every earlier submission and before every later one.
  void submit_mark_ended(Ipv4 src, TimeMicros scan_end, TimeMicros at);

  /// Annotates and commits every pending op. The barrier the pipeline
  /// needs before retraining / feed expiry / reading the feed. If the annotator
  /// or a commit callback throws, the ops before the failed one are
  /// committed, the rest are dropped, and the exception is rethrown here.
  void drain();

  /// Same as drain(); kept for callers that end the stage explicitly.
  void shutdown() { drain(); }

  int num_workers() const { return workers_; }
  /// Ops submitted so far (calling thread only).
  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t committed() const { return commit_sequence(); }
  /// The sequence number of the last op whose side effects are visible in
  /// the feed. Advances exactly when a commit lands, so it is the validity
  /// key for API response caching — readable from any thread.
  std::uint64_t commit_sequence() const {
    return commit_seq_.load(std::memory_order_acquire);
  }

 private:
  struct Op {
    enum class Kind { kRecord, kMarkEnded };
    Kind kind = Kind::kRecord;
    AnnotateJob job;         // kRecord input.
    AnnotateResult result;   // kRecord output, once ready.
    std::exception_ptr error;  // The annotator threw instead.
    Ipv4 src;                // kMarkEnded.
    TimeMicros scan_end = 0;
    TimeMicros at = 0;
    /// steady_micros() around the annotator call, for traced records.
    std::uint64_t annotate_micros = 0;
    std::uint64_t ready_micros = 0;
  };

  /// Annotates and commits ops_ (see the file comment), then clears it.
  void run_pass();
  /// Pass thread body: claims op indices from `next` until none are left.
  void annotate_ops(std::size_t worker, std::atomic<std::size_t>& next,
                    std::vector<std::atomic<bool>>& ready);
  /// Runs one op's commit callback, then advances commit_seq_.
  void commit(Op& op);

  int workers_ = 1;
  std::size_t capacity_ = 1;  // Pending ops that trigger a pass.
  Annotator annotator_;
  CommitFn commit_;
  MarkEndedFn mark_ended_;
  obs::Tracer* tracer_ = nullptr;
  obs::Watchdog* watchdog_ = nullptr;

  std::vector<Op> ops_;  // Pending, in submit order.
  std::uint64_t submitted_ = 0;
  std::atomic<std::uint64_t> commit_seq_{0};

  obs::Gauge* inflight_g_ = nullptr;
  obs::Counter* records_c_ = nullptr;
  std::vector<obs::Counter*> busy_c_;  // Per-worker busy micros.
};

}  // namespace exiot::pipeline
