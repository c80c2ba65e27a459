// Stall watchdog for the threaded pipeline: every worker thread registers
// a named heartbeat slot and beats it each loop iteration; a monitor
// thread (and on-demand `health()` evaluation) flags workers whose last
// beat is older than the deadline, raises `exiot_watchdog_stalled_workers`,
// and degrades /v1/health from ok -> degraded -> stalled.
//
// A thread legitimately blocked on an empty queue is *idle*, not stalled:
// workers mark idle() before a blocking pop / push and busy() after, and
// idle workers are exempt from deadline checks. Capture-lane threads
// respawn every simulated window, so registration reuses slots by name —
// "lane:0" is the same logical worker across hours.
//
// Health is computed on demand from beat ages, not from the monitor tick,
// so /v1/health crosses into `stalled` within one deadline of the hang no
// matter how coarse the poll interval is. The monitor thread only keeps
// gauges fresh and emits flight-recorder events on transitions.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "json/json.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace exiot::obs {

enum class Health : std::uint8_t {
  kOk = 0,
  kDegraded = 1,  // Some busy worker is past warn_ratio x deadline.
  kStalled = 2,   // Some busy worker is past the full deadline.
};

const char* health_name(Health health);

struct WatchdogConfig {
  /// A busy worker silent for longer than this is stalled. <= 0 disables
  /// the watchdog entirely.
  std::chrono::milliseconds deadline{0};
  /// Fraction of the deadline after which a silent worker is `degraded`.
  double warn_ratio = 0.5;
  /// Monitor thread tick (gauge refresh + transition events). Defaults to
  /// deadline / 4, clamped to [1ms, 250ms].
  std::chrono::milliseconds poll{0};
};

class Watchdog {
 public:
  /// One registered worker thread's heartbeat slot. All fields are atomics:
  /// the owning thread writes, the monitor and health() read.
  class Worker {
   public:
    explicit Worker(std::string name) : name_(std::move(name)) {}

    /// "I made progress": refreshes the beat stamp, bumps the epoch.
    void beat();
    /// About to block on a queue — exempt from deadline checks.
    void idle();
    /// Back from the blocking call, processing again.
    void busy();
    /// Thread is exiting; the slot stays for reuse by name.
    void retire();

    const std::string& name() const { return name_; }
    std::uint64_t epoch() const {
      return epoch_.load(std::memory_order_relaxed);
    }

   private:
    friend class Watchdog;
    const std::string name_;
    std::atomic<std::uint64_t> beat_micros_{0};
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<bool> idle_{false};
    std::atomic<bool> active_{false};
    std::atomic<bool> stalled_{false};  // Monitor-owned transition latch.
  };

  Watchdog(WatchdogConfig config, MetricsRegistry* metrics = nullptr,
           FlightRecorder* flight = nullptr);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  bool enabled() const { return config_.deadline.count() > 0; }
  std::chrono::milliseconds deadline() const { return config_.deadline; }

  /// Registers (or revives, when the name was seen before) a heartbeat
  /// slot. The returned pointer stays valid for the watchdog's lifetime.
  Worker* register_worker(const std::string& name);

  /// Null-tolerant registration for call sites holding `Watchdog*` that
  /// may be null (tracing/watchdog disabled): returns a no-op handle.
  class Handle {
   public:
    Handle() = default;
    explicit Handle(Worker* worker) : worker_(worker) {}
    void beat() { if (worker_ != nullptr) worker_->beat(); }
    void idle() { if (worker_ != nullptr) worker_->idle(); }
    void busy() { if (worker_ != nullptr) worker_->busy(); }
    void retire() { if (worker_ != nullptr) worker_->retire(); }

   private:
    Worker* worker_ = nullptr;
  };
  static Handle attach(Watchdog* dog, const std::string& name) {
    return dog != nullptr && dog->enabled()
               ? Handle(dog->register_worker(name))
               : Handle();
  }

  /// Starts the monitor thread (no-op when disabled). Safe to call once.
  void start();
  /// Stops the monitor thread. Called by the destructor.
  void stop();

  /// Worst health across active, non-idle workers, evaluated *now*.
  Health health() const;
  /// Count of busy workers currently past the deadline.
  std::size_t stalled_workers() const;

  /// {"health": "ok", "deadline_ms": N, "workers": [{name, active, idle,
  /// epoch, age_micros, stalled}]} for /v1/health detail and tests.
  json::Value to_json() const;

 private:
  void monitor_loop();
  /// Per-worker beat age in micros; ~0 when exempt (inactive or idle).
  static std::uint64_t busy_age_micros(const Worker& worker,
                                       std::uint64_t now);

  WatchdogConfig config_;
  FlightRecorder* flight_;
  Gauge* workers_g_;
  Gauge* stalled_g_;
  Gauge* health_g_;
  Counter* stall_events_c_;

  mutable std::mutex mutex_;  // Guards workers_ registration/iteration.
  std::vector<std::unique_ptr<Worker>> workers_;

  std::thread monitor_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  bool started_ = false;
};

}  // namespace exiot::obs
