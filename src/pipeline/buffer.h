// A bounded MPMC FIFO: the API server's dispatch queue (api/tcp.cpp),
// between the epoll event loops and the worker pool. Producers never
// block: `try_push` refuses (and counts) an item when the queue is full,
// and the server answers that request 503 instead of stalling its event
// loop. Consumers park in `pop` until an item arrives or the queue is
// closed.
//
// Lifecycle: `close()` wakes every parked consumer, after which pushes
// are refused and pops drain the remaining items before returning
// nullopt. `reopen()` rearms a drained queue for the next start of the
// server.
//
// Observability: `instrument()` registers depth / high-watermark gauges,
// the rejected-push counter and the consumer blocked-time counter in a
// MetricsRegistry.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "obs/metrics.h"

namespace exiot::pipeline {

template <typename T>
class BoundedBuffer {
 public:
  explicit BoundedBuffer(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedBuffer(const BoundedBuffer&) = delete;
  BoundedBuffer& operator=(const BoundedBuffer&) = delete;

  /// Registers this buffer's gauges/counters under `labels` (e.g.
  /// {{"buffer", "api"}}). Call before concurrent use.
  void instrument(obs::MetricsRegistry& registry, const obs::Labels& labels) {
    depth_g_ = &registry.gauge("exiot_buffer_depth",
                               "Items currently queued in the buffer.",
                               labels);
    watermark_g_ = &registry.gauge("exiot_buffer_high_watermark",
                                   "Peak buffer occupancy observed.", labels);
    rejected_c_ = &registry.counter(
        "exiot_buffer_rejected_total",
        "Non-blocking push attempts refused by back-pressure.", labels);
    obs::Labels consumer = labels;
    consumer.emplace_back("side", "consumer");
    consumer_blocked_c_ = &registry.counter(
        "exiot_buffer_blocked_micros_total",
        "Wall-clock microseconds spent blocked on the buffer.", consumer);
  }

  /// Non-blocking push. Returns false (and counts the rejection) when full,
  /// or when closed.
  bool try_push(T item) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return false;
    if (items_.size() >= capacity_) {
      ++rejected_;
      if (rejected_c_ != nullptr) rejected_c_->inc();
      return false;
    }
    items_.push_back(std::move(item));
    did_push();
    return true;
  }

  /// Dequeues the oldest item, blocking while empty. Returns nullopt only
  /// once the buffer is closed and fully drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    wait_for_item(lock);
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    did_pop();
    return out;
  }

  /// End of stream: wakes every blocked consumer. Remaining items stay
  /// poppable; further pushes are refused.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  /// Rearms a closed buffer for the next producer/consumer cycle.
  void reopen() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = false;
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size() == 0; }
  /// Peak occupancy observed (capacity-planning signal).
  std::size_t high_watermark() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return high_watermark_;
  }
  /// try_push attempts refused by back-pressure.
  std::size_t rejected() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return rejected_;
  }
  /// Wall-clock time consumers spent parked on this buffer.
  std::uint64_t consumer_blocked_micros() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return consumer_blocked_;
  }

 private:
  // All three helpers run with mutex_ held.
  void wait_for_item(std::unique_lock<std::mutex>& lock) {
    if (!items_.empty() || closed_) return;
    const auto start = std::chrono::steady_clock::now();
    not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
    const std::uint64_t waited = elapsed_micros(start);
    consumer_blocked_ += waited;
    if (consumer_blocked_c_ != nullptr) consumer_blocked_c_->inc(waited);
  }

  void did_push() {
    if (items_.size() > high_watermark_) {
      high_watermark_ = items_.size();
      if (watermark_g_ != nullptr) {
        watermark_g_->set_max(static_cast<double>(high_watermark_));
      }
    }
    if (depth_g_ != nullptr) depth_g_->set(static_cast<double>(items_.size()));
    not_empty_.notify_one();
  }

  void did_pop() {
    items_.pop_front();
    if (depth_g_ != nullptr) depth_g_->set(static_cast<double>(items_.size()));
  }

  static std::uint64_t elapsed_micros(
      std::chrono::steady_clock::time_point start) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
  std::size_t high_watermark_ = 0;
  std::size_t rejected_ = 0;
  std::uint64_t consumer_blocked_ = 0;
  obs::Gauge* depth_g_ = nullptr;
  obs::Gauge* watermark_g_ = nullptr;
  obs::Counter* rejected_c_ = nullptr;
  obs::Counter* consumer_blocked_c_ = nullptr;
};

}  // namespace exiot::pipeline
