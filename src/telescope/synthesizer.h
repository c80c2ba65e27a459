// The telescope traffic synthesizer: merges every simulated host's probe /
// backscatter / misconfiguration stream into one time-ordered packet stream
// as observed by the /8 darknet aperture. This is the substitute for the
// CAIDA capture: downstream modules consume exactly what they would consume
// from the real telescope (decoded packets in arrival order).
//
// The batched merge core (`enter_window` + `merge_window`) is shared with
// the source-partitioned producer (pipeline/producer.h): it emits the
// packets of one time window from an arbitrary subset of streams in
// (ts, host_index) order, keeps a compacted live-stream list so exhausted
// hosts are never rescanned, and synthesizes each packet straight into a
// reused batch row — the per-packet overheads this stage must not pay at
// ~1M pps.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "common/types.h"
#include "inet/population.h"
#include "net/batch.h"
#include "net/packet.h"
#include "telescope/merge.h"

namespace exiot::telescope {

/// Streams the packets of one host (all sessions, in order).
class HostStream {
 public:
  HostStream(const inet::Population& pop, const inet::Host& host,
             Cidr aperture);

  /// Fills `out` with the next packet in place (every field is reset, so
  /// the slot can be shared across streams) and returns false when the
  /// host is done.
  bool next_into(net::Packet& out);

  /// Timestamp of the packet `next_into()` would fill (kNever when done).
  TimeMicros peek_ts() const { return next_ts_; }

  /// True once every session has been exhausted.
  bool done() const { return next_ts_ == kNever; }

  static constexpr TimeMicros kNever =
      std::numeric_limits<TimeMicros>::max();

 private:
  void advance();
  void fill_packet(TimeMicros ts, net::Packet& out);
  TimeMicros draw_iat();

  const inet::Population& pop_;
  const inet::Host& host_;
  Cidr aperture_;
  Rng rng_;
  std::optional<inet::PacketSynthesizer> synth_;
  std::size_t session_idx_ = 0;
  TimeMicros next_ts_ = kNever;
  double iat_regularity_ = 0.0;
  // Backscatter victims reply from a fixed attacked service port with a
  // fixed reply style chosen per victim.
  std::uint16_t victim_service_port_ = 80;
  std::uint8_t victim_reply_flags_ = 0;
  // Misconfigured hosts hammer one fixed telescope destination.
  Ipv4 misconfig_dst_;
  std::uint16_t misconfig_port_ = 0;
};

/// One stream taking part in a window merge, with its global host index
/// (the (ts, host) tie-break).
struct MergeSlot {
  HostStream* stream;
  std::uint32_t host;
};

/// Window entry: advances every stream in `live` to t0, drops exhausted
/// streams from `live` (compacting in place; their count accumulates into
/// `pruned`, so later windows stop rescanning hosts that finished days
/// ago) and appends a slot to `slots` for each stream with a packet in
/// [t0, t1). `hosts[local]` maps a stream slot to its global host index
/// (nullptr: the slot index is the host index). Slots from several stream
/// sets may be gathered into one merge, as long as their host indices are
/// distinct.
void enter_window(std::vector<HostStream>& streams,
                  const std::uint32_t* hosts,
                  std::vector<std::uint32_t>& live, TimeMicros t0,
                  TimeMicros t1, std::size_t& pruned,
                  std::vector<MergeSlot>& slots);

/// Scalar window merge: emits every packet with ts in [t0, t1) from the
/// streams listed in `live` in (ts, host_index) order — the canonical
/// arrival order every lane count must reproduce — as `fn(pkt,
/// host_index)`, with a binary heap. Window entry as enter_window().
/// Returns the number of packets emitted. The reference merge the batched
/// path (merge_window) is tested against.
template <typename Fn>
std::size_t emit_window(std::vector<HostStream>& streams,
                        const std::uint32_t* hosts,
                        std::vector<std::uint32_t>& live, TimeMicros t0,
                        TimeMicros t1, std::size_t& pruned, Fn&& fn) {
  struct Entry {
    TimeMicros ts;
    MergeSlot slot;
    bool operator>(const Entry& other) const {
      if (ts != other.ts) return ts > other.ts;
      return slot.host > other.slot.host;
    }
  };
  std::vector<MergeSlot> slots;
  enter_window(streams, hosts, live, t0, t1, pruned, slots);
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (const MergeSlot& slot : slots) {
    heap.push(Entry{slot.stream->peek_ts(), slot});
  }

  net::Packet scratch;
  std::size_t count = 0;
  while (!heap.empty()) {
    const Entry top = heap.top();
    heap.pop();
    HostStream& stream = *top.slot.stream;
    const std::uint32_t host = top.slot.host;
    // Inner loop: keep emitting from this stream while its next packet
    // still precedes the heap head — bursty sessions re-emit directly
    // instead of paying a heap pop+push per packet. The (ts, host) order
    // is exactly what the pop would have produced.
    while (true) {
      if (!stream.next_into(scratch)) break;
      if (scratch.ts >= t1) break;
      fn(static_cast<const net::Packet&>(scratch), host);
      ++count;
      const TimeMicros peek = stream.peek_ts();
      if (peek >= t1) break;
      if (heap.empty()) continue;
      const Entry& head = heap.top();
      if (peek < head.ts || (peek == head.ts && host < head.slot.host)) {
        continue;
      }
      heap.push(Entry{peek, top.slot});
      break;
    }
  }
  return count;
}

/// Batched window merge over the slots enter_window() gathered: the same
/// emission order and stream state transitions as emit_window, but each
/// packet is synthesized directly into a reused PacketBatch row and
/// `fn(const net::PacketBatch&)` (void return) is invoked once per
/// `batch_size` packets — and once at window end for the remainder. The
/// callback borrows the batch only for the call. When `row_hosts` is
/// non-null it is kept aligned with the batch: `(*row_hosts)[i]` is the
/// host index of row i.
///
/// Unlike the scalar merge's binary heap, the batched path selects with a
/// tournament (loser) tree — telescope/merge.h: one leaf-to-root replay
/// per packet (a single comparison per level) instead of a heap pop+push
/// sifting 16-byte entries. Both structures yield the strict (ts, host)
/// minimum each step, so the emitted sequence is byte-identical to
/// emit_window's.
template <typename BatchFn>
std::size_t merge_window(const std::vector<MergeSlot>& slots, TimeMicros t1,
                         std::size_t batch_size, net::PacketBatch& batch,
                         std::vector<std::uint32_t>* row_hosts,
                         BatchFn&& fn) {
  WinnerTree tree;
  tree.assign(slots.size());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    tree.set_slot(s, slots[s].stream->peek_ts(), slots[s].host);
  }
  tree.rebuild();

  auto flush = [&] {
    fn(static_cast<const net::PacketBatch&>(batch));
    batch.clear();
    if (row_hosts != nullptr) row_hosts->clear();
  };
  batch.clear();
  if (row_hosts != nullptr) row_hosts->clear();
  std::size_t count = 0;
  while (!tree.exhausted()) {
    const std::uint32_t slot = tree.top();
    HostStream& stream = *slots[slot].stream;
    net::Packet& row = batch.append_slot();
    // An open slot's peek_ts is < t1, so the stream has a packet and its
    // timestamp is inside the window (next_into fills at peek_ts).
    if (!stream.next_into(row)) {
      batch.abandon_back();
      tree.close(slot);
      continue;
    }
    batch.commit_back();
    if (row_hosts != nullptr) row_hosts->push_back(slots[slot].host);
    ++count;
    if (batch.size() >= batch_size) flush();
    const TimeMicros peek = stream.peek_ts();
    tree.update(slot, peek < t1 ? peek : WinnerTree::kDone);
    if (!tree.exhausted()) {
      // The next winner is already decided; start pulling its stream's
      // hot lines while this iteration retires (stream state is visited
      // in timestamp order — effectively at random).
      const char* next =
          reinterpret_cast<const char*>(slots[tree.top()].stream);
      __builtin_prefetch(next);
      __builtin_prefetch(next + 64);
      __builtin_prefetch(next + 128);
      __builtin_prefetch(next + 192);
    }
  }
  if (!batch.empty()) flush();
  return count;
}

/// Merges all host streams into arrival order (single-threaded). The
/// source-partitioned equivalent is pipeline::ParallelProducer, which
/// emits the byte-identical stream from K partitions.
class TrafficSynthesizer {
 public:
  TrafficSynthesizer(const inet::Population& pop, Cidr aperture);

  /// Emits every packet with ts in [t0, t1) in non-decreasing order as
  /// `fn(const net::Packet&)`. Returns the number of packets emitted. The
  /// scalar reference for emit_batches (tests compare the two).
  template <typename Fn>
  std::size_t emit(TimeMicros t0, TimeMicros t1, Fn&& fn) {
    // Work the live list saves: exhausted streams not rescanned this
    // window.
    dead_scans_avoided_ += streams_.size() - live_.size();
    return emit_window(streams_, nullptr, live_, t0, t1, pruned_,
                       [&fn](const net::Packet& pkt, std::uint32_t) {
                         fn(pkt);
                       });
  }

  /// Batched emit: same packets in the same order, synthesized directly
  /// into SoA batch rows and delivered `batch_size` at a time as
  /// `fn(const net::PacketBatch&)`.
  template <typename BatchFn>
  std::size_t emit_batches(TimeMicros t0, TimeMicros t1,
                           std::size_t batch_size, BatchFn&& fn) {
    dead_scans_avoided_ += streams_.size() - live_.size();
    slots_.clear();
    enter_window(streams_, nullptr, live_, t0, t1, pruned_, slots_);
    batch_.reserve(batch_size);
    return merge_window(slots_, t1, batch_size, batch_, nullptr,
                        std::forward<BatchFn>(fn));
  }

  /// Streams still able to produce packets (before the next window scan).
  std::size_t live_streams() const { return live_.size(); }
  /// Exhausted streams removed from the live list so far.
  std::uint64_t streams_pruned() const { return pruned_; }
  /// Window-entry scans of dead streams skipped thanks to the live list.
  std::uint64_t dead_stream_scans_avoided() const {
    return dead_scans_avoided_;
  }

 private:
  std::vector<HostStream> streams_;
  std::vector<std::uint32_t> live_;
  // emit_batches scratch, reused across windows.
  std::vector<MergeSlot> slots_;
  net::PacketBatch batch_;
  std::size_t pruned_ = 0;
  std::uint64_t dead_scans_avoided_ = 0;
};

}  // namespace exiot::telescope
