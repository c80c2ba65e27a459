// Shared vocabulary of the capture lanes (pipeline/ingest.h): the source
// partition function and the hand-off type of one lane's packet batches.
//
// The flow detector keeps all of its state per source IP, and a host
// stream *is* a source IP, so the telescope stream splits by source with
// no loss. lane_of() is the one partition function every per-source
// structure uses: the producer's host-stream partitions, the detector a
// row is routed to, and the federation's per-lane sighting tables. All of
// a source's packets, flow state and sightings therefore live in one lane.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "net/batch.h"

namespace exiot::pipeline {

/// The lane (of `lanes`) that owns source address `src`. Fibonacci-hashed
/// so structured populations still spread evenly; any deterministic
/// function would be correct, this one balances the lanes.
inline std::size_t lane_of(std::uint32_t src, std::size_t lanes) {
  const std::uint64_t mixed = src * 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>((mixed >> 32) % lanes);
}

/// One lane's batch hand-off: rows of the lane's sources in canonical
/// (ts, host) order, and `hosts[i]`, the global host index of row i (the
/// canonical tie-break the event merge keys on). The batch and the host
/// lane are borrowed for the call only.
using LaneBatchFn =
    std::function<void(const net::PacketBatch&, const std::uint32_t* hosts)>;

}  // namespace exiot::pipeline
