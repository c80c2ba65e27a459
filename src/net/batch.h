// Packet batches: the unit the capture->detect path moves. A batch is a
// plain vector of decoded rows in canonical (ts, host) order. Producers
// fill it with emplace_back/push_back (pop_back discards a row a merge or
// decode could not complete); every consumer — the federation filter, the
// ingest routing, the detector — reads the rows directly, one pass each.
//
// There are no structure-of-arrays lanes: filling them costs a copy of
// every row, which measured as much as the flat filter passes over them
// saved. The per-row backscatter predicate (net::is_backscatter) is
// branch-free instead. See DESIGN.md, "Batch hot path".
#pragma once

#include <vector>

#include "net/packet.h"

namespace exiot::net {

using PacketBatch = std::vector<Packet>;

}  // namespace exiot::net
