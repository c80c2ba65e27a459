// Detector-event digests per capture hour, folded in delivery order. The
// detector's output is a deterministic function of the capture, so the
// digest of each hour is an oracle for the capture -> detect chain.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.h"
#include "flow/detector.h"

namespace exiot::perfbench {

struct EventLog {
  /// One slot per capture hour, plus one for events flushed by finish().
  std::vector<Digest> hours = std::vector<Digest>(kDayHours + 1);
  std::size_t current = 0;
  std::uint64_t scanners = 0;
  std::uint64_t samples = 0;
  std::uint64_t flow_ends = 0;
  std::uint64_t reports = 0;

  std::vector<std::uint64_t> values() const {
    std::vector<std::uint64_t> out;
    for (const Digest& d : hours) out.push_back(d.h);
    return out;
  }

  flow::DetectorEvents sink() {
    auto summary = [this](int kind, const flow::FlowSummary& s) {
      Digest& d = hours[current];
      d.add_pod(kind);
      d.add_pod(s.src.value());
      d.add_pod(s.first_seen);
      d.add_pod(s.detect_time);
      d.add_pod(s.last_seen);
      d.add_pod(s.total_packets);
    };
    flow::DetectorEvents events;
    events.on_scanner = [this, summary](const flow::FlowSummary& s) {
      ++scanners;
      summary(1, s);
    };
    events.on_flow_end = [this, summary](const flow::FlowSummary& s) {
      ++flow_ends;
      summary(3, s);
    };
    events.on_sample = [this](Ipv4 src, const std::vector<net::Packet>& pkts) {
      ++samples;
      Digest& d = hours[current];
      d.add_pod(2);
      d.add_pod(src.value());
      d.add_pod(pkts.size());
      for (const net::Packet& p : pkts) {
        d.add_pod(p.ts);
        d.add_pod(p.dst.value());
        d.add_pod(p.dst_port);
      }
    };
    events.on_report = [this](const flow::SecondReport& r) {
      ++reports;
      Digest& d = hours[current];
      d.add_pod(4);
      d.add_pod(r.second_start);
      d.add_pod(r.total);
      d.add_pod(r.tcp);
      d.add_pod(r.udp);
      d.add_pod(r.icmp);
      d.add_pod(r.backscatter_filtered);
      d.add_pod(r.new_scanners);
      std::uint64_t port_sum = 0;
      for (const auto& [port, count] : r.per_port) port_sum += port * count;
      d.add_pod(port_sum);
    };
    return events;
  }
};

/// Compares digests slot by slot against `expected`; returns the number of
/// slots that differ (a length mismatch counts every slot).
inline std::uint64_t count_mismatches(const std::vector<std::uint64_t>& got,
                                      const std::vector<std::uint64_t>& want) {
  if (got.size() != want.size()) return got.size();
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) bad += got[i] != want[i];
  return bad;
}

}  // namespace exiot::perfbench
