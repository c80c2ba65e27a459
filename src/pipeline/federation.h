// The telescope federation stage: N sensor sites, each monitoring one
// sub-prefix of the telescope aperture through its own reconnecting
// tunnel and its own (possibly skewed) clock, aggregated into the single
// deterministic packet stream the flow detectors consume.
//
// Placement: between the producer (canonical traffic synthesis against
// the full aperture) and detection. Each canonical SoA batch is filtered
// in one in-order pass: every row is attributed by destination to the
// site whose sub-prefix it lands in, sightings and per-site packet counts
// are recorded, and rows landing in a dark (inactive) site or outside the
// telescope are dropped. The batch itself is forwarded when nothing was
// dropped, a compacted copy of the kept rows otherwise.
//
// Why the filter is exact: the union of the active sites' captures, put
// back into canonical (ts, arrival) order, is the canonical stream minus
// the dark rows. The stage's input is in canonical order, so that order
// is simply the input row order — no per-site queues or cross-site merge
// are needed, and the forwarded feed is byte-identical for any site count.
// The federation determinism matrix (tests/federation_test.cpp) asserts it
// against the lanes x annotate-workers grid.
//
// Lanes: sightings are per source, so the ledger is split into one
// SightingTable per capture lane (pipeline/lane.h). run_lane() filters one
// lane's batches on that lane's thread into that lane's table, carrying
// the per-row host lane through the compaction; run_window() is the same
// pass over a one-lane stage's whole stream. deliver_event() and
// sightings_of() read the owning lane's table, between windows.
//
// Clock skew: a site's local timestamp is canonical + skew. Skew colors
// the per-sensor attribution (local_first_seen) but never the forwarding
// order — the aggregator orders on the canonical clock, the way the real
// one would after skew normalization — so the feed is skew-invariant.
//
// Detector events (SCANNER / SAMPLE / END_FLOW) ship to the aggregator
// over the tunnel of every site that sighted the source; the event is
// actionable once the last sighted site's copy arrives (max of the
// per-site delivery times). With one site this degenerates to the legacy
// single-tunnel behavior exactly.
//
// Single-site fast path: num_sites == 1 forwards batches untouched — no
// attribution, no sighting bookkeeping — so the legacy pipeline pays
// nothing for the federation layer existing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "feed/record.h"
#include "net/batch.h"
#include "obs/metrics.h"
#include "pipeline/lane.h"
#include "pipeline/tunnel.h"
#include "telescope/site.h"

namespace exiot::pipeline {

/// Per-site configuration overrides (index-matched to sites; missing
/// entries take the defaults).
struct SiteSpec {
  /// Site clock minus canonical clock (local_first_seen = canonical +
  /// skew). Never affects forwarding order or feed bytes.
  TimeMicros clock_skew = 0;
  /// This site's tunnel re-establishment delay after an outage.
  TimeMicros reconnect_delay = seconds(5);
  /// Tunnel outages [from, to) to inject at construction.
  std::vector<std::pair<TimeMicros, TimeMicros>> outages;
};

struct FederationConfig {
  /// The full telescope prefix the canonical synthesis runs against.
  Cidr telescope{Ipv4(44, 0, 0, 0), 8};
  /// Sensor sites the aperture is carved into (power of two, and
  /// prefix_len + log2(num_sites) <= 32; 1 = the single-telescope legacy
  /// path). Anything else throws std::invalid_argument at construction.
  int num_sites = 1;
  /// Sites actually capturing (first `active_sites` of the partition;
  /// 0 = all). Fewer active sites shrink the effective aperture — the
  /// marginal-aperture experiment's knob (bench_federation).
  int active_sites = 0;
  /// Per-site overrides, index-matched.
  std::vector<SiteSpec> sites;
};

class FederationStage {
 public:
  using BatchFn = std::function<void(const net::PacketBatch&)>;
  using BatchSource = std::function<std::size_t(const BatchFn&)>;
  using LaneSource = std::function<std::size_t(const LaneBatchFn&)>;

  /// `num_lanes` splits the sighting ledger by lane_of(src); it must match
  /// the lane count of the run_lane() callers (1 for run_window()).
  FederationStage(FederationConfig config,
                  obs::MetricsRegistry* metrics = nullptr,
                  std::size_t num_lanes = 1);

  /// Streams one window of a one-lane stage: pulls canonical batches from
  /// `source`, records per-site sightings, and forwards the
  /// active-aperture rows to `sink` in input order. Returns the number of
  /// packets forwarded.
  std::size_t run_window(const BatchSource& source, const BatchFn& sink);

  /// run_window for one lane, on that lane's thread: every row `source`
  /// yields must belong to `lane`. Kept rows reach `sink` with their host
  /// indices. Distinct lanes may run concurrently.
  std::size_t run_lane(std::size_t lane, const LaneSource& source,
                       const LaneBatchFn& sink);

  /// Delivery time of a detector event about `src` sent at `sent_at`: the
  /// event crosses the tunnel of every site that sighted the source and is
  /// actionable when the last copy lands. Sources without sightings (the
  /// single-site fast path, pre-capture queries) use site 0's tunnel —
  /// identical to the legacy single-tunnel pipeline.
  TimeMicros deliver_event(Ipv4 src, TimeMicros sent_at);

  /// Per-sensor attribution of `src`: which sites captured it, each
  /// site's first-seen on the canonical and the site-local clock, and the
  /// per-aperture packet counts. Empty on the single-site fast path.
  std::vector<feed::SensorSighting> sightings_of(Ipv4 src) const;

  /// Distinct sources sighted by two or more sensors, over every lane.
  std::uint64_t multi_sensor_sources() const;

  ReconnectingTunnel& tunnel(std::size_t site = 0) {
    return *tunnels_[site];
  }
  int num_sites() const { return config_.num_sites; }
  int active_sites() const { return active_; }
  const telescope::SiteInfo& site(std::size_t i) const { return sites_[i]; }

 private:
  /// One lane's ledger and filter scratch.
  struct Lane {
    telescope::SightingTable sightings;
    net::PacketBatch out;                     // Compacted rows.
    std::vector<std::uint32_t> out_hosts;     // Their host indices.
    std::vector<std::uint64_t> site_counts;   // Per-batch metric scratch.
  };

  /// Which site's aperture `dst` lands in (a shift — apertures are equal
  /// consecutive power-of-two slices of the telescope prefix).
  std::size_t site_of(std::uint32_t dst) const {
    return (dst - config_.telescope.network().value()) >> site_shift_;
  }
  const telescope::SightingTable& table_of(Ipv4 src) const {
    return lanes_[lane_of(src.value(), lanes_.size())]->sightings;
  }
  /// Filters one batch into `lane`'s ledger and scratch. Returns the kept
  /// rows — `batch` itself when nothing was dropped — and points
  /// `kept_hosts` at their host indices (null when `hosts` is).
  const net::PacketBatch& filter(Lane& lane, const net::PacketBatch& batch,
                                 const std::uint32_t* hosts,
                                 const std::uint32_t*& kept_hosts,
                                 std::uint64_t& dropped);

  FederationConfig config_;
  int active_ = 1;
  std::uint32_t site_shift_ = 32;
  std::vector<telescope::SiteInfo> sites_;
  std::vector<std::unique_ptr<ReconnectingTunnel>> tunnels_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<obs::Counter*> packets_c_;  // Per-site captured packets.
  obs::Counter* dropped_c_;
  obs::Gauge* sites_g_;
  obs::Gauge* multi_sensor_g_;
};

}  // namespace exiot::pipeline
