#include "pipeline/federation.h"

#include <algorithm>
#include <cassert>

namespace exiot::pipeline {

FederationStage::FederationStage(FederationConfig config,
                                 obs::MetricsRegistry* metrics,
                                 std::size_t num_lanes)
    : config_(config) {
  // Validates num_sites (throws std::invalid_argument) before any of the
  // per-site state below is sized by it.
  const std::vector<Cidr> apertures =
      telescope::partition_aperture(config_.telescope, config_.num_sites);
  active_ = config_.active_sites <= 0
                ? config_.num_sites
                : std::min(config_.active_sites, config_.num_sites);
  int bits = 0;
  while ((1 << bits) < config_.num_sites) ++bits;
  site_shift_ = static_cast<std::uint32_t>(
      32 - config_.telescope.prefix_len() - bits);

  obs::MetricsRegistry& reg =
      metrics != nullptr ? *metrics : obs::scratch_registry();
  const bool federated = config_.num_sites > 1;
  for (int i = 0; i < config_.num_sites; ++i) {
    SiteSpec spec =
        static_cast<std::size_t>(i) < config_.sites.size()
            ? config_.sites[static_cast<std::size_t>(i)]
            : SiteSpec{};
    telescope::SiteInfo info;
    info.name = "site" + std::to_string(i);
    info.aperture = apertures[static_cast<std::size_t>(i)];
    info.clock_skew = spec.clock_skew;
    sites_.push_back(info);
    // A single-site federation keeps the legacy unlabelled tunnel series;
    // real federations label every tunnel metric with its site.
    tunnels_.push_back(std::make_unique<ReconnectingTunnel>(
        spec.reconnect_delay, metrics, federated ? info.name : ""));
    for (const auto& [from, to] : spec.outages) {
      tunnels_.back()->schedule_outage(from, to);
    }
    packets_c_.push_back(&reg.counter(
        "exiot_federation_packets_total",
        "Packets captured per sensor site's aperture.",
        obs::Labels{{"site", info.name}}));
  }
  const auto n_sites = static_cast<std::size_t>(config_.num_sites);
  for (std::size_t i = 0; i < std::max<std::size_t>(1, num_lanes); ++i) {
    auto lane = std::make_unique<Lane>();
    lane->sightings.reset(n_sites);
    lane->site_counts.assign(n_sites, 0);
    lanes_.push_back(std::move(lane));
  }
  dropped_c_ = &reg.counter(
      "exiot_federation_dropped_total",
      "Packets landing in dark (inactive) site apertures, dropped.");
  sites_g_ = &reg.gauge("exiot_federation_active_sites",
                        "Sensor sites currently capturing.");
  multi_sensor_g_ = &reg.gauge(
      "exiot_federation_multi_sensor_sources",
      "Distinct sources sighted by two or more sensors (deduped into one "
      "feed record each).");
  sites_g_->set(static_cast<double>(active_));
}

const net::PacketBatch& FederationStage::filter(
    Lane& lane, const net::PacketBatch& batch, const std::uint32_t* hosts,
    const std::uint32_t*& kept_hosts, std::uint64_t& dropped) {
  const std::size_t n = batch.size();
  const TimeMicros* ts = batch.ts();
  const std::uint32_t* src = batch.src();
  const std::uint32_t* dst = batch.dst();
  const auto active = static_cast<std::size_t>(active_);
  std::fill(lane.site_counts.begin(), lane.site_counts.end(), 0);
  std::size_t dark = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t site = site_of(dst[i]);
    if (site >= active) {
      // Dark aperture (or outside the telescope): nobody is listening
      // there. The first drop switches the batch to a compacted copy.
      if (dark++ == 0) {
        lane.out.clear();
        lane.out_hosts.clear();
        for (std::size_t j = 0; j < i; ++j) {
          lane.out.push_back(batch[j]);
          if (hosts != nullptr) lane.out_hosts.push_back(hosts[j]);
        }
      }
      continue;
    }
    ++lane.site_counts[site];
    lane.sightings.record(src[i], static_cast<std::uint32_t>(site), ts[i],
                          ts[i] + sites_[site].clock_skew);
    if (dark != 0) {
      lane.out.push_back(batch[i]);
      if (hosts != nullptr) lane.out_hosts.push_back(hosts[i]);
    }
  }
  for (std::size_t s = 0; s < lane.site_counts.size(); ++s) {
    if (lane.site_counts[s] != 0) packets_c_[s]->inc(lane.site_counts[s]);
  }
  dropped += dark;
  kept_hosts = dark == 0 || hosts == nullptr ? hosts : lane.out_hosts.data();
  return dark == 0 ? batch : lane.out;
}

std::size_t FederationStage::run_window(const BatchSource& source,
                                        const BatchFn& sink) {
  assert(lanes_.size() == 1 && "run_window needs a one-lane stage");
  return run_lane(
      0,
      [&source](const LaneBatchFn& fn) {
        return source(
            [&fn](const net::PacketBatch& batch) { fn(batch, nullptr); });
      },
      [&sink](const net::PacketBatch& batch, const std::uint32_t*) {
        sink(batch);
      });
}

std::size_t FederationStage::run_lane(std::size_t lane,
                                      const LaneSource& source,
                                      const LaneBatchFn& sink) {
  if (config_.num_sites == 1) {
    // Legacy single-telescope path: the one site is the whole aperture —
    // forward batches untouched, keep the hot path free of bookkeeping.
    return source(sink);
  }
  Lane& own = *lanes_[lane];
  const std::uint64_t multi_before = own.sightings.multi_sensor_sources();
  std::size_t forwarded = 0;
  std::uint64_t dropped = 0;
  source([&](const net::PacketBatch& batch, const std::uint32_t* hosts) {
    const std::uint32_t* kept_hosts = nullptr;
    const net::PacketBatch& kept =
        filter(own, batch, hosts, kept_hosts, dropped);
    if (!kept.empty()) {
      forwarded += kept.size();
      sink(kept, kept_hosts);
    }
  });
  if (dropped != 0) dropped_c_->inc(dropped);
  multi_sensor_g_->add(static_cast<double>(
      own.sightings.multi_sensor_sources() - multi_before));
  return forwarded;
}

TimeMicros FederationStage::deliver_event(Ipv4 src, TimeMicros sent_at) {
  if (config_.num_sites == 1) return tunnels_[0]->deliver(sent_at);
  const auto sighted = table_of(src).sightings_of(src.value());
  if (sighted.empty()) return tunnels_[0]->deliver(sent_at);
  TimeMicros at = sent_at;
  for (const auto& s : sighted) {
    at = std::max(at, tunnels_[s.site]->deliver(sent_at));
  }
  return at;
}

std::vector<feed::SensorSighting> FederationStage::sightings_of(
    Ipv4 src) const {
  std::vector<feed::SensorSighting> out;
  if (config_.num_sites == 1) return out;
  for (const auto& s : table_of(src).sightings_of(src.value())) {
    feed::SensorSighting sighting;
    sighting.sensor = sites_[s.site].name;
    sighting.aperture = sites_[s.site].aperture.to_string();
    sighting.first_seen = s.first_seen;
    sighting.local_first_seen = s.local_first_seen;
    sighting.packets = s.packets;
    out.push_back(std::move(sighting));
  }
  return out;
}

std::uint64_t FederationStage::multi_sensor_sources() const {
  std::uint64_t sum = 0;
  for (const auto& lane : lanes_) {
    sum += lane->sightings.multi_sensor_sources();
  }
  return sum;
}

}  // namespace exiot::pipeline
