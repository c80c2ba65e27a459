#include "telescope/synthesizer.h"

#include <algorithm>
#include <limits>

namespace exiot::telescope {

HostStream::HostStream(const inet::Population& pop, const inet::Host& host,
                       Cidr aperture)
    : pop_(pop), host_(host), aperture_(aperture), rng_(host.seed) {
  const inet::ScanBehavior* behavior = pop.behavior_of(host);
  if (behavior != nullptr) {
    synth_.emplace(*behavior, host.addr, aperture, rng_.next_u64());
    iat_regularity_ = behavior->iat_regularity;
  } else if (host.cls == inet::HostClass::kBackscatterVictim) {
    static constexpr std::uint16_t kAttackedServices[] = {80, 443, 53, 22,
                                                          25};
    victim_service_port_ =
        kAttackedServices[rng_.next_below(std::size(kAttackedServices))];
    victim_reply_flags_ =
        rng_.bernoulli(0.6)
            ? (net::tcp_flags::kSyn | net::tcp_flags::kAck)
            : (net::tcp_flags::kRst | net::tcp_flags::kAck);
  } else if (host.cls == inet::HostClass::kMisconfigured) {
    misconfig_dst_ = aperture.address_at(rng_.next_below(aperture.size()));
    misconfig_port_ =
        static_cast<std::uint16_t>(rng_.uniform_int(1, 65535));
  }
  if (!host_.sessions.empty()) {
    next_ts_ = host_.sessions[0].start + draw_iat();
    if (next_ts_ >= host_.sessions[0].end) advance();
  }
}

TimeMicros HostStream::draw_iat() {
  const double rate = host_.sessions[session_idx_].rate;
  double iat_s;
  if (iat_regularity_ > 0.0 && rng_.bernoulli(iat_regularity_)) {
    iat_s = (1.0 / rate) * rng_.uniform(0.95, 1.05);
  } else {
    iat_s = rng_.exponential(rate);
  }
  return std::max<TimeMicros>(1, static_cast<TimeMicros>(
                                     iat_s * kMicrosPerSecond));
}

void HostStream::advance() {
  while (session_idx_ < host_.sessions.size()) {
    const inet::Session& s = host_.sessions[session_idx_];
    const TimeMicros base = std::max(next_ts_, s.start);
    const TimeMicros candidate = base + draw_iat();
    if (candidate < s.end) {
      next_ts_ = candidate;
      return;
    }
    ++session_idx_;
    if (session_idx_ < host_.sessions.size()) {
      next_ts_ = host_.sessions[session_idx_].start;
    }
  }
  next_ts_ = kNever;
}

void HostStream::fill_packet(TimeMicros ts, net::Packet& out) {
  if (synth_.has_value()) {
    synth_->make_probe_into(ts, out);
    return;
  }

  // Full reset: the output slot is reused across streams, so every field
  // must be written (or defaulted) here. Same one-copy reset idiom as
  // PacketSynthesizer::make_probe_into.
  static const net::Packet kZero{};
  out = kZero;
  net::Packet& p = out;
  p.ts = ts;
  p.src = host_.addr;
  if (host_.cls == inet::HostClass::kBackscatterVictim) {
    // A reply to a spoofed SYN: source is the attacked service, the
    // destination (and its port) are whatever the attacker forged.
    p.proto = net::IpProto::kTcp;
    p.src_port = victim_service_port_;
    p.dst = aperture_.address_at(rng_.next_below(aperture_.size()));
    p.dst_port = static_cast<std::uint16_t>(rng_.uniform_int(1024, 65535));
    p.flags = victim_reply_flags_;
    p.seq = static_cast<std::uint32_t>(rng_.next_u64());
    p.ack = static_cast<std::uint32_t>(rng_.next_u64());
    p.window = p.has_flag(net::tcp_flags::kRst) ? 0 : 29200;
    p.ttl = static_cast<std::uint8_t>(rng_.uniform_int(40, 60));
    p.ip_id = static_cast<std::uint16_t>(rng_.next_u64());
    p.total_length = 40;
  } else {
    // Misconfiguration: a node repeatedly contacting one dead address —
    // e.g. a service moved out of the telescope space or a typo'd config.
    p.proto = rng_.bernoulli(0.5) ? net::IpProto::kUdp : net::IpProto::kTcp;
    p.dst = misconfig_dst_;
    p.dst_port = misconfig_port_;
    p.src_port = static_cast<std::uint16_t>(rng_.uniform_int(1024, 65535));
    if (p.proto == net::IpProto::kTcp) {
      p.flags = net::tcp_flags::kSyn;
      p.seq = static_cast<std::uint32_t>(rng_.next_u64());
      p.window = 29200;
      p.total_length = 40;
      p.opts.mss = 1460;
    } else {
      p.total_length = 48;
    }
    p.ttl = static_cast<std::uint8_t>(rng_.uniform_int(40, 120));
    p.ip_id = static_cast<std::uint16_t>(rng_.next_u64());
  }
}

bool HostStream::next_into(net::Packet& out) {
  if (next_ts_ == kNever) return false;
  fill_packet(next_ts_, out);
  advance();
  return true;
}

void enter_window(std::vector<HostStream>& streams,
                  const std::uint32_t* hosts,
                  std::vector<std::uint32_t>& live, TimeMicros t0,
                  TimeMicros t1, std::size_t& pruned,
                  std::vector<MergeSlot>& slots) {
  net::Packet scratch;
  std::size_t kept = 0;
  for (const std::uint32_t local : live) {
    HostStream& stream = streams[local];
    while (stream.peek_ts() < t0) (void)stream.next_into(scratch);
    if (stream.done()) {
      ++pruned;
      continue;
    }
    live[kept++] = local;
    if (stream.peek_ts() < t1) {
      slots.push_back(
          MergeSlot{&stream, hosts != nullptr ? hosts[local] : local});
    }
  }
  live.resize(kept);
}

TrafficSynthesizer::TrafficSynthesizer(const inet::Population& pop,
                                       Cidr aperture) {
  streams_.reserve(pop.hosts().size());
  live_.reserve(pop.hosts().size());
  for (const auto& host : pop.hosts()) {
    live_.push_back(static_cast<std::uint32_t>(streams_.size()));
    streams_.emplace_back(pop, host, aperture);
  }
}

}  // namespace exiot::telescope
