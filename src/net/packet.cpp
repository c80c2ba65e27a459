#include "net/packet.h"

#include <cstdio>

namespace exiot::net {

std::string Packet::summary() const {
  char buf[160];
  const char* proto_name = proto == IpProto::kTcp   ? "TCP"
                           : proto == IpProto::kUdp ? "UDP"
                                                    : "ICMP";
  if (proto == IpProto::kIcmp) {
    std::snprintf(buf, sizeof(buf), "%s %s -> %s type=%u code=%u len=%u",
                  proto_name, src.to_string().c_str(),
                  dst.to_string().c_str(), icmp_type_v, icmp_code,
                  total_length);
  } else {
    std::snprintf(buf, sizeof(buf), "%s %s:%u -> %s:%u flags=0x%02x len=%u",
                  proto_name, src.to_string().c_str(), src_port,
                  dst.to_string().c_str(), dst_port, flags, total_length);
  }
  return buf;
}

Packet make_syn(TimeMicros ts, Ipv4 src, Ipv4 dst, std::uint16_t src_port,
                std::uint16_t dst_port, std::uint32_t seq) {
  Packet p;
  p.ts = ts;
  p.src = src;
  p.dst = dst;
  p.src_port = src_port;
  p.dst_port = dst_port;
  p.seq = seq;
  p.proto = IpProto::kTcp;
  p.flags = tcp_flags::kSyn;
  p.total_length = 40;
  p.window = 5840;
  return p;
}

}  // namespace exiot::net
