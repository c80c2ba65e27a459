// The packet model: a decoded representation of a telescope-arriving IPv4
// packet carrying TCP, UDP, or ICMP. This is the unit the whole pipeline
// operates on, and its fields are exactly the ones Table II of the paper
// extracts for the classifier.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.h"

namespace exiot::net {

enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

/// TCP flag bits (RFC 793 layout within the flags byte).
namespace tcp_flags {
constexpr std::uint8_t kFin = 0x01;
constexpr std::uint8_t kSyn = 0x02;
constexpr std::uint8_t kRst = 0x04;
constexpr std::uint8_t kPsh = 0x08;
constexpr std::uint8_t kAck = 0x10;
constexpr std::uint8_t kUrg = 0x20;
}  // namespace tcp_flags

/// Decoded TCP options. Presence flags model the binary features the paper
/// extracts (TIMESTAMP, NOP, SACK-permitted, SACK as binary; WSCALE and MSS
/// as values).
struct TcpOptions {
  std::optional<std::uint16_t> mss;
  std::optional<std::uint8_t> wscale;
  bool timestamp = false;
  std::uint32_t ts_val = 0;
  bool nop = false;
  bool sack_permitted = false;
  bool sack = false;

  bool operator==(const TcpOptions&) const = default;
};

/// ICMP types used by the telescope traffic model.
namespace icmp_type {
constexpr std::uint8_t kEchoReply = 0;
constexpr std::uint8_t kUnreachable = 3;
constexpr std::uint8_t kEchoRequest = 8;
constexpr std::uint8_t kTimeExceeded = 11;
}  // namespace icmp_type

/// A decoded packet. TCP/UDP/ICMP-specific fields are valid according to
/// `proto`; unused fields are zero.
struct Packet {
  TimeMicros ts = 0;

  // IPv4 header.
  std::uint8_t tos = 0;
  std::uint16_t total_length = 0;
  std::uint16_t ip_id = 0;
  std::uint8_t ttl = 64;
  IpProto proto = IpProto::kTcp;
  Ipv4 src;
  Ipv4 dst;

  // TCP / UDP header.
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  // TCP only.
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t data_offset = 5;  // 32-bit words; 5 = no options.
  std::uint8_t reserved = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 0;
  std::uint16_t urgent = 0;
  TcpOptions opts;

  // ICMP only.
  std::uint8_t icmp_type_v = 0;
  std::uint8_t icmp_code = 0;

  /// TCP payload length implied by total_length and headers (Table II's
  /// "TCP data length").
  int tcp_data_length() const {
    if (proto != IpProto::kTcp) return 0;
    return static_cast<int>(total_length) - 20 - 4 * data_offset;
  }

  bool has_flag(std::uint8_t f) const { return (flags & f) != 0; }

  std::string summary() const;

  bool operator==(const Packet&) const = default;
};

/// True for packets that are plausibly DDoS-backscatter or other replies
/// rather than scan probes; these are filtered before flow tracking.
/// Mirrors the paper's filter: SYN-ACK / RST / pure-ACK TCP packets (that
/// is, any TCP packet with ACK or RST set), ICMP replies (echo reply,
/// destination unreachable, time exceeded) and UDP replies from
/// well-known service source ports (DNS, NTP, SNMP).
///
/// Evaluated without branches: the detector runs it on every packet, and
/// the protocol mix is random enough that a branchy form mispredicts.
inline bool is_backscatter(const Packet& pkt) {
  const auto proto = static_cast<std::uint8_t>(pkt.proto);
  const std::uint8_t type = pkt.icmp_type_v;
  const std::uint16_t sport = pkt.src_port;
  const bool tcp_reply =
      (pkt.flags & (tcp_flags::kAck | tcp_flags::kRst)) != 0;
  const bool icmp_reply = (type == icmp_type::kEchoReply) |
                          (type == icmp_type::kUnreachable) |
                          (type == icmp_type::kTimeExceeded);
  const bool udp_reply = (sport == 53) | (sport == 123) | (sport == 161);
  const bool tcp = proto == static_cast<std::uint8_t>(IpProto::kTcp);
  const bool udp = proto == static_cast<std::uint8_t>(IpProto::kUdp);
  const bool icmp = proto == static_cast<std::uint8_t>(IpProto::kIcmp);
  return (tcp & tcp_reply) | (udp & udp_reply) | (icmp & icmp_reply);
}

/// Builds a well-formed TCP SYN probe packet — the most common telescope
/// arrival — with sane defaults. Convenience for tests and generators.
Packet make_syn(TimeMicros ts, Ipv4 src, Ipv4 dst, std::uint16_t src_port,
                std::uint16_t dst_port, std::uint32_t seq = 0);

}  // namespace exiot::net
