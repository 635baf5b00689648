// Packet: owned wire bytes plus a decoded header stack.
//
// A Packet owns its bytes (std::vector). ParsedPacket is the decoded view:
// which headers are present, their values, and the payload offset. Builders
// construct well-formed frames for the common cases the stack needs
// (ARP, IPv4/TCP/UDP/ICMP, LLDP-style discovery frames).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/addr.h"
#include "net/flow_key.h"
#include "net/headers.h"
#include "util/result.h"

namespace zen::net {

using Bytes = std::vector<std::uint8_t>;

struct ParsedPacket {
  EthernetHeader eth;
  std::optional<VlanTag> vlan;
  std::optional<ArpMessage> arp;
  std::optional<Ipv4Header> ipv4;
  std::optional<Ipv6Header> ipv6;
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  std::optional<IcmpHeader> icmp;
  std::size_t payload_offset = 0;  // offset of L4 payload (or L3 for non-IP)

  // The effective (innermost) ethertype after any VLAN tag.
  std::uint16_t inner_ether_type() const noexcept {
    return vlan ? vlan->ether_type : eth.ether_type;
  }

  // Builds the dataplane flow key; `in_port` comes from packet metadata.
  FlowKey flow_key(std::uint32_t in_port) const noexcept;
};

// Parses an Ethernet frame. Unknown L3/L4 protocols parse successfully with
// the corresponding optionals empty; truncated headers produce an error.
util::Result<ParsedPacket> parse_packet(std::span<const std::uint8_t> frame);

// Parse-once metadata a frame carries from hop to hop (the miniflow idea of
// Open vSwitch): the flow key and L4 payload offset of the last successful
// parse of exactly these bytes. A receiver overwrites only key.in_port.
// Whoever changes the bytes (a rewrite action, a telemetry trailer) must
// leave the copy it hands on invalid, so the next hop parses again.
struct FrameMeta {
  FlowKey key;
  std::uint32_t payload_offset = 0;
  bool valid = false;

  static FrameMeta of(const ParsedPacket& p, std::uint32_t in_port) noexcept {
    return FrameMeta{p.flow_key(in_port),
                     static_cast<std::uint32_t>(p.payload_offset), true};
  }
};

// ---- Builders -------------------------------------------------------------

struct TcpSpec {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = TcpHeader::kAck;
};

Bytes build_arp_request(MacAddress sender_mac, Ipv4Address sender_ip,
                        Ipv4Address target_ip);
Bytes build_arp_reply(MacAddress sender_mac, Ipv4Address sender_ip,
                      MacAddress target_mac, Ipv4Address target_ip);

Bytes build_ipv4_tcp(MacAddress eth_src, MacAddress eth_dst, Ipv4Address src,
                     Ipv4Address dst, const TcpSpec& tcp,
                     std::span<const std::uint8_t> payload, std::uint8_t dscp = 0);

Bytes build_ipv4_udp(MacAddress eth_src, MacAddress eth_dst, Ipv4Address src,
                     Ipv4Address dst, std::uint16_t src_port,
                     std::uint16_t dst_port,
                     std::span<const std::uint8_t> payload, std::uint8_t dscp = 0);

Bytes build_ipv4_icmp_echo(MacAddress eth_src, MacAddress eth_dst,
                           Ipv4Address src, Ipv4Address dst, bool request,
                           std::uint16_t identifier, std::uint16_t sequence);

Bytes build_ipv6_udp(MacAddress eth_src, MacAddress eth_dst,
                     const Ipv6Address& src, const Ipv6Address& dst,
                     std::uint16_t src_port, std::uint16_t dst_port,
                     std::span<const std::uint8_t> payload);

Bytes build_ipv6_tcp(MacAddress eth_src, MacAddress eth_dst,
                     const Ipv6Address& src, const Ipv6Address& dst,
                     const TcpSpec& tcp, std::span<const std::uint8_t> payload);

// Discovery frame (LLDP-style, ethertype 0x88cc): carries the sending
// switch's datapath id and port number as TLVs. Used by the controller's
// topology discovery app.
Bytes build_discovery_frame(MacAddress src, std::uint64_t datapath_id,
                            std::uint32_t port_no);

struct DiscoveryInfo {
  std::uint64_t datapath_id = 0;
  std::uint32_t port_no = 0;
};

// Returns nullopt if the frame is not a discovery frame.
std::optional<DiscoveryInfo> parse_discovery_frame(
    std::span<const std::uint8_t> frame);

}  // namespace zen::net
