#include "net/packet.h"

#include <tuple>

#include "net/checksum.h"
#include "util/buffer.h"

namespace zen::net {

FlowKey ParsedPacket::flow_key(std::uint32_t in_port) const noexcept {
  FlowKey k;
  k.in_port = in_port;
  k.eth_src = eth.src.to_u64();
  k.eth_dst = eth.dst.to_u64();
  k.eth_type = inner_ether_type();
  if (vlan) {
    k.vlan_vid = vlan->vid;
    k.vlan_pcp = vlan->pcp;
  }
  if (arp) {
    k.arp_op = arp->opcode;
    k.ipv4_src = arp->sender_ip.value();
    k.ipv4_dst = arp->target_ip.value();
  }
  if (ipv4) {
    k.ipv4_src = ipv4->src.value();
    k.ipv4_dst = ipv4->dst.value();
    k.ip_proto = ipv4->protocol;
    k.ip_dscp = ipv4->dscp;
  }
  if (ipv6) {
    std::tie(k.ipv6_src_hi, k.ipv6_src_lo) = FlowKey::split_ipv6(ipv6->src);
    std::tie(k.ipv6_dst_hi, k.ipv6_dst_lo) = FlowKey::split_ipv6(ipv6->dst);
    k.ip_proto = ipv6->next_header;
    k.ip_dscp = ipv6->traffic_class >> 2;
  }
  if (tcp) {
    k.l4_src = tcp->src_port;
    k.l4_dst = tcp->dst_port;
  } else if (udp) {
    k.l4_src = udp->src_port;
    k.l4_dst = udp->dst_port;
  } else if (icmp) {
    k.l4_src = icmp->type;
    k.l4_dst = icmp->code;
  }
  return k;
}

util::Result<ParsedPacket> parse_packet(std::span<const std::uint8_t> frame) {
  util::ByteReader r(frame);
  ParsedPacket p;
  p.eth = EthernetHeader::parse(r);
  if (!r.ok()) return util::make_error<ParsedPacket>("truncated ethernet header");

  std::uint16_t ether_type = p.eth.ether_type;
  if (ether_type == EtherType::kVlan) {
    p.vlan = VlanTag::parse(r);
    if (!r.ok()) return util::make_error<ParsedPacket>("truncated vlan tag");
    ether_type = p.vlan->ether_type;
  }

  switch (ether_type) {
    case EtherType::kArp: {
      p.arp = ArpMessage::parse(r);
      if (!r.ok()) return util::make_error<ParsedPacket>("truncated arp");
      break;
    }
    case EtherType::kIpv4: {
      p.ipv4 = Ipv4Header::parse(r);
      if (!r.ok()) return util::make_error<ParsedPacket>("bad ipv4 header");
      switch (p.ipv4->protocol) {
        case IpProto::kTcp:
          p.tcp = TcpHeader::parse(r);
          if (!r.ok()) return util::make_error<ParsedPacket>("bad tcp header");
          break;
        case IpProto::kUdp:
          p.udp = UdpHeader::parse(r);
          if (!r.ok()) return util::make_error<ParsedPacket>("bad udp header");
          break;
        case IpProto::kIcmp:
          p.icmp = IcmpHeader::parse(r);
          if (!r.ok()) return util::make_error<ParsedPacket>("bad icmp header");
          break;
        default:
          break;  // unknown L4: leave optionals empty
      }
      break;
    }
    case EtherType::kIpv6: {
      p.ipv6 = Ipv6Header::parse(r);
      if (!r.ok()) return util::make_error<ParsedPacket>("bad ipv6 header");
      switch (p.ipv6->next_header) {
        case IpProto::kTcp:
          p.tcp = TcpHeader::parse(r);
          if (!r.ok()) return util::make_error<ParsedPacket>("bad tcp header");
          break;
        case IpProto::kUdp:
          p.udp = UdpHeader::parse(r);
          if (!r.ok()) return util::make_error<ParsedPacket>("bad udp header");
          break;
        default:
          break;
      }
      break;
    }
    default:
      break;  // unknown L3
  }
  p.payload_offset = r.position();
  return p;
}

namespace {

Bytes build_arp(std::uint16_t opcode, MacAddress eth_dst, MacAddress sender_mac,
                Ipv4Address sender_ip, MacAddress target_mac,
                Ipv4Address target_ip) {
  Bytes out;
  out.reserve(EthernetHeader::kSize + ArpMessage::kSize);
  util::ByteWriter w(out);
  EthernetHeader eth{eth_dst, sender_mac, EtherType::kArp};
  eth.serialize(w);
  ArpMessage arp;
  arp.opcode = opcode;
  arp.sender_mac = sender_mac;
  arp.sender_ip = sender_ip;
  arp.target_mac = target_mac;
  arp.target_ip = target_ip;
  arp.serialize(w);
  return out;
}

}  // namespace

Bytes build_arp_request(MacAddress sender_mac, Ipv4Address sender_ip,
                        Ipv4Address target_ip) {
  return build_arp(ArpMessage::kRequest, MacAddress::broadcast(), sender_mac,
                   sender_ip, MacAddress{}, target_ip);
}

Bytes build_arp_reply(MacAddress sender_mac, Ipv4Address sender_ip,
                      MacAddress target_mac, Ipv4Address target_ip) {
  return build_arp(ArpMessage::kReply, target_mac, sender_mac, sender_ip,
                   target_mac, target_ip);
}

namespace {

// Common IPv4 frame scaffold: returns the byte vector with Ethernet+IPv4
// written and the L4 part appended by `l4_size`/`write_l4`.
template <typename WriteL4>
Bytes build_ipv4_frame(MacAddress eth_src, MacAddress eth_dst, Ipv4Address src,
                       Ipv4Address dst, std::uint8_t protocol,
                       std::uint8_t dscp, std::size_t l4_size,
                       std::span<const std::uint8_t> payload,
                       WriteL4&& write_l4) {
  Bytes out;
  out.reserve(EthernetHeader::kSize + Ipv4Header::kMinSize + l4_size +
              payload.size());
  util::ByteWriter w(out);
  EthernetHeader eth{eth_dst, eth_src, EtherType::kIpv4};
  eth.serialize(w);

  Ipv4Header ip;
  ip.dscp = dscp;
  ip.protocol = protocol;
  ip.src = src;
  ip.dst = dst;
  ip.total_length = static_cast<std::uint16_t>(Ipv4Header::kMinSize + l4_size +
                                               payload.size());
  ip.serialize(w);

  // Write the L4 segment in place, then patch in the pseudo-header
  // checksum computed over it.
  const std::size_t l4_at = out.size();
  const std::size_t checksum_offset = write_l4(w);
  w.bytes(payload);
  const std::uint16_t sum = l4_checksum_ipv4(
      src, dst, protocol, std::span<const std::uint8_t>(out).subspan(l4_at));
  if (checksum_offset != SIZE_MAX) w.patch_u16(l4_at + checksum_offset, sum);
  return out;
}

}  // namespace

Bytes build_ipv4_tcp(MacAddress eth_src, MacAddress eth_dst, Ipv4Address src,
                     Ipv4Address dst, const TcpSpec& tcp,
                     std::span<const std::uint8_t> payload, std::uint8_t dscp) {
  return build_ipv4_frame(
      eth_src, eth_dst, src, dst, IpProto::kTcp, dscp, TcpHeader::kMinSize,
      payload, [&](util::ByteWriter& sw) {
        TcpHeader h;
        h.src_port = tcp.src_port;
        h.dst_port = tcp.dst_port;
        h.seq = tcp.seq;
        h.ack = tcp.ack;
        h.flags = tcp.flags;
        h.serialize(sw);
        return std::size_t{16};  // checksum offset within TCP header
      });
}

Bytes build_ipv4_udp(MacAddress eth_src, MacAddress eth_dst, Ipv4Address src,
                     Ipv4Address dst, std::uint16_t src_port,
                     std::uint16_t dst_port,
                     std::span<const std::uint8_t> payload, std::uint8_t dscp) {
  return build_ipv4_frame(
      eth_src, eth_dst, src, dst, IpProto::kUdp, dscp, UdpHeader::kSize,
      payload, [&](util::ByteWriter& sw) {
        UdpHeader h;
        h.src_port = src_port;
        h.dst_port = dst_port;
        h.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload.size());
        h.serialize(sw);
        return std::size_t{6};  // checksum offset within UDP header
      });
}

Bytes build_ipv4_icmp_echo(MacAddress eth_src, MacAddress eth_dst,
                           Ipv4Address src, Ipv4Address dst, bool request,
                           std::uint16_t identifier, std::uint16_t sequence) {
  return build_ipv4_frame(
      eth_src, eth_dst, src, dst, IpProto::kIcmp, 0, IcmpHeader::kSize, {},
      [&](util::ByteWriter& sw) {
        IcmpHeader h;
        h.type = request ? IcmpHeader::kEchoRequest : IcmpHeader::kEchoReply;
        h.identifier = identifier;
        h.sequence = sequence;
        h.serialize(sw);
        return std::size_t{2};  // ICMP checksum offset
      });
}

namespace {

template <typename WriteL4>
Bytes build_ipv6_frame(MacAddress eth_src, MacAddress eth_dst,
                       const Ipv6Address& src, const Ipv6Address& dst,
                       std::uint8_t next_header, std::size_t l4_size,
                       std::span<const std::uint8_t> payload,
                       WriteL4&& write_l4) {
  Bytes out;
  out.reserve(EthernetHeader::kSize + Ipv6Header::kSize + l4_size +
              payload.size());
  util::ByteWriter w(out);
  EthernetHeader eth{eth_dst, eth_src, EtherType::kIpv6};
  eth.serialize(w);

  Ipv6Header ip6;
  ip6.next_header = next_header;
  ip6.src = src;
  ip6.dst = dst;
  ip6.payload_length = static_cast<std::uint16_t>(l4_size + payload.size());
  ip6.serialize(w);

  // L4 checksum over the IPv6 pseudo-header (RFC 8200 §8.1).
  Bytes segment;
  util::ByteWriter sw(segment);
  const std::size_t checksum_offset = write_l4(sw);
  sw.bytes(payload);
  if (checksum_offset != SIZE_MAX) {
    std::uint32_t acc = 0;
    for (int i = 0; i < 16; i += 2)
      acc += (std::uint32_t{src.octets()[static_cast<std::size_t>(i)]} << 8) |
             src.octets()[static_cast<std::size_t>(i + 1)];
    for (int i = 0; i < 16; i += 2)
      acc += (std::uint32_t{dst.octets()[static_cast<std::size_t>(i)]} << 8) |
             dst.octets()[static_cast<std::size_t>(i + 1)];
    acc += static_cast<std::uint32_t>(segment.size());
    acc += next_header;
    std::size_t i = 0;
    for (; i + 1 < segment.size(); i += 2)
      acc += (std::uint32_t{segment[i]} << 8) | segment[i + 1];
    if (i < segment.size()) acc += std::uint32_t{segment[i]} << 8;
    while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
    sw.patch_u16(checksum_offset, static_cast<std::uint16_t>(~acc & 0xffff));
  }
  w.bytes(segment);
  return out;
}

}  // namespace

Bytes build_ipv6_udp(MacAddress eth_src, MacAddress eth_dst,
                     const Ipv6Address& src, const Ipv6Address& dst,
                     std::uint16_t src_port, std::uint16_t dst_port,
                     std::span<const std::uint8_t> payload) {
  return build_ipv6_frame(
      eth_src, eth_dst, src, dst, IpProto::kUdp, UdpHeader::kSize, payload,
      [&](util::ByteWriter& sw) {
        UdpHeader h;
        h.src_port = src_port;
        h.dst_port = dst_port;
        h.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload.size());
        h.serialize(sw);
        return std::size_t{6};
      });
}

Bytes build_ipv6_tcp(MacAddress eth_src, MacAddress eth_dst,
                     const Ipv6Address& src, const Ipv6Address& dst,
                     const TcpSpec& tcp, std::span<const std::uint8_t> payload) {
  return build_ipv6_frame(
      eth_src, eth_dst, src, dst, IpProto::kTcp, TcpHeader::kMinSize, payload,
      [&](util::ByteWriter& sw) {
        TcpHeader h;
        h.src_port = tcp.src_port;
        h.dst_port = tcp.dst_port;
        h.seq = tcp.seq;
        h.ack = tcp.ack;
        h.flags = tcp.flags;
        h.serialize(sw);
        return std::size_t{16};
      });
}

Bytes build_discovery_frame(MacAddress src, std::uint64_t datapath_id,
                            std::uint32_t port_no) {
  // LLDP-style TLVs: type (7 bits) | length (9 bits), then value.
  Bytes out;
  util::ByteWriter w(out);
  // 01:80:c2:00:00:0e is the LLDP nearest-bridge multicast address.
  EthernetHeader eth{MacAddress({0x01, 0x80, 0xc2, 0x00, 0x00, 0x0e}), src,
                     EtherType::kLldp};
  eth.serialize(w);
  auto tlv_header = [&](std::uint8_t type, std::uint16_t len) {
    w.u16(static_cast<std::uint16_t>((std::uint16_t{type} << 9) | (len & 0x1ff)));
  };
  // Chassis ID TLV (type 1), subtype 7 (locally assigned): 8-byte dpid.
  tlv_header(1, 9);
  w.u8(7);
  w.u64(datapath_id);
  // Port ID TLV (type 2), subtype 7: 4-byte port number.
  tlv_header(2, 5);
  w.u8(7);
  w.u32(port_no);
  // TTL TLV (type 3).
  tlv_header(3, 2);
  w.u16(120);
  // End of LLDPDU.
  tlv_header(0, 0);
  return out;
}

std::optional<DiscoveryInfo> parse_discovery_frame(
    std::span<const std::uint8_t> frame) {
  util::ByteReader r(frame);
  const EthernetHeader eth = EthernetHeader::parse(r);
  if (!r.ok() || eth.ether_type != EtherType::kLldp) return std::nullopt;

  DiscoveryInfo info;
  bool have_chassis = false;
  bool have_port = false;
  while (r.ok() && r.remaining() >= 2) {
    const std::uint16_t header = r.u16();
    const std::uint8_t type = static_cast<std::uint8_t>(header >> 9);
    const std::uint16_t len = header & 0x1ff;
    if (type == 0) break;
    if (type == 1 && len == 9) {
      if (r.u8() != 7) return std::nullopt;
      info.datapath_id = r.u64();
      have_chassis = true;
    } else if (type == 2 && len == 5) {
      if (r.u8() != 7) return std::nullopt;
      info.port_no = r.u32();
      have_port = true;
    } else {
      r.skip(len);
    }
  }
  if (!r.ok() || !have_chassis || !have_port) return std::nullopt;
  return info;
}

}  // namespace zen::net
