#include "sim/host.h"

#include "obs/metrics.h"
#include "util/buffer.h"
#include "util/logging.h"

namespace zen::sim {

namespace {

// Timestamped payloads carry a 4-byte magic followed by the send time in
// nanoseconds; the magic distinguishes them from arbitrary payload bytes
// (a t=0 send is still a valid timestamp).
constexpr std::uint8_t kTsMagic[4] = {'Z', 'E', 'N', 'T'};

// Fills `payload` (reusing its capacity) with a timestamped payload.
void fill_timestamped_payload(net::Bytes& payload, double now_s,
                              std::size_t size) {
  payload.assign(std::max<std::size_t>(size, 12), 0);
  std::copy(std::begin(kTsMagic), std::end(kTsMagic), payload.begin());
  const auto ns = static_cast<std::uint64_t>(now_s * 1e9);
  for (int i = 0; i < 8; ++i)
    payload[static_cast<std::size_t>(4 + i)] =
        static_cast<std::uint8_t>(ns >> (56 - 8 * i));
}

std::optional<std::uint64_t> read_timestamp(
    std::span<const std::uint8_t> payload) {
  if (payload.size() < 12 ||
      !std::equal(std::begin(kTsMagic), std::end(kTsMagic), payload.begin()))
    return std::nullopt;
  std::uint64_t ns = 0;
  for (int i = 0; i < 8; ++i)
    ns = (ns << 8) | payload[static_cast<std::size_t>(4 + i)];
  return ns;
}

}  // namespace

SimHost::SimHost(topo::NodeId id, net::MacAddress mac, net::Ipv4Address ip)
    : id_(id), mac_(mac), ip_(ip) {}

void SimHost::emit(net::Bytes frame) {
  ++stats_.frames_sent;
  static obs::Counter& sent = obs::MetricsRegistry::global().counter(
      "zen_sim_host_frames_sent_total", "", "Frames emitted by all hosts");
  sent.inc();
  if (egress_) egress_(std::move(frame));
}

void SimHost::resolve_and_send(net::Ipv4Address dst, net::Bytes frame) {
  const auto it = arp_cache_.find(dst);
  if (it != arp_cache_.end()) {
    // Patch the destination MAC (bytes 0..5 of the Ethernet header).
    const auto& octets = it->second.octets();
    std::copy(octets.begin(), octets.end(), frame.begin());
    emit(std::move(frame));
    return;
  }
  auto& queue = pending_[dst];
  if (queue.size() >= kMaxPendingPerDst) {
    ++stats_.unresolved_drops;
    return;
  }
  const bool first = queue.empty();
  queue.push_back(std::move(frame));
  if (first) emit(net::build_arp_request(mac_, ip_, dst));
}

void SimHost::send_udp(net::Ipv4Address dst, std::uint16_t src_port,
                       std::uint16_t dst_port, std::size_t payload_size) {
  fill_timestamped_payload(payload_, now(), payload_size);
  net::Bytes frame = net::build_ipv4_udp(mac_, net::MacAddress{}, ip_, dst,
                                         src_port, dst_port, payload_);
  resolve_and_send(dst, std::move(frame));
}

void SimHost::send_tcp(net::Ipv4Address dst, const net::TcpSpec& spec,
                       std::size_t payload_size) {
  fill_timestamped_payload(payload_, now(), payload_size);
  net::Bytes frame =
      net::build_ipv4_tcp(mac_, net::MacAddress{}, ip_, dst, spec, payload_);
  resolve_and_send(dst, std::move(frame));
}

void SimHost::send_icmp_echo(net::Ipv4Address dst, std::uint16_t seq) {
  net::Bytes frame = net::build_ipv4_icmp_echo(
      mac_, net::MacAddress{}, ip_, dst, /*request=*/true,
      static_cast<std::uint16_t>(id_ & 0xffff), seq);
  resolve_and_send(dst, std::move(frame));
}

void SimHost::send_raw(net::Bytes frame) { emit(std::move(frame)); }

void SimHost::receive_udp(std::span<const std::uint8_t> payload) {
  ++stats_.udp_received;
  if (const auto sent_ns = read_timestamp(payload)) {
    const double latency_s = now() - static_cast<double>(*sent_ns) * 1e-9;
    if (latency_s >= 0) latency_us_.record(latency_s * 1e6);
  }
}

void SimHost::deliver(const net::Bytes& frame, const net::FrameMeta& meta) {
  ++stats_.frames_received;
  static obs::Counter& received = obs::MetricsRegistry::global().counter(
      "zen_sim_host_frames_received_total", "",
      "Frames delivered to all hosts");
  received.inc();
  stats_.bytes_received += frame.size();

  // Parse once: the fabric's flow key already says whether this is an
  // IPv4 UDP datagram for us, and where its payload starts.
  if (meta.valid && meta.key.eth_type == net::EtherType::kIpv4 &&
      meta.key.ip_proto == net::IpProto::kUdp) {
    const auto dst = net::MacAddress::from_u64(meta.key.eth_dst);
    if (dst != mac_ && !dst.is_broadcast() && !dst.is_multicast()) return;
    if (meta.key.ipv4_dst != ip_.value()) return;
    receive_udp(std::span<const std::uint8_t>(frame).subspan(meta.payload_offset));
    return;
  }

  auto parsed = net::parse_packet(frame);
  if (!parsed.ok()) return;
  const net::ParsedPacket& p = parsed.value();

  // Drop frames not addressed to us (switch flooding delivers broadly).
  if (p.eth.dst != mac_ && !p.eth.dst.is_broadcast() && !p.eth.dst.is_multicast())
    return;

  if (p.arp) {
    // Learn the sender mapping opportunistically.
    arp_cache_[p.arp->sender_ip] = p.arp->sender_mac;
    if (p.arp->opcode == net::ArpMessage::kRequest && p.arp->target_ip == ip_) {
      ++stats_.arp_requests_answered;
      emit(net::build_arp_reply(mac_, ip_, p.arp->sender_mac, p.arp->sender_ip));
    } else if (p.arp->opcode == net::ArpMessage::kReply &&
               p.arp->target_mac == mac_) {
      // Flush packets queued on this resolution.
      const auto it = pending_.find(p.arp->sender_ip);
      if (it != pending_.end()) {
        auto queue = std::move(it->second);
        pending_.erase(it);
        const auto& octets = p.arp->sender_mac.octets();
        for (auto& pending_frame : queue) {
          std::copy(octets.begin(), octets.end(), pending_frame.begin());
          emit(std::move(pending_frame));
        }
      }
    }
    return;
  }

  if (!p.ipv4 || p.ipv4->dst != ip_) return;

  if (p.icmp) {
    if (p.icmp->type == net::IcmpHeader::kEchoRequest) {
      ++stats_.icmp_echo_received;
      // Reflect src MAC from the request (fast path; no ARP needed).
      emit(net::build_ipv4_icmp_echo(mac_, p.eth.src, ip_, p.ipv4->src,
                                     /*request=*/false, p.icmp->identifier,
                                     p.icmp->sequence));
    } else if (p.icmp->type == net::IcmpHeader::kEchoReply) {
      ++stats_.icmp_reply_received;
    }
    return;
  }

  const std::span<const std::uint8_t> payload{frame.data() + p.payload_offset,
                                              frame.size() - p.payload_offset};
  if (p.udp) {
    receive_udp(payload);
  } else if (p.tcp) {
    ++stats_.tcp_received;
    const auto sink = tcp_sinks_.find(p.tcp->dst_port);
    if (sink != tcp_sinks_.end()) sink->second(p, payload);
  }
}

}  // namespace zen::sim
