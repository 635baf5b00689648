// SimHost: an end host attached to the simulated network.
//
// Hosts implement just enough of an IP stack to exercise the fabric:
// ARP resolution with a pending-packet queue, ICMP echo reply, UDP/TCP
// receive accounting, and one-way latency measurement via a timestamp the
// sender embeds in the first 8 payload bytes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "net/packet.h"
#include "topo/graph.h"
#include "util/histogram.h"

namespace zen::sim {

class SimNetwork;  // host -> network egress is via callback, see below

struct HostStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t udp_received = 0;
  std::uint64_t tcp_received = 0;
  std::uint64_t icmp_echo_received = 0;
  std::uint64_t icmp_reply_received = 0;
  std::uint64_t arp_requests_answered = 0;
  std::uint64_t unresolved_drops = 0;
  std::uint64_t bytes_received = 0;
};

class SimHost {
 public:
  // `egress` is called (by this host) whenever it emits a frame; the network
  // binds it to the host's access link.
  using EgressFn = std::function<void(net::Bytes frame)>;
  // Clock supplied by the simulator (virtual seconds).
  using ClockFn = std::function<double()>;

  SimHost(topo::NodeId id, net::MacAddress mac, net::Ipv4Address ip);

  void bind(EgressFn egress, ClockFn clock) {
    egress_ = std::move(egress);
    clock_ = std::move(clock);
  }

  topo::NodeId id() const noexcept { return id_; }
  net::MacAddress mac() const noexcept { return mac_; }
  net::Ipv4Address ip() const noexcept { return ip_; }

  // ---- sending ----

  // Sends a UDP datagram of `payload_size` bytes (>= 8; the first 8 carry
  // the send timestamp in nanoseconds for latency measurement).
  // If the destination MAC is unknown, ARP-resolves first and queues the
  // packet (bounded queue; overflow counts as unresolved_drops).
  void send_udp(net::Ipv4Address dst, std::uint16_t src_port,
                std::uint16_t dst_port, std::size_t payload_size);

  // Sends a TCP segment with the given flags (for policy/firewall tests).
  void send_tcp(net::Ipv4Address dst, const net::TcpSpec& spec,
                std::size_t payload_size);

  void send_icmp_echo(net::Ipv4Address dst, std::uint16_t seq);

  // Injects a pre-built frame as-is.
  void send_raw(net::Bytes frame);

  // ---- receiving (called by the network) ----
  // `meta`, when valid, is the fabric's parse of `frame`; a UDP datagram
  // is then taken without parsing again.
  void deliver(const net::Bytes& frame, const net::FrameMeta& meta = {});

  // ---- observability ----
  const HostStats& stats() const noexcept { return stats_; }
  // One-way latency of received timestamped UDP payloads, in microseconds.
  const util::Histogram& latency_us() const noexcept { return latency_us_; }
  bool knows(net::Ipv4Address ip) const { return arp_cache_.contains(ip); }

  // Static ARP entry (skips resolution; used by proactive-routing setups).
  void add_arp_entry(net::Ipv4Address ip, net::MacAddress mac) {
    arp_cache_[ip] = mac;
  }

  // ---- L4 upcalls ----
  // Registers a handler for TCP segments addressed to `local_port`; the
  // transport layer (sim/aimd_flow.h) builds on this. The handler sees the
  // parsed packet and the raw payload bytes.
  using TcpSink =
      std::function<void(const net::ParsedPacket&, std::span<const std::uint8_t>)>;
  void set_tcp_sink(std::uint16_t local_port, TcpSink sink) {
    tcp_sinks_[local_port] = std::move(sink);
  }
  void clear_tcp_sink(std::uint16_t local_port) { tcp_sinks_.erase(local_port); }

 private:
  void resolve_and_send(net::Ipv4Address dst, net::Bytes frame_sans_eth_dst);
  void receive_udp(std::span<const std::uint8_t> payload);
  void emit(net::Bytes frame);
  double now() const { return clock_ ? clock_() : 0; }

  topo::NodeId id_;
  net::MacAddress mac_;
  net::Ipv4Address ip_;
  EgressFn egress_;
  ClockFn clock_;

  std::unordered_map<net::Ipv4Address, net::MacAddress> arp_cache_;
  // Packets awaiting ARP resolution, per destination IP.
  std::unordered_map<net::Ipv4Address, std::deque<net::Bytes>> pending_;
  static constexpr std::size_t kMaxPendingPerDst = 64;

  HostStats stats_;
  util::Histogram latency_us_;
  net::Bytes payload_;  // send-side scratch, reused across datagrams
  std::unordered_map<std::uint16_t, TcpSink> tcp_sinks_;
};

}  // namespace zen::sim
