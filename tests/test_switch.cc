#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <string>

#include "dataplane/switch.h"
#include "net/checksum.h"
#include "net/headers.h"
#include "net/packet.h"
#include "net/telemetry.h"
#include "telemetry/switch_telemetry.h"
#include "util/rng.h"

namespace zen::dataplane {
namespace {

using net::Ipv4Address;
using net::MacAddress;
using openflow::Match;

constexpr MacAddress kSrcMac = MacAddress({0x02, 0, 0, 0, 0, 0xa});
constexpr MacAddress kDstMac = MacAddress({0x02, 0, 0, 0, 0, 0xb});
const Ipv4Address kSrcIp(10, 0, 0, 1);
const Ipv4Address kDstIp(10, 0, 0, 2);

Switch make_switch(int n_ports = 4, SwitchConfig config = {}) {
  Switch sw(1, config);
  for (int i = 1; i <= n_ports; ++i) {
    openflow::PortDesc port;
    port.port_no = static_cast<std::uint32_t>(i);
    port.hw_addr = MacAddress::from_u64(static_cast<std::uint64_t>(0x100 + i));
    port.name = std::string("p").append(std::to_string(i));
    sw.add_port(port);
  }
  return sw;
}

net::Bytes udp_frame(std::uint16_t dst_port = 2000) {
  return net::build_ipv4_udp(kSrcMac, kDstMac, kSrcIp, kDstIp, 1000, dst_port,
                             std::vector<std::uint8_t>{1, 2, 3});
}

void install_output_rule(Switch& sw, Match match, std::uint32_t out_port,
                         std::uint16_t priority = 10, std::uint8_t table = 0) {
  openflow::FlowMod mod;
  mod.table_id = table;
  mod.priority = priority;
  mod.match = std::move(match);
  mod.instructions = openflow::output_to(out_port);
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);
}

TEST(Switch, MissWithPacketInBehavior) {
  Switch sw = make_switch();
  const auto result = sw.ingress(0, 1, udp_frame());
  EXPECT_TRUE(result.outputs.empty());
  ASSERT_TRUE(result.packet_in.has_value());
  EXPECT_EQ(result.packet_in->reason, openflow::PacketInReason::NoMatch);
  EXPECT_EQ(result.packet_in->in_port, 1u);
}

TEST(Switch, MissWithDropBehavior) {
  SwitchConfig config;
  config.default_miss = MissBehavior::Drop;
  Switch sw = make_switch(4, config);
  const auto result = sw.ingress(0, 1, udp_frame());
  EXPECT_TRUE(result.dropped);
  EXPECT_FALSE(result.packet_in.has_value());
}

TEST(Switch, BasicUnicastForwarding) {
  Switch sw = make_switch();
  install_output_rule(sw, Match().eth_dst(kDstMac), 3);
  const auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 3u);
  EXPECT_EQ(result.outputs[0].frame, udp_frame());
}

TEST(Switch, FloodExcludesIngress) {
  Switch sw = make_switch(4);
  install_output_rule(sw, Match(), openflow::Ports::kFlood, 1);
  const auto result = sw.ingress(0, 2, udp_frame());
  ASSERT_EQ(result.outputs.size(), 3u);
  for (const auto& egress : result.outputs) EXPECT_NE(egress.port, 2u);
}

TEST(Switch, AllIncludesIngress) {
  Switch sw = make_switch(4);
  install_output_rule(sw, Match(), openflow::Ports::kAll, 1);
  const auto result = sw.ingress(0, 2, udp_frame());
  EXPECT_EQ(result.outputs.size(), 4u);
}

TEST(Switch, FloodSkipsDownPorts) {
  Switch sw = make_switch(4);
  install_output_rule(sw, Match(), openflow::Ports::kFlood, 1);
  ASSERT_TRUE(sw.set_port_link(3, false).has_value());
  const auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 2u);
  for (const auto& egress : result.outputs) EXPECT_NE(egress.port, 3u);
}

TEST(Switch, IngressOnDownPortIsDropped) {
  Switch sw = make_switch();
  install_output_rule(sw, Match(), 2, 1);
  sw.set_port_link(1, false);
  const auto result = sw.ingress(0, 1, udp_frame());
  EXPECT_TRUE(result.dropped);
  EXPECT_TRUE(result.outputs.empty());
}

TEST(Switch, PriorityShadowing) {
  Switch sw = make_switch();
  install_output_rule(sw, Match().eth_type(net::EtherType::kIpv4), 2, 10);
  install_output_rule(sw, Match().eth_type(net::EtherType::kIpv4).l4_dst(2000),
                      3, 20);
  const auto result = sw.ingress(0, 1, udp_frame(2000));
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 3u);

  const auto other = sw.ingress(0, 1, udp_frame(2001));
  ASSERT_EQ(other.outputs.size(), 1u);
  EXPECT_EQ(other.outputs[0].port, 2u);
}

TEST(Switch, MultiTableGotoPipeline) {
  Switch sw = make_switch();
  // Table 0: goto table 1 for IPv4.
  openflow::FlowMod t0;
  t0.table_id = 0;
  t0.priority = 10;
  t0.match.eth_type(net::EtherType::kIpv4);
  t0.instructions = {openflow::GotoTable{1}};
  ASSERT_TRUE(sw.flow_mod(t0, 0).ok);
  // Table 1: output 4.
  install_output_rule(sw, Match(), 4, 1, /*table=*/1);

  const auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 4u);
}

TEST(Switch, WriteActionsExecuteAtPipelineEnd) {
  Switch sw = make_switch();
  openflow::FlowMod t0;
  t0.table_id = 0;
  t0.priority = 10;
  t0.match.eth_type(net::EtherType::kIpv4);
  t0.instructions = {openflow::WriteActions{{openflow::OutputAction{2, 0xffff}}},
                     openflow::GotoTable{1}};
  ASSERT_TRUE(sw.flow_mod(t0, 0).ok);
  // Table 1 rewrites the action set's output.
  openflow::FlowMod t1;
  t1.table_id = 1;
  t1.priority = 10;
  t1.instructions = {openflow::WriteActions{{openflow::OutputAction{3, 0xffff}}}};
  ASSERT_TRUE(sw.flow_mod(t1, 0).ok);

  const auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 3u);  // later write replaced the earlier
}

TEST(Switch, ClearActionsDropsActionSet) {
  Switch sw = make_switch();
  openflow::FlowMod t0;
  t0.table_id = 0;
  t0.priority = 10;
  t0.instructions = {openflow::WriteActions{{openflow::OutputAction{2, 0xffff}}},
                     openflow::GotoTable{1}};
  ASSERT_TRUE(sw.flow_mod(t0, 0).ok);
  openflow::FlowMod t1;
  t1.table_id = 1;
  t1.priority = 10;
  t1.instructions = {openflow::ClearActions{}};
  ASSERT_TRUE(sw.flow_mod(t1, 0).ok);

  const auto result = sw.ingress(0, 1, udp_frame());
  EXPECT_TRUE(result.dropped);
}

TEST(Switch, RewriteActionsPreserveChecksums) {
  Switch sw = make_switch();
  openflow::FlowMod mod;
  mod.table_id = 0;
  mod.priority = 10;
  mod.match.eth_type(net::EtherType::kIpv4);
  mod.instructions = {openflow::ApplyActions{{
      openflow::SetIpv4DstAction{Ipv4Address(99, 98, 97, 96)},
      openflow::SetL4DstAction{4242},
      openflow::DecTtlAction{},
      openflow::OutputAction{2, 0xffff},
  }}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);

  const auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  auto parsed = net::parse_packet(result.outputs[0].frame);
  ASSERT_TRUE(parsed.ok());
  const auto& p = parsed.value();
  ASSERT_TRUE(p.ipv4 && p.udp);
  EXPECT_EQ(p.ipv4->dst, Ipv4Address(99, 98, 97, 96));
  EXPECT_EQ(p.udp->dst_port, 4242);
  EXPECT_EQ(p.ipv4->ttl, 63);

  // IPv4 header checksum must re-verify.
  const auto& frame = result.outputs[0].frame;
  std::span<const std::uint8_t> ip_hdr{frame.data() + net::EthernetHeader::kSize,
                                       net::Ipv4Header::kMinSize};
  EXPECT_EQ(net::internet_checksum(ip_hdr), 0);
  // UDP checksum over pseudo-header must re-verify.
  std::span<const std::uint8_t> seg{
      frame.data() + net::EthernetHeader::kSize + net::Ipv4Header::kMinSize,
      frame.size() - net::EthernetHeader::kSize - net::Ipv4Header::kMinSize};
  EXPECT_EQ(net::l4_checksum_ipv4(p.ipv4->src, p.ipv4->dst, net::IpProto::kUdp, seg),
            0);
}

TEST(Switch, VlanPushPop) {
  Switch sw = make_switch();
  openflow::FlowMod push;
  push.table_id = 0;
  push.priority = 10;
  push.match.in_port(1);
  push.instructions = {openflow::ApplyActions{
      {openflow::PushVlanAction{100, 3}, openflow::OutputAction{2, 0xffff}}}};
  ASSERT_TRUE(sw.flow_mod(push, 0).ok);

  const auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  auto parsed = net::parse_packet(result.outputs[0].frame);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.value().vlan);
  EXPECT_EQ(parsed.value().vlan->vid, 100);
  EXPECT_EQ(parsed.value().vlan->pcp, 3);
  ASSERT_TRUE(parsed.value().udp);  // L3/L4 intact under the tag

  // Now pop it on another port.
  openflow::FlowMod pop;
  pop.table_id = 0;
  pop.priority = 10;
  pop.match.in_port(2);
  pop.instructions = {openflow::ApplyActions{
      {openflow::PopVlanAction{}, openflow::OutputAction{3, 0xffff}}}};
  ASSERT_TRUE(sw.flow_mod(pop, 0).ok);
  const auto popped = sw.ingress(0, 2, result.outputs[0].frame);
  ASSERT_EQ(popped.outputs.size(), 1u);
  EXPECT_EQ(popped.outputs[0].frame, udp_frame());
}

TEST(Switch, TtlExpiryDrops) {
  Switch sw = make_switch();
  openflow::FlowMod mod;
  mod.table_id = 0;
  mod.priority = 10;
  mod.instructions = {openflow::ApplyActions{
      {openflow::DecTtlAction{}, openflow::OutputAction{2, 0xffff}}}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);

  // Build a TTL=1 packet by decrementing 63 times... instead craft directly.
  net::Bytes frame = udp_frame();
  frame[net::EthernetHeader::kSize + 8] = 1;  // TTL byte
  // Fix the IPv4 header checksum.
  frame[net::EthernetHeader::kSize + 10] = 0;
  frame[net::EthernetHeader::kSize + 11] = 0;
  const std::uint16_t sum = net::internet_checksum(
      {frame.data() + net::EthernetHeader::kSize, net::Ipv4Header::kMinSize});
  frame[net::EthernetHeader::kSize + 10] = static_cast<std::uint8_t>(sum >> 8);
  frame[net::EthernetHeader::kSize + 11] = static_cast<std::uint8_t>(sum);

  const auto result = sw.ingress(0, 1, frame);
  EXPECT_TRUE(result.dropped);
  EXPECT_TRUE(result.outputs.empty());
}

TEST(Switch, GroupAllReplicates) {
  Switch sw = make_switch();
  openflow::GroupMod gm;
  gm.command = openflow::GroupModCommand::Add;
  gm.type = openflow::GroupType::All;
  gm.group_id = 1;
  gm.buckets = {openflow::Bucket{1, openflow::Ports::kAny, {openflow::OutputAction{2, 0xffff}}},
                openflow::Bucket{1, openflow::Ports::kAny, {openflow::OutputAction{3, 0xffff}}}};
  ASSERT_TRUE(sw.group_mod(gm).ok);

  openflow::FlowMod mod;
  mod.table_id = 0;
  mod.priority = 10;
  mod.instructions = {openflow::ApplyActions{{openflow::GroupAction{1}}}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);

  const auto result = sw.ingress(0, 1, udp_frame());
  EXPECT_EQ(result.outputs.size(), 2u);
}

TEST(Switch, GroupSelectIsDeterministicPerFlow) {
  Switch sw = make_switch();
  openflow::GroupMod gm;
  gm.command = openflow::GroupModCommand::Add;
  gm.type = openflow::GroupType::Select;
  gm.group_id = 1;
  gm.buckets = {openflow::Bucket{1, openflow::Ports::kAny, {openflow::OutputAction{2, 0xffff}}},
                openflow::Bucket{1, openflow::Ports::kAny, {openflow::OutputAction{3, 0xffff}}}};
  ASSERT_TRUE(sw.group_mod(gm).ok);
  openflow::FlowMod mod;
  mod.table_id = 0;
  mod.priority = 10;
  mod.instructions = {openflow::ApplyActions{{openflow::GroupAction{1}}}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);

  // Same flow always picks the same bucket.
  const auto first = sw.ingress(0, 1, udp_frame(5000));
  ASSERT_EQ(first.outputs.size(), 1u);
  for (int i = 0; i < 5; ++i) {
    const auto again = sw.ingress(0, 1, udp_frame(5000));
    ASSERT_EQ(again.outputs.size(), 1u);
    EXPECT_EQ(again.outputs[0].port, first.outputs[0].port);
  }

  // Across many flows, both buckets get used.
  std::set<std::uint32_t> ports_used;
  for (std::uint16_t port = 1; port <= 64; ++port) {
    const auto result = sw.ingress(0, 1, udp_frame(port));
    ASSERT_EQ(result.outputs.size(), 1u);
    ports_used.insert(result.outputs[0].port);
  }
  EXPECT_EQ(ports_used.size(), 2u);
}

TEST(Switch, GroupModValidation) {
  Switch sw = make_switch();
  openflow::GroupMod gm;
  gm.command = openflow::GroupModCommand::Modify;
  gm.group_id = 9;
  EXPECT_FALSE(sw.group_mod(gm).ok);  // modify missing

  gm.command = openflow::GroupModCommand::Add;
  gm.type = openflow::GroupType::Select;
  gm.buckets = {openflow::Bucket{0, openflow::Ports::kAny, {}}};
  EXPECT_FALSE(sw.group_mod(gm).ok);  // zero total weight

  gm.type = openflow::GroupType::All;
  gm.buckets = {openflow::Bucket{1, openflow::Ports::kAny, {openflow::OutputAction{2, 0xffff}}}};
  EXPECT_TRUE(sw.group_mod(gm).ok);
  EXPECT_FALSE(sw.group_mod(gm).ok);  // duplicate add
}

TEST(Switch, MeterLimitsRate) {
  Switch sw = make_switch();
  openflow::MeterMod mm;
  mm.command = openflow::MeterModCommand::Add;
  mm.meter_id = 1;
  mm.rate_kbps = 8;  // 1000 bytes/s
  mm.burst_kbits = 8;  // 1000 byte bucket
  ASSERT_TRUE(sw.meter_mod(mm).ok);

  openflow::FlowMod mod;
  mod.table_id = 0;
  mod.priority = 10;
  mod.instructions = {openflow::MeterInstruction{1},
                      openflow::ApplyActions{{openflow::OutputAction{2, 0xffff}}}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);

  const net::Bytes frame = udp_frame();  // ~45 bytes
  int forwarded = 0, dropped = 0;
  for (int i = 0; i < 100; ++i) {
    const auto result = sw.ingress(0.0, 1, frame);
    if (result.dropped) ++dropped;
    else ++forwarded;
  }
  // Bucket of 1000 bytes at t=0: roughly 1000/45 ≈ 22 packets pass.
  EXPECT_GT(forwarded, 15);
  EXPECT_LT(forwarded, 30);
  EXPECT_GT(dropped, 60);

  // After a second, tokens refill.
  const auto later = sw.ingress(1.0, 1, frame);
  EXPECT_FALSE(later.dropped);
}

TEST(Switch, MeterRefusalSkipsLaterTables) {
  // A table-0 meter ahead of goto table 1. A refused packet still credits
  // the table-0 entry, but the walk ends at the meter: table 1 is neither
  // looked up nor credited. The cache is off so every packet is classified.
  Switch sw = make_switch(4, SwitchConfig{.cache_enabled = false});
  openflow::MeterMod mm;
  mm.command = openflow::MeterModCommand::Add;
  mm.meter_id = 1;
  mm.rate_kbps = 8;    // 1000 bytes/s
  mm.burst_kbits = 8;  // 1000-byte bucket
  ASSERT_TRUE(sw.meter_mod(mm).ok);
  openflow::FlowMod mod;
  mod.table_id = 0;
  mod.priority = 10;
  mod.instructions = {openflow::MeterInstruction{1}, openflow::GotoTable{1}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);
  install_output_rule(sw, Match(), 2, 10, 1);
  const FlowEntry& first = *sw.table(0).entries().front();
  const FlowEntry& second = *sw.table(1).entries().front();

  // Drain the bucket at t=0; a passing packet is looked up in both tables.
  const net::Bytes frame = udp_frame();
  ForwardResult result = sw.ingress(0.0, 1, frame);
  ASSERT_FALSE(result.dropped);
  EXPECT_EQ(sw.table(1).lookup_count(), 1u);
  for (int i = 0; i < 100 && !result.dropped; ++i)
    result = sw.ingress(0.0, 1, frame);
  ASSERT_TRUE(result.dropped);

  const std::uint64_t first_packets = first.packet_count;
  const std::uint64_t second_packets = second.packet_count;
  const std::uint64_t second_lookups = sw.table(1).lookup_count();
  const std::uint64_t second_matches = sw.table(1).matched_count();
  result = sw.ingress(0.0, 1, frame);
  EXPECT_TRUE(result.dropped);
  EXPECT_TRUE(result.outputs.empty());
  EXPECT_EQ(first.packet_count, first_packets + 1);
  EXPECT_EQ(second.packet_count, second_packets);
  EXPECT_EQ(sw.table(1).lookup_count(), second_lookups);
  EXPECT_EQ(sw.table(1).matched_count(), second_matches);
}

TEST(Switch, BundleRollbackKeepsTableReferencesValid) {
  // A failing bundle restores each table in place: a reference taken
  // before the commit still names the live table and reads the restored
  // rules.
  Switch sw = make_switch(4, SwitchConfig{.table_capacity = 2});
  install_output_rule(sw, Match().eth_dst(kDstMac), 2);
  FlowTable& table = sw.table(0);
  const FlowTable* const before = &table;

  std::vector<openflow::Message> members;
  for (const std::uint32_t port : {3u, 4u}) {
    openflow::FlowMod add;
    add.priority = 20;
    add.match.in_port(port);
    add.instructions = openflow::output_to(1);
    members.emplace_back(add);
  }
  const ModStatus status = sw.commit_bundle(members, 0);
  ASSERT_FALSE(status.ok);  // the second Add overflows the table
  EXPECT_EQ(status.error_code, openflow::flow_mod_failed_code::kTableFull);

  ASSERT_EQ(&sw.table(0), before);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.contains(Match().eth_dst(kDstMac), 10));
  EXPECT_FALSE(table.contains(Match().in_port(3), 20));
}

TEST(Switch, PuntToControllerWithBuffering) {
  Switch sw = make_switch();
  openflow::FlowMod mod;
  mod.table_id = 0;
  mod.priority = 10;
  mod.instructions = {openflow::ApplyActions{
      {openflow::OutputAction{openflow::Ports::kController, 64}}}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);

  const net::Bytes frame = udp_frame();
  const auto result = sw.ingress(0, 1, frame);
  ASSERT_TRUE(result.packet_in.has_value());
  EXPECT_EQ(result.packet_in->reason, openflow::PacketInReason::Action);
  EXPECT_NE(result.packet_in->buffer_id, openflow::kNoBuffer);
  EXPECT_EQ(result.packet_in->total_len, frame.size());
  EXPECT_LE(result.packet_in->data.size(), 64u);

  // PacketOut by buffer id forwards the full original frame.
  openflow::PacketOut out;
  out.buffer_id = result.packet_in->buffer_id;
  out.in_port = 1;
  out.actions = {openflow::OutputAction{2, 0xffff}};
  const auto sent = sw.packet_out(0, out);
  ASSERT_EQ(sent.outputs.size(), 1u);
  EXPECT_EQ(sent.outputs[0].frame, frame);
}

TEST(Switch, PacketOutWithInlineData) {
  Switch sw = make_switch();
  openflow::PacketOut out;
  out.in_port = openflow::Ports::kController;
  out.actions = {openflow::OutputAction{openflow::Ports::kFlood, 0xffff}};
  out.data = udp_frame();
  const auto result = sw.packet_out(0, out);
  EXPECT_EQ(result.outputs.size(), 4u);  // flood from controller: all ports
}

TEST(Switch, PacketOutToTableRunsPipeline) {
  Switch sw = make_switch();
  install_output_rule(sw, Match().eth_dst(kDstMac), 3);
  openflow::PacketOut out;
  out.in_port = 1;
  out.actions = {openflow::OutputAction{openflow::Ports::kTable, 0xffff}};
  out.data = udp_frame();
  const auto result = sw.packet_out(0, out);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 3u);
}

TEST(Switch, MegaflowCacheHitsAfterFirstPacket) {
  Switch sw = make_switch();
  install_output_rule(sw, Match().eth_type(net::EtherType::kIpv4), 2);
  ASSERT_EQ(sw.cache().size(), 0u);
  sw.ingress(0, 1, udp_frame());
  EXPECT_EQ(sw.cache().size(), 1u);
  EXPECT_EQ(sw.cache().hits(), 0u);
  for (int i = 0; i < 10; ++i) sw.ingress(0, 1, udp_frame());
  EXPECT_EQ(sw.cache().hits(), 10u);
  // Flow table saw exactly one lookup (the first packet).
  EXPECT_EQ(sw.table(0).lookup_count(), 1u);
}

TEST(Switch, CacheCreditsEntryStats) {
  Switch sw = make_switch();
  install_output_rule(sw, Match().eth_type(net::EtherType::kIpv4), 2);
  for (int i = 0; i < 5; ++i) sw.ingress(0, 1, udp_frame());
  const auto stats = sw.flow_stats(openflow::FlowStatsRequest{}, 0);
  ASSERT_EQ(stats.entries.size(), 1u);
  EXPECT_EQ(stats.entries[0].packet_count, 5u);
  EXPECT_EQ(stats.entries[0].byte_count, 5 * udp_frame().size());
}

TEST(Switch, CreditsCountTheRewrittenPacket) {
  // Table 0 pushes a VLAN tag and goes to table 1, whose entry drops. The
  // verdict is cacheable, and cached or not, table 1 credits the tagged
  // packet (4 bytes longer) and table 0 the packet as it arrived.
  for (const bool cache : {true, false}) {
    Switch sw = make_switch(4, SwitchConfig{.cache_enabled = cache});
    openflow::FlowMod push;
    push.priority = 10;
    push.instructions = {
        openflow::ApplyActions{{openflow::PushVlanAction{100, 0}}},
        openflow::GotoTable{1}};
    ASSERT_TRUE(sw.flow_mod(push, 0).ok);
    openflow::FlowMod drop;
    drop.table_id = 1;
    drop.priority = 10;
    ASSERT_TRUE(sw.flow_mod(drop, 0).ok);

    for (int i = 0; i < 3; ++i) EXPECT_TRUE(sw.ingress(0, 1, udp_frame()).dropped);
    EXPECT_EQ(sw.cache().size(), cache ? 1u : 0u);
    const std::size_t size = udp_frame().size();
    EXPECT_EQ(sw.table(0).entries().front()->byte_count, 3 * size);
    EXPECT_EQ(sw.table(1).entries().front()->byte_count, 3 * (size + 4));
  }
}

TEST(Switch, CacheInvalidatedByFlowMod) {
  Switch sw = make_switch();
  install_output_rule(sw, Match().eth_type(net::EtherType::kIpv4), 2);
  sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(sw.cache().size(), 1u);

  // Install a higher-priority rule redirecting to port 3.
  install_output_rule(sw, Match().eth_type(net::EtherType::kIpv4), 3, 50);
  const auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 3u);  // stale verdict not served
}

TEST(Switch, CacheDisabledStillForwards) {
  SwitchConfig config;
  config.cache_enabled = false;
  Switch sw = make_switch(4, config);
  install_output_rule(sw, Match().eth_type(net::EtherType::kIpv4), 2);
  for (int i = 0; i < 5; ++i) {
    const auto result = sw.ingress(0, 1, udp_frame());
    ASSERT_EQ(result.outputs.size(), 1u);
  }
  EXPECT_EQ(sw.cache().size(), 0u);
  EXPECT_EQ(sw.table(0).lookup_count(), 5u);
}

TEST(Switch, RewritingVerdictsAreNotCached) {
  Switch sw = make_switch();
  openflow::FlowMod mod;
  mod.table_id = 0;
  mod.priority = 10;
  mod.instructions = {openflow::ApplyActions{
      {openflow::SetIpDscpAction{5}, openflow::OutputAction{2, 0xffff}}}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);
  sw.ingress(0, 1, udp_frame());
  EXPECT_EQ(sw.cache().size(), 0u);
  // Every packet still gets the rewrite.
  const auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  auto parsed = net::parse_packet(result.outputs[0].frame);
  EXPECT_EQ(parsed.value().ipv4->dscp, 5);
}

TEST(Switch, FlowRemovedOnDelete) {
  Switch sw = make_switch();
  openflow::FlowMod add;
  add.table_id = 0;
  add.priority = 7;
  add.cookie = 0xc0de;
  add.flags = openflow::kFlagSendFlowRemoved;
  add.match.l4_dst(80);
  add.instructions = openflow::output_to(2);
  ASSERT_TRUE(sw.flow_mod(add, 0).ok);

  openflow::FlowMod del;
  del.table_id = 0;
  del.command = openflow::FlowModCommand::Delete;
  std::vector<openflow::FlowRemoved> removed;
  ASSERT_TRUE(sw.flow_mod(del, 1, &removed).ok);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].cookie, 0xc0deULL);
  EXPECT_EQ(removed[0].reason, openflow::FlowRemovedReason::Delete);
}

TEST(Switch, ExpireFlowsEmitsEvents) {
  Switch sw = make_switch();
  openflow::FlowMod add;
  add.table_id = 0;
  add.priority = 7;
  add.idle_timeout = 2;
  add.flags = openflow::kFlagSendFlowRemoved;
  add.match.l4_dst(80);
  add.instructions = openflow::output_to(2);
  ASSERT_TRUE(sw.flow_mod(add, 0).ok);

  EXPECT_TRUE(sw.expire_flows(1.0).empty());
  const auto events = sw.expire_flows(3.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].reason, openflow::FlowRemovedReason::IdleTimeout);
  EXPECT_EQ(sw.table(0).size(), 0u);
}

TEST(Switch, FlowModBadTableRejected) {
  Switch sw = make_switch();
  openflow::FlowMod mod;
  mod.table_id = 40;  // only 4 tables
  const auto status = sw.flow_mod(mod, 0);
  EXPECT_FALSE(status.ok);
  EXPECT_EQ(status.error_type, openflow::ErrorType::FlowModFailed);
}

TEST(Switch, StatsRequestsFilter) {
  Switch sw = make_switch();
  install_output_rule(sw, Match().eth_type(net::EtherType::kIpv4)
                              .ipv4_dst(Ipv4Address(10, 0, 0, 2), 32),
                      2);
  install_output_rule(sw, Match().eth_type(net::EtherType::kArp), 3);

  openflow::FlowStatsRequest req;
  req.match = Match().eth_type(net::EtherType::kIpv4);
  const auto reply = sw.flow_stats(req, 0);
  ASSERT_EQ(reply.entries.size(), 1u);

  const auto all = sw.flow_stats(openflow::FlowStatsRequest{}, 0);
  EXPECT_EQ(all.entries.size(), 2u);
}

TEST(Switch, PortCountersTrackTraffic) {
  Switch sw = make_switch();
  install_output_rule(sw, Match().eth_type(net::EtherType::kIpv4), 2);
  const net::Bytes frame = udp_frame();
  sw.ingress(0, 1, frame);
  sw.ingress(0, 1, frame);

  const auto stats = sw.port_stats(openflow::PortStatsRequest{});
  ASSERT_EQ(stats.entries.size(), 4u);
  for (const auto& entry : stats.entries) {
    if (entry.port_no == 1) {
      EXPECT_EQ(entry.rx_packets, 2u);
      EXPECT_EQ(entry.rx_bytes, 2 * frame.size());
    }
    if (entry.port_no == 2) {
      EXPECT_EQ(entry.tx_packets, 2u);
    }
  }
}

TEST(Switch, TableStats) {
  Switch sw = make_switch();
  install_output_rule(sw, Match().eth_type(net::EtherType::kIpv4), 2);
  sw.ingress(0, 1, udp_frame());
  const auto stats = sw.table_stats();
  ASSERT_EQ(stats.entries.size(), 4u);
  EXPECT_EQ(stats.entries[0].active_count, 1u);
  EXPECT_EQ(stats.entries[0].lookup_count, 1u);
  EXPECT_EQ(stats.entries[0].matched_count, 1u);
}

TEST(Switch, MalformedFrameDropped) {
  Switch sw = make_switch();
  install_output_rule(sw, Match(), 2, 1);
  const net::Bytes junk = {1, 2, 3};
  const auto result = sw.ingress(0, 1, junk);
  EXPECT_TRUE(result.dropped);
}

}  // namespace
}  // namespace zen::dataplane

namespace zen::dataplane {
namespace {

TEST(SwitchFastFailover, UsesFirstLiveBucket) {
  Switch sw = make_switch();
  openflow::GroupMod gm;
  gm.command = openflow::GroupModCommand::Add;
  gm.type = openflow::GroupType::FastFailover;
  gm.group_id = 1;
  gm.buckets = {
      openflow::Bucket{1, 2, {openflow::OutputAction{2, 0xffff}}},
      openflow::Bucket{1, 3, {openflow::OutputAction{3, 0xffff}}},
  };
  ASSERT_TRUE(sw.group_mod(gm).ok);
  openflow::FlowMod mod;
  mod.priority = 10;
  mod.instructions = {openflow::ApplyActions{{openflow::GroupAction{1}}}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);

  // Primary port up: bucket 1.
  auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 2u);

  // Primary down: instant local failover to bucket 2, no rule change.
  sw.set_port_link(2, false);
  result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 3u);

  // Both down: drop.
  sw.set_port_link(3, false);
  result = sw.ingress(0, 1, udp_frame());
  EXPECT_TRUE(result.dropped);

  // Primary repaired: revert (revertive protection).
  sw.set_port_link(2, true);
  result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 2u);
}

TEST(SwitchFastFailover, CachedVerdictInvalidatedByPortFlap) {
  Switch sw = make_switch();
  openflow::GroupMod gm;
  gm.command = openflow::GroupModCommand::Add;
  gm.type = openflow::GroupType::FastFailover;
  gm.group_id = 1;
  gm.buckets = {
      openflow::Bucket{1, 2, {openflow::OutputAction{2, 0xffff}}},
      openflow::Bucket{1, 3, {openflow::OutputAction{3, 0xffff}}},
  };
  ASSERT_TRUE(sw.group_mod(gm).ok);
  openflow::FlowMod mod;
  mod.priority = 10;
  mod.instructions = {openflow::ApplyActions{{openflow::GroupAction{1}}}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);

  // Warm the megaflow cache on the primary.
  for (int i = 0; i < 3; ++i) sw.ingress(0, 1, udp_frame());
  EXPECT_GT(sw.cache().hits(), 0u);

  // Port flap must not serve the stale cached primary verdict.
  sw.set_port_link(2, false);
  const auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 3u);
}

TEST(SwitchFastFailover, WatchAnyIsAlwaysLive) {
  Switch sw = make_switch();
  openflow::GroupMod gm;
  gm.command = openflow::GroupModCommand::Add;
  gm.type = openflow::GroupType::FastFailover;
  gm.group_id = 1;
  gm.buckets = {
      openflow::Bucket{1, openflow::Ports::kAny,
                       {openflow::OutputAction{4, 0xffff}}},
  };
  ASSERT_TRUE(sw.group_mod(gm).ok);
  openflow::FlowMod mod;
  mod.priority = 10;
  mod.instructions = {openflow::ApplyActions{{openflow::GroupAction{1}}}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);
  const auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 4u);
}

}  // namespace
}  // namespace zen::dataplane

namespace zen::dataplane {
namespace {

TEST(SwitchPacketInLimit, SuppressesExcessPunts) {
  SwitchConfig config;
  config.default_miss = MissBehavior::PacketIn;
  config.packet_in_rate_pps = 100;  // burst bucket = 10
  Switch sw = make_switch(4, config);

  int punts = 0;
  for (int i = 0; i < 100; ++i) {
    const auto result = sw.ingress(0.0, 1, udp_frame());  // all at t=0
    if (result.packet_in) ++punts;
  }
  EXPECT_LE(punts, 11);
  EXPECT_GE(punts, 9);
  EXPECT_EQ(sw.packet_in_suppressed(), 100u - static_cast<unsigned>(punts));

  // Tokens refill over time: a punt goes through again later.
  const auto later = sw.ingress(1.0, 1, udp_frame());
  EXPECT_TRUE(later.packet_in.has_value());
}

TEST(SwitchPacketInLimit, UnlimitedByDefault) {
  Switch sw = make_switch();
  for (int i = 0; i < 200; ++i) {
    const auto result = sw.ingress(0.0, 1, udp_frame());
    ASSERT_TRUE(result.packet_in.has_value());
  }
  EXPECT_EQ(sw.packet_in_suppressed(), 0u);
}

}  // namespace
}  // namespace zen::dataplane

namespace zen::dataplane {
namespace {

TEST(SwitchV6, ForwardsByIpv6Prefix) {
  Switch sw = make_switch();
  openflow::FlowMod mod;
  mod.priority = 10;
  mod.match.eth_type(net::EtherType::kIpv6)
      .ipv6_dst(*net::Ipv6Address::parse("2001:db8:1::"), 48);
  mod.instructions = openflow::output_to(3);
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);

  const net::Bytes inside = net::build_ipv6_udp(
      kSrcMac, kDstMac, *net::Ipv6Address::parse("fe80::1"),
      *net::Ipv6Address::parse("2001:db8:1::42"), 1000, 2000,
      std::vector<std::uint8_t>(8, 0));
  const auto hit = sw.ingress(0, 1, inside);
  ASSERT_EQ(hit.outputs.size(), 1u);
  EXPECT_EQ(hit.outputs[0].port, 3u);

  const net::Bytes outside = net::build_ipv6_udp(
      kSrcMac, kDstMac, *net::Ipv6Address::parse("fe80::1"),
      *net::Ipv6Address::parse("2001:db8:2::42"), 1000, 2000,
      std::vector<std::uint8_t>(8, 0));
  const auto miss = sw.ingress(0, 1, outside);
  EXPECT_TRUE(miss.outputs.empty());  // falls to table-miss punt
}

TEST(SwitchV6, MegaflowCachesV6Flows) {
  Switch sw = make_switch();
  openflow::FlowMod mod;
  mod.priority = 10;
  mod.match.eth_type(net::EtherType::kIpv6);
  mod.instructions = openflow::output_to(2);
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);

  const net::Bytes frame = net::build_ipv6_udp(
      kSrcMac, kDstMac, *net::Ipv6Address::parse("2001:db8::1"),
      *net::Ipv6Address::parse("2001:db8::2"), 1, 2,
      std::vector<std::uint8_t>(8, 0));
  for (int i = 0; i < 5; ++i) sw.ingress(0, 1, frame);
  EXPECT_EQ(sw.cache().hits(), 4u);

  // A different v6 destination is a different cache key.
  const net::Bytes other = net::build_ipv6_udp(
      kSrcMac, kDstMac, *net::Ipv6Address::parse("2001:db8::1"),
      *net::Ipv6Address::parse("2001:db8::3"), 1, 2,
      std::vector<std::uint8_t>(8, 0));
  sw.ingress(0, 1, other);
  EXPECT_EQ(sw.cache().size(), 2u);
}

// ---- owning hot path vs. the copying span path ----
//
// Two identically configured switches: `hot` takes each frame the way the
// simulator hands it on (owned bytes plus the previous hop's parse), the
// oracle through the copying span ingress(), which parses afresh. Their
// verdicts must match, every parse an egress carries on must be the parse
// of its bytes, and next-hop switches fed from either side must agree.

net::Bytes sized_udp_frame(std::size_t payload, std::uint16_t dst_port = 2000) {
  return net::build_ipv4_udp(kSrcMac, kDstMac, kSrcIp, kDstIp, 1000, dst_port,
                             std::vector<std::uint8_t>(payload, 0x5a));
}

// The parse a previous hop would hand on (taken there on another port).
net::FrameMeta upstream_meta(const net::Bytes& frame) {
  const auto parsed = net::parse_packet(frame);
  return parsed.ok() ? net::FrameMeta::of(parsed.value(), 99) : net::FrameMeta{};
}

ForwardResult owning_ingress(Switch& sw, std::uint32_t in_port,
                             const net::Bytes& frame,
                             const net::FrameMeta& meta) {
  ForwardResult out;
  sw.ingress(0, in_port, net::Bytes(frame), meta, out);
  return out;
}

void expect_same_verdict(const ForwardResult& hot, const ForwardResult& oracle) {
  EXPECT_EQ(hot.dropped, oracle.dropped);
  EXPECT_EQ(hot.in_port, oracle.in_port);
  EXPECT_EQ(hot.packet_in, oracle.packet_in);
  ASSERT_EQ(hot.outputs.size(), oracle.outputs.size());
  for (std::size_t i = 0; i < hot.outputs.size(); ++i) {
    const Egress& a = hot.outputs[i];
    const Egress& b = oracle.outputs[i];
    EXPECT_EQ(a.port, b.port);
    EXPECT_EQ(a.queue_id, b.queue_id);
    EXPECT_EQ(a.frame, b.frame);
    EXPECT_EQ(a.meta.valid, b.meta.valid);
    if (a.meta.valid && b.meta.valid) {
      EXPECT_EQ(a.meta.key, b.meta.key);
      EXPECT_EQ(a.meta.payload_offset, b.meta.payload_offset);
    }
    if (a.meta.valid) {
      const auto parsed = net::parse_packet(a.frame);
      ASSERT_TRUE(parsed.ok());
      const auto fresh = net::FrameMeta::of(parsed.value(), a.meta.key.in_port);
      EXPECT_EQ(a.meta.key, fresh.key);
      EXPECT_EQ(a.meta.payload_offset, fresh.payload_offset);
    }
  }
}

struct OwningPathRig {
  explicit OwningPathRig(const std::function<void(Switch&)>& configure) {
    configure(hot);
    configure(oracle);
    next_config.default_miss = MissBehavior::Drop;
  }

  // One hop on both switches, then each egress one hop further: the hot
  // side with the parse the egress carries, the oracle side re-parsing.
  ForwardResult hop(std::uint32_t in_port, const net::Bytes& frame,
                    const std::function<void(Switch&)>& configure_next = {}) {
    ForwardResult hot_result =
        owning_ingress(hot, in_port, frame, upstream_meta(frame));
    const ForwardResult oracle_result = oracle.ingress(0, in_port, frame);
    expect_same_verdict(hot_result, oracle_result);
    if (configure_next && hot_result.outputs.size() == oracle_result.outputs.size()) {
      for (std::size_t i = 0; i < hot_result.outputs.size(); ++i) {
        Switch hot_next = make_switch(4, next_config);
        Switch oracle_next = make_switch(4, next_config);
        configure_next(hot_next);
        configure_next(oracle_next);
        const Egress& e = hot_result.outputs[i];
        for (int pass = 0; pass < 2; ++pass) {  // miss, then cached hit
          const ForwardResult a = owning_ingress(hot_next, 1, e.frame, e.meta);
          const ForwardResult b =
              oracle_next.ingress(0, 1, oracle_result.outputs[i].frame);
          expect_same_verdict(a, b);
          downstream_outputs += a.outputs.size();
        }
      }
    }
    return hot_result;
  }

  Switch hot = make_switch();
  Switch oracle = make_switch();
  SwitchConfig next_config;
  std::size_t downstream_outputs = 0;
};

TEST(SwitchOwningPath, FloodAndAllGroupCopyTheFrameToEveryOutput) {
  OwningPathRig rig([](Switch& sw) {
    openflow::GroupMod gm;
    gm.command = openflow::GroupModCommand::Add;
    gm.type = openflow::GroupType::All;
    gm.group_id = 1;
    gm.buckets = {
        openflow::Bucket{1, openflow::Ports::kAny, {openflow::OutputAction{2, 0xffff}}},
        openflow::Bucket{1, openflow::Ports::kAny, {openflow::OutputAction{3, 0xffff}}}};
    ASSERT_TRUE(sw.group_mod(gm).ok);
    openflow::FlowMod to_group;
    to_group.priority = 20;
    to_group.match.eth_type(net::EtherType::kIpv4).ip_proto(net::IpProto::kUdp).l4_dst(2000);
    to_group.instructions = {openflow::ApplyActions{{openflow::GroupAction{1}}}};
    ASSERT_TRUE(sw.flow_mod(to_group, 0).ok);
    install_output_rule(sw, Match(), openflow::Ports::kFlood, 10);
  });
  const auto forward_all = [](Switch& next) {
    install_output_rule(next, Match(), 4);
  };
  for (int i = 0; i < 3; ++i) {  // a miss, then cached hits
    const net::Bytes grouped = sized_udp_frame(40, 2000);
    const ForwardResult g = rig.hop(1, grouped, forward_all);
    ASSERT_EQ(g.outputs.size(), 2u);
    const net::Bytes flooded = sized_udp_frame(40, 2001);
    const ForwardResult f = rig.hop(1, flooded, forward_all);
    ASSERT_EQ(f.outputs.size(), 3u);
    for (const Egress& e : g.outputs) {
      EXPECT_EQ(e.frame, grouped);
      EXPECT_TRUE(e.meta.valid);
    }
    for (const Egress& e : f.outputs) {
      EXPECT_EQ(e.frame, flooded);
      EXPECT_TRUE(e.meta.valid);
    }
  }
  EXPECT_EQ(rig.hot.cache().hits(), 4u);
  EXPECT_EQ(rig.downstream_outputs, 3u * 2u * (2u + 3u));
}

TEST(SwitchOwningPath, PacketInAndBufferCopyTheWholeFrameBeforeItMoves) {
  OwningPathRig rig([](Switch& sw) {
    openflow::FlowMod mod;
    mod.priority = 10;
    mod.instructions = {openflow::ApplyActions{
        {openflow::OutputAction{2, 0xffff},
         openflow::OutputAction{openflow::Ports::kController, 128}}}};
    ASSERT_TRUE(sw.flow_mod(mod, 0).ok);
  });
  const net::Bytes frame = sized_udp_frame(300);  // longer than miss_send_len
  for (int i = 0; i < 3; ++i) {
    const ForwardResult r = rig.hop(1, frame);
    ASSERT_EQ(r.outputs.size(), 1u);
    EXPECT_EQ(r.outputs[0].frame, frame);
    ASSERT_TRUE(r.packet_in.has_value());
    EXPECT_EQ(r.packet_in->total_len, frame.size());
    EXPECT_EQ(r.packet_in->data,
              net::Bytes(frame.begin(),
                         frame.begin() + rig.hot.config().packet_in_bytes));
    // The buffered copy is the full frame.
    openflow::PacketOut out;
    out.buffer_id = r.packet_in->buffer_id;
    out.in_port = 1;
    out.actions = {openflow::OutputAction{3, 0xffff}};
    const ForwardResult sent = rig.hot.packet_out(0, out);
    ASSERT_EQ(sent.outputs.size(), 1u);
    EXPECT_EQ(sent.outputs[0].frame, frame);
  }
  EXPECT_EQ(rig.hot.cache().hits(), 2u);
}

TEST(SwitchOwningPath, RewriteMakesTheNextHopParseAgain) {
  const Ipv4Address backend(10, 0, 9, 9);
  const MacAddress backend_mac = MacAddress::from_u64(0x02000000b00bULL);
  OwningPathRig rig([&](Switch& sw) {
    openflow::FlowMod mod;
    mod.priority = 10;
    mod.match.eth_type(net::EtherType::kIpv4).ipv4_dst(kDstIp);
    mod.instructions = {openflow::ApplyActions{
        {openflow::SetIpv4DstAction{backend},
         openflow::SetEthDstAction{backend_mac},
         openflow::OutputAction{2, 0xffff}}}};
    ASSERT_TRUE(sw.flow_mod(mod, 0).ok);
  });
  // The next hop forwards only what is addressed to the backend, so a
  // stale carried parse (the pre-rewrite VIP) would be dropped there.
  const auto to_backend = [&](Switch& next) {
    install_output_rule(next, Match().eth_type(net::EtherType::kIpv4).ipv4_dst(backend), 3);
  };
  for (int i = 0; i < 3; ++i) {
    const ForwardResult r = rig.hop(1, sized_udp_frame(40), to_backend);
    ASSERT_EQ(r.outputs.size(), 1u);
    EXPECT_FALSE(r.outputs[0].meta.valid);
    const auto parsed = net::parse_packet(r.outputs[0].frame);
    ASSERT_TRUE(parsed.ok() && parsed.value().ipv4);
    EXPECT_EQ(parsed.value().ipv4->dst, backend);
  }
  EXPECT_EQ(rig.downstream_outputs, 3u * 2u);
}

TEST(SwitchOwningPath, TelemetryTrailerMakesTheNextHopParseAgain) {
  telemetry::Options opts;
  opts.enabled = true;
  opts.sample_one_in_n = 1;  // every flow sampled
  telemetry::SwitchTelemetry hot_tel(1, opts);
  telemetry::SwitchTelemetry oracle_tel(1, opts);
  hot_tel.mark_edge_port(1);
  oracle_tel.mark_edge_port(1);
  OwningPathRig rig([](Switch& sw) { install_output_rule(sw, Match(), 2); });
  rig.hot.set_telemetry(&hot_tel);
  rig.oracle.set_telemetry(&oracle_tel);
  const auto forward_all = [](Switch& next) {
    install_output_rule(next, Match(), 4);
  };
  const net::Bytes frame = sized_udp_frame(40);
  for (int i = 0; i < 3; ++i) {
    const ForwardResult r = rig.hop(1, frame, forward_all);
    ASSERT_EQ(r.outputs.size(), 1u);
#ifndef ZEN_OBS_DISABLED
    EXPECT_TRUE(net::has_telemetry_trailer(r.outputs[0].frame));
    EXPECT_FALSE(r.outputs[0].meta.valid);
#endif
  }
  EXPECT_EQ(rig.downstream_outputs, 3u * 2u);
}

// ---- cache transparency ----
//
// The megaflow cache must be invisible: a switch with it and one without,
// fed the same seeded stream of flow/group/meter mods, port flaps, timeout
// sweeps and frames, must agree on every verdict (ports, queues, bytes,
// PacketIns), every mod status and FlowRemoved, and every rule and port
// counter. A stale cached verdict after any state change shows up here.

class CacheOracle {
 public:
  explicit CacheOracle(std::uint64_t seed) : rng_(seed) {}

  // Alternates churn windows with quiet ones (frames and timeout sweeps
  // only), so a verdict left stale by the last change keeps being hit.
  void run(int steps) {
    for (int i = 0; i < steps; ++i) {
      now_ += 0.002;
      const bool quiet = (i / 400) % 2 == 1;
      const std::uint64_t roll = quiet ? 100 : rng_.next_below(100);
      if (roll < 3) flow_mod();
      else if (roll < 5) group_mod();
      else if (roll < 6) meter_mod();
      else if (roll < 7) port_flap();
      else frame();
      if (i % 50 == 0) expire();
      if (i % 25 == 0) compare_counters();
      if (::testing::Test::HasFailure()) return;
    }
    compare_counters();
  }

  const Switch& cached() const { return cached_; }

 private:
  Match random_match() {
    Match m;
    if (rng_.next_bool(0.1)) return m;
    m.eth_type(net::EtherType::kIpv4);
    if (rng_.next_bool(0.3))
      m.in_port(static_cast<std::uint32_t>(1 + rng_.next_below(3)));
    if (rng_.next_bool(0.5)) {
      if (rng_.next_bool(0.5))
        m.ipv4_dst(dst_ip(rng_.next_below(3)));
      else
        m.ipv4_dst(Ipv4Address(10, 0, 0, 0), 24);
    }
    if (rng_.next_bool(0.3))
      m.ip_proto(17).l4_dst(static_cast<std::uint16_t>(2000 + rng_.next_below(2)));
    return m;
  }

  openflow::InstructionList random_instructions(std::uint8_t table) {
    using namespace openflow;
    const auto port = static_cast<std::uint32_t>(1 + rng_.next_below(4));
    switch (rng_.next_below(12)) {
      case 0:
        return output_to(Ports::kFlood);
      case 1:
        return {ApplyActions{{OutputAction{Ports::kController, 64}}}};
      case 2:
        if (table == 0) return {GotoTable{1}};
        return output_to(port);
      case 10:  // act, then continue: a later meter or punt sees it
        if (table == 0)
          return {ApplyActions{{OutputAction{
                      rng_.next_bool(0.5) ? Ports::kController : port, 96}}},
                  GotoTable{1}};
        return output_to(port);
      case 11:
        return {ApplyActions{{OutputAction{port}}},
                MeterInstruction{static_cast<std::uint32_t>(1 + rng_.next_below(2))},
                ApplyActions{{OutputAction{1 + port % 4}}}};
      case 3:
        return {ApplyActions{
            {GroupAction{static_cast<std::uint32_t>(1 + rng_.next_below(3))}}}};
      case 4:
        return {MeterInstruction{static_cast<std::uint32_t>(1 + rng_.next_below(2))},
                ApplyActions{{OutputAction{port}}}};
      case 5:
        return {ApplyActions{{SetQueueAction{1}, OutputAction{port}}}};
      case 6:  // rewriting verdicts are never cached
        return {ApplyActions{
            {SetIpv4DstAction{Ipv4Address(10, 0, 9, 9)}, OutputAction{port}}}};
      case 7:
        return {};  // drop
      case 8:
        return {ApplyActions{{OutputAction{port}}},
                WriteActions{{OutputAction{1 + port % 4}}}};
      default:
        return output_to(port);
    }
  }

  static Ipv4Address dst_ip(std::uint64_t i) {
    return Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(2 + i));
  }

  void flow_mod() {
    using openflow::FlowModCommand;
    openflow::FlowMod mod;
    mod.cookie = ++cookie_;
    mod.table_id = static_cast<std::uint8_t>(rng_.next_below(2));
    mod.priority = static_cast<std::uint16_t>(10 * rng_.next_below(4));
    const std::uint64_t cmd = rng_.next_below(20);
    mod.command = cmd < 12   ? FlowModCommand::Add
                  : cmd < 14 ? FlowModCommand::Modify
                  : cmd < 15 ? FlowModCommand::ModifyStrict
                  : cmd < 18 ? FlowModCommand::Delete
                             : FlowModCommand::DeleteStrict;
    mod.match = random_match();
    mod.instructions = random_instructions(mod.table_id);
    mod.idle_timeout = static_cast<std::uint16_t>(rng_.next_below(3));
    mod.hard_timeout =
        rng_.next_bool(0.4) ? static_cast<std::uint16_t>(1 + rng_.next_below(3)) : 0;
    if (rng_.next_bool(0.7)) mod.flags = openflow::kFlagSendFlowRemoved;
    std::vector<openflow::FlowRemoved> removed_a, removed_b;
    const ModStatus a = cached_.flow_mod(mod, now_, &removed_a);
    const ModStatus b = uncached_.flow_mod(mod, now_, &removed_b);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(removed_a, removed_b);
  }

  void group_mod() {
    using namespace openflow;
    GroupMod gm;
    gm.group_id = static_cast<std::uint32_t>(1 + rng_.next_below(3));
    gm.command = static_cast<GroupModCommand>(rng_.next_below(3));
    gm.type = std::array{GroupType::All, GroupType::Select,
                         GroupType::FastFailover}[rng_.next_below(3)];
    for (std::uint64_t n = 1 + rng_.next_below(2); n > 0; --n) {
      const auto port = static_cast<std::uint32_t>(1 + rng_.next_below(4));
      gm.buckets.push_back(Bucket{1, port, {OutputAction{port}}});
    }
    EXPECT_EQ(cached_.group_mod(gm).ok, uncached_.group_mod(gm).ok);
  }

  void meter_mod() {
    openflow::MeterMod mm;
    mm.meter_id = static_cast<std::uint32_t>(1 + rng_.next_below(2));
    mm.command = static_cast<openflow::MeterModCommand>(rng_.next_below(3));
    mm.rate_kbps = 100 + 100 * rng_.next_below(4);
    mm.burst_kbits = 2 + rng_.next_below(8);
    EXPECT_EQ(cached_.meter_mod(mm).ok, uncached_.meter_mod(mm).ok);
  }

  void port_flap() {
    const auto port = static_cast<std::uint32_t>(1 + rng_.next_below(4));
    const bool up = !cached_.port(port)->link_up;
    EXPECT_EQ(cached_.set_port_link(port, up), uncached_.set_port_link(port, up));
  }

  void expire() {
    EXPECT_EQ(cached_.expire_flows(now_), uncached_.expire_flows(now_));
  }

  void frame() {
    const net::Bytes bytes = net::build_ipv4_udp(
        kSrcMac, kDstMac, rng_.next_bool(0.5) ? kSrcIp : Ipv4Address(10, 0, 0, 5),
        dst_ip(rng_.next_below(3)), 1000,
        static_cast<std::uint16_t>(2000 + rng_.next_below(2)),
        std::vector<std::uint8_t>(rng_.next_bool(0.5) ? 3 : 200, 0x5a));
    const auto in_port = static_cast<std::uint32_t>(1 + rng_.next_below(3));
    const net::FrameMeta meta = upstream_meta(bytes);
    // Explain is the third side: it must predict the uncached ingress.
    const ForwardResult predicted = uncached_.explain(now_, in_port, bytes);
    const std::uint64_t suppressed = uncached_.packet_in_suppressed();
    ForwardResult a, b;
    cached_.ingress(now_, in_port, net::Bytes(bytes), meta, a);
    uncached_.ingress(now_, in_port, net::Bytes(bytes), meta, b);
    expect_predicted(predicted, b,
                     uncached_.packet_in_suppressed() != suppressed);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.in_port, b.in_port);
    EXPECT_EQ(a.packet_in, b.packet_in);
    ASSERT_EQ(a.outputs.size(), b.outputs.size());
    for (std::size_t i = 0; i < a.outputs.size(); ++i) {
      EXPECT_EQ(a.outputs[i].port, b.outputs[i].port);
      EXPECT_EQ(a.outputs[i].queue_id, b.outputs[i].queue_id);
      EXPECT_EQ(a.outputs[i].frame, b.outputs[i].frame);
    }
  }

  // Explain's outputs (port, queue, bytes) are the ingress's; so is its
  // punt, but for the buffer id, unless the rate limiter refused it.
  static void expect_predicted(const ForwardResult& predicted,
                               const ForwardResult& actual,
                               bool punt_suppressed) {
    ASSERT_EQ(predicted.outputs.size(), actual.outputs.size());
    for (std::size_t i = 0; i < actual.outputs.size(); ++i) {
      EXPECT_EQ(predicted.outputs[i].port, actual.outputs[i].port);
      EXPECT_EQ(predicted.outputs[i].queue_id, actual.outputs[i].queue_id);
      EXPECT_EQ(predicted.outputs[i].frame, actual.outputs[i].frame);
    }
    if (punt_suppressed) return;
    EXPECT_EQ(predicted.dropped, actual.dropped);
    ASSERT_EQ(predicted.packet_in.has_value(), actual.packet_in.has_value());
    if (!actual.packet_in) return;
    EXPECT_EQ(predicted.packet_in->reason, actual.packet_in->reason);
    EXPECT_EQ(predicted.packet_in->table_id, actual.packet_in->table_id);
    EXPECT_EQ(predicted.packet_in->cookie, actual.packet_in->cookie);
    EXPECT_EQ(predicted.packet_in->in_port, actual.packet_in->in_port);
    EXPECT_EQ(predicted.packet_in->total_len, actual.packet_in->total_len);
    EXPECT_EQ(predicted.packet_in->data, actual.packet_in->data);
  }

  // Every rule's identity and counters, in a canonical order.
  static std::vector<std::string> rule_counters(const Switch& sw) {
    std::vector<std::string> out;
    for (std::uint8_t t = 0; t < sw.table_count(); ++t) {
      for (const auto& e : sw.table(t).entries()) {
        out.push_back(std::to_string(t) + "/" + std::to_string(e->priority) +
                      "/" + std::to_string(e->cookie) + "/" +
                      std::to_string(std::hash<net::FlowKey>{}(e->match.value())) +
                      "/" + std::to_string(e->packet_count) + "/" +
                      std::to_string(e->byte_count) + "/" +
                      std::to_string(e->last_used_at));
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  void compare_counters() {
    EXPECT_EQ(rule_counters(cached_), rule_counters(uncached_));
    EXPECT_EQ(cached_.port_stats({}), uncached_.port_stats({}));
    EXPECT_EQ(cached_.packet_in_suppressed(), uncached_.packet_in_suppressed());
  }

  util::Rng rng_;
  // A PacketIn rate limit, so suppressed punts take part too.
  Switch cached_ = make_switch(4, SwitchConfig{.packet_in_rate_pps = 100});
  Switch uncached_ = make_switch(
      4, SwitchConfig{.cache_enabled = false, .packet_in_rate_pps = 100});
  double now_ = 0;
  std::uint64_t cookie_ = 0;
};

TEST(CacheTransparency, CachedAndUncachedSwitchesAgreeUnderSeededChurn) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    CacheOracle oracle(seed);
    oracle.run(6000);
    if (HasFailure()) return;
    // Not vacuous: the cached side really served hits between the mods.
    EXPECT_GT(oracle.cached().cache().hits(), 500u);
  }
}

}  // namespace
}  // namespace zen::dataplane
