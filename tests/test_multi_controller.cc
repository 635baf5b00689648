// Multi-controller redundancy: role negotiation, slave restrictions, and
// master failover — two independent Controller instances over one fabric.
#include <gtest/gtest.h>

#include "controller/apps/learning_switch.h"
#include "controller/controller.h"
#include "topo/generators.h"

namespace zen::controller {
namespace {

using openflow::ControllerRole;

class DualControllerFixture : public ::testing::Test {
 protected:
  DualControllerFixture()
      : net_(topo::make_linear(2, 2)),
        primary_(net_),
        standby_(net_) {
    primary_app_ = &primary_.add_app<apps::LearningSwitch>();
    standby_app_ = &standby_.add_app<apps::LearningSwitch>();
    primary_.connect_all();
    standby_.connect_all();
    net_.run_until(0.5);

    // Election epoch 1: primary becomes master, standby slave, everywhere.
    primary_.request_role_all(ControllerRole::Master, 1);
    standby_.request_role_all(ControllerRole::Slave, 1);
    net_.run_until(1.0);
  }

  sim::SimHost& host(std::size_t i) {
    return net_.host_at(net_.generated().hosts[i]);
  }

  sim::SimNetwork net_;
  Controller primary_;
  Controller standby_;
  apps::LearningSwitch* primary_app_ = nullptr;
  apps::LearningSwitch* standby_app_ = nullptr;
};

TEST_F(DualControllerFixture, RolesGrantedAndTracked) {
  EXPECT_EQ(primary_.role(1), ControllerRole::Master);
  EXPECT_EQ(primary_.role(2), ControllerRole::Master);
  EXPECT_EQ(standby_.role(1), ControllerRole::Slave);
  EXPECT_EQ(standby_.role(2), ControllerRole::Slave);
}

TEST_F(DualControllerFixture, OnlyMasterReceivesPacketIns) {
  host(0).send_udp(host(3).ip(), 4000, 4001, 64);
  net_.run_until(2.0);
  EXPECT_GT(primary_.stats().packet_ins, 0u);
  EXPECT_EQ(standby_.stats().packet_ins, 0u);
  EXPECT_EQ(host(3).stats().udp_received, 1u);  // master's app forwarded it
}

TEST_F(DualControllerFixture, SlaveModificationsRejected) {
  openflow::FlowMod mod;
  mod.priority = 99;
  mod.match.l4_dst(80);
  mod.instructions = openflow::output_to(1);
  standby_.flow_mod(1, mod);
  net_.run_until(2.0);
  EXPECT_EQ(standby_.stats().errors_received, 1u);
  // The rule did not land (only the master's rules are present).
  const auto stats = net_.switch_at(1).flow_stats(openflow::FlowStatsRequest{}, 0);
  for (const auto& entry : stats.entries) EXPECT_NE(entry.priority, 99);
}

TEST_F(DualControllerFixture, SlaveCanStillReadState) {
  std::optional<openflow::PortStatsReply> reply;
  standby_.request_port_stats(1, openflow::PortStatsRequest{},
                              [&](const openflow::PortStatsReply* r) {
                                if (r) reply = *r;
                              });
  net_.run_until(2.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->entries.empty());
}

TEST_F(DualControllerFixture, SlaveStillSeesPortStatus) {
  struct Watcher : App {
    std::string name() const override { return "watch"; }
    void on_port_status(Dpid, const openflow::PortStatus&) override {
      ++count;
    }
    int count = 0;
  };
  auto& watcher = standby_.add_app<Watcher>();
  const topo::Link* trunk = net_.topology().link_between(1, 2);
  net_.set_link_admin_up(trunk->id, false);
  net_.run_until(2.0);
  EXPECT_GT(watcher.count, 0);
}

TEST_F(DualControllerFixture, FailoverPromotesStandby) {
  // Epoch 2: the standby claims mastership (e.g. after detecting the
  // primary's death). The switch grants it and demotes the old master.
  standby_.request_role_all(ControllerRole::Master, 2);
  net_.run_until(2.0);
  EXPECT_EQ(standby_.role(1), ControllerRole::Master);

  // Datapath now punts to the standby only; its learning switch serves
  // traffic. (The demoted primary's agent filters its PacketIns away.)
  const auto primary_pins = primary_.stats().packet_ins;
  host(0).send_udp(host(3).ip(), 4000, 4001, 64);
  net_.run_until(3.0);
  EXPECT_EQ(host(3).stats().udp_received, 1u);
  EXPECT_GT(standby_.stats().packet_ins, 0u);
  EXPECT_EQ(primary_.stats().packet_ins, primary_pins);
}

TEST_F(DualControllerFixture, StaleGenerationRefused) {
  standby_.request_role_all(ControllerRole::Master, 2);
  net_.run_until(2.0);
  ASSERT_EQ(standby_.role(1), ControllerRole::Master);

  // The old primary tries to re-assert mastership with a stale epoch.
  bool accepted = true;
  primary_.request_role(1, ControllerRole::Master, 1,
                        [&](const openflow::RoleReply* reply) {
                          accepted = reply && reply->accepted;
                        });
  net_.run_until(3.0);
  EXPECT_FALSE(accepted);
  EXPECT_EQ(standby_.role(1), ControllerRole::Master);

  // With a fresh epoch it wins again.
  primary_.request_role(1, ControllerRole::Master, 3);
  net_.run_until(4.0);
  EXPECT_EQ(primary_.role(1), ControllerRole::Master);
}

TEST(RoleCodec, RoundtripRoleMessages) {
  openflow::RoleRequest req;
  req.role = ControllerRole::Master;
  req.generation_id = 0x123456789abcdef0ULL;
  const auto wire = openflow::encode_frame(openflow::Message{req}, 7);
  auto view = openflow::parse_frame(wire);
  ASSERT_TRUE(view.ok());
  auto decoded = openflow::decode_frame(view.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<openflow::RoleRequest>(decoded.value().msg), req);

  openflow::RoleReply reply;
  reply.role = ControllerRole::Slave;
  reply.generation_id = 42;
  reply.accepted = false;
  const auto wire2 = openflow::encode_frame(openflow::Message{reply}, 8);
  auto view2 = openflow::parse_frame(wire2);
  ASSERT_TRUE(view2.ok());
  auto decoded2 = openflow::decode_frame(view2.value());
  ASSERT_TRUE(decoded2.ok());
  EXPECT_EQ(std::get<openflow::RoleReply>(decoded2.value().msg), reply);
}

TEST(SwitchRoles, MasterDemotesPreviousMaster) {
  dataplane::Switch sw(1, {});
  EXPECT_EQ(sw.set_controller_role(1, ControllerRole::Master, 1),
            ControllerRole::Master);
  EXPECT_EQ(sw.set_controller_role(2, ControllerRole::Master, 2),
            ControllerRole::Master);
  EXPECT_EQ(sw.controller_role(1), ControllerRole::Slave);  // demoted
  EXPECT_EQ(sw.controller_role(2), ControllerRole::Master);
  // Stale epoch refused.
  EXPECT_FALSE(sw.set_controller_role(1, ControllerRole::Master, 1).has_value());
  // Equal requests ignore generations.
  EXPECT_EQ(sw.set_controller_role(3, ControllerRole::Equal, 0),
            ControllerRole::Equal);
}

}  // namespace
}  // namespace zen::controller
