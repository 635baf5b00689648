// Metric-name snapshot test: the set of series names a standard learning-
// switch scenario registers IS the dashboard/alerting contract. A rename or
// accidental drop breaks every consumer silently — this test makes it loud.
//
// Runs as its own binary: names register lazily on first use, so sharing a
// process with other tests would make the observed set order-dependent.
// On mismatch the failure message prints the full actual list in literal
// form so the golden below is one paste away from regeneration.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/zen.h"

namespace zen {
namespace {

// Names registered by a linear(3,2) learning-switch run with intents
// enabled and one invariant-monitor sweep. Sorted.
const char* const kGoldenNames[] = {
    "zen_controller_app_packet_ins_total",
    "zen_controller_channel_batch_frames",
    "zen_controller_channel_bytes_total",
    "zen_controller_channel_duplicated_total",
    "zen_controller_channel_flushes_total",
    "zen_controller_channel_lost_total",
    "zen_controller_channel_messages_total",
    "zen_controller_channel_queue_depth",
    "zen_controller_errors_total",
    "zen_controller_flow_mods_total",
    "zen_controller_packet_in_to_flow_mod_us",
    "zen_controller_packet_ins_total",
    "zen_controller_packet_outs_total",
    "zen_controller_retransmits_total",
    "zen_controller_switch_down_total",
    "zen_dataplane_flow_evictions_total",
    "zen_dataplane_lookup_latency_ns",
    "zen_dataplane_megaflow_evictions_total",
    "zen_dataplane_megaflow_hits_total",
    "zen_dataplane_megaflow_misses_total",
    "zen_dataplane_packet_ins_suppressed_total",
    "zen_dataplane_packet_ins_total",
    "zen_dataplane_packets_total",
    "zen_dataplane_table_occupancy",
    "zen_dataplane_table_status_events_total",
    "zen_explain_steps_total",
    "zen_explain_traces_total",
    "zen_invariant_active_violations",
    "zen_invariant_checks_total",
    "zen_invariant_traces_total",
    "zen_invariant_violations_total",
    "zen_sim_events_total",
    "zen_sim_host_frames_received_total",
    "zen_sim_host_frames_sent_total",
    "zen_sim_queue_depth",
    "zen_slo_burn_rate",
    "zen_slo_state",
    "zen_topo_path_engine_hits_total",
    "zen_topo_path_engine_invalidations_total",
    "zen_topo_path_engine_misses_total",
    "zen_topo_path_engine_spf_runs_total",
};

TEST(MetricNames, LearningSwitchScenarioMatchesGolden) {
#ifdef ZEN_OBS_DISABLED
  // Disabled builds still register most names (handles are live, values
  // frozen) but skip data-driven registrations like the SLO gauges; the
  // snapshot is only a contract for the real build.
  GTEST_SKIP();
#endif
  {
    core::Network net = core::Network::linear(3, 2);
    net.add_app<controller::apps::LearningSwitch>();
    intent::IntentManager& intents = net.enable_intents();
    diag::InvariantMonitor& monitor =
        net.add_app<diag::InvariantMonitor>(net.sim(), intents);
    net.start();
    const std::size_t hosts = 6;
    for (int round = 0; round < 2; ++round) {
      for (std::size_t src = 0; src < hosts; ++src)
        for (std::size_t dst = 0; dst < hosts; ++dst)
          if (src != dst)
            net.host(src).send_udp(net.host_ip(dst), 5000, 5001, 128);
      net.run_for(1.0);
    }
    net.run_for(2.0);
    // Give the diag layer real work: one intent, traced end to end.
    intent::IntentSpec spec;
    spec.src = net.host_ip(0);
    spec.dst = net.host_ip(5);
    intents.submit(spec);
    net.run_for(1.0);
    monitor.check();
  }

  std::set<std::string> actual;
  for (const auto& s : obs::MetricsRegistry::global().snapshot().series)
    actual.insert(s.name);

  std::set<std::string> golden(std::begin(kGoldenNames),
                               std::end(kGoldenNames));

  if (actual != golden) {
    std::string listing;
    for (const auto& name : actual)
      listing += "    \"" + name + "\",\n";
    std::string missing, unexpected;
    for (const auto& name : golden)
      if (!actual.count(name)) missing += "  " + name + "\n";
    for (const auto& name : actual)
      if (!golden.count(name)) unexpected += "  " + name + "\n";
    FAIL() << "metric-name surface changed.\n"
           << (missing.empty() ? "" : "missing (renamed/dropped?):\n" + missing)
           << (unexpected.empty() ? "" : "new (update golden + docs):\n" +
                                             unexpected)
           << "full actual list for the golden:\n"
           << listing;
  }

  // Every series obeys the naming scheme zen_<module>_<name>.
  for (const auto& name : actual)
    EXPECT_EQ(name.rfind("zen_", 0), 0u) << name;
}

}  // namespace
}  // namespace zen
