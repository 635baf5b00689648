// E7 — end-to-end first-packet vs steady-state latency (virtual time).
//
// The canonical reactive-SDN gap: a flow's first packet pays ARP plus
// controller round-trips (milliseconds at our modeled 100 us channel
// latency); established flows forward at dataplane speed (tens of
// microseconds across a fat-tree). Wall time of the benchmark is the
// simulator's cost; the headline numbers are the virtual-time counters:
//   first_us    — latency of the route-triggering packet
//   steady_p50  — median latency once rules are installed
//   gap_x       — first / steady ratio (the figure's punchline)
#include <benchmark/benchmark.h>

#include "core/zen.h"

namespace {

using namespace zen;

void BM_FirstVsSteadyLatency(benchmark::State& state) {
  double first_us = 0, steady_p50 = 0, steady_p99 = 0;
  for (auto _ : state) {
    core::Network net = core::Network::fat_tree(4);
    controller::apps::Discovery::Options disc;
    disc.stop_after_s = 2.0;
    net.add_app<controller::apps::Discovery>(disc);
    net.add_app<controller::apps::L3Routing>();
    net.start();

    auto& dst = net.sim().host_at(net.generated().hosts[15]);
    // First packet: cold path.
    net.host(0).send_udp(net.host_ip(15), 5000, 5001, 128);
    net.run_for(1.0);
    first_us = dst.latency_us().max();

    // Steady state: 200 packets on the installed path.
    for (int i = 0; i < 200; ++i)
      net.host(0).send_udp(net.host_ip(15), 5000, 5001, 128);
    net.run_for(1.0);
    steady_p50 = dst.latency_us().percentile(0.5);
    steady_p99 = dst.latency_us().percentile(0.99);
    benchmark::DoNotOptimize(dst.stats().udp_received);
  }
  state.counters["first_us"] = first_us;
  state.counters["steady_p50_us"] = steady_p50;
  state.counters["steady_p99_us"] = steady_p99;
  state.counters["gap_x"] = steady_p50 > 0 ? first_us / steady_p50 : 0;
}
BENCHMARK(BM_FirstVsSteadyLatency)->Iterations(3)->Unit(benchmark::kMillisecond);

// Same experiment under a slower control channel: the first-packet penalty
// scales with controller RTT while steady state is unaffected — the case
// for proactive rule installation.
void BM_LatencyVsControllerRtt(benchmark::State& state) {
  const double channel_latency_s =
      static_cast<double>(state.range(0)) * 1e-6;
  double first_us = 0, steady_p50 = 0;
  for (auto _ : state) {
    core::Network::Config config;
    config.controller.channel_latency_s = channel_latency_s;
    core::Network net(topo::make_fat_tree(4), config);
    controller::apps::Discovery::Options disc;
    disc.stop_after_s = 2.0;
    net.add_app<controller::apps::Discovery>(disc);
    net.add_app<controller::apps::L3Routing>();
    net.start();

    auto& dst = net.sim().host_at(net.generated().hosts[15]);
    net.host(0).send_udp(net.host_ip(15), 5000, 5001, 128);
    net.run_for(1.5);
    first_us = dst.latency_us().max();
    for (int i = 0; i < 100; ++i)
      net.host(0).send_udp(net.host_ip(15), 5000, 5001, 128);
    net.run_for(1.0);
    steady_p50 = dst.latency_us().percentile(0.5);
    benchmark::DoNotOptimize(dst.stats().udp_received);
  }
  state.counters["ctrl_rtt_us"] = channel_latency_s * 2e6;
  state.counters["first_us"] = first_us;
  state.counters["steady_p50_us"] = steady_p50;
}
BENCHMARK(BM_LatencyVsControllerRtt)
    ->Arg(50)
    ->Arg(500)
    ->Arg(5000)
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

// Simulator throughput: how many simulated packet-hops per wall second the
// substrate sustains (bounds every other scenario's cost).
void BM_SimulatorPacketRate(benchmark::State& state) {
  core::Network net = core::Network::fat_tree(4);
  controller::apps::Discovery::Options disc;
  disc.stop_after_s = 2.0;
  net.add_app<controller::apps::Discovery>(disc);
  net.add_app<controller::apps::L3Routing>();
  net.start();
  net.host(0).send_udp(net.host_ip(15), 5000, 5001, 128);
  net.run_for(1.0);  // warm route

  for (auto _ : state) {
    net.host(0).send_udp(net.host_ip(15), 5000, 5001, 128);
    net.run_for(0.001);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorPacketRate);

// Megaflow-miss forwarding: the same warm-route fabric driven with
// all-pairs bursts whose rotating source ports give every burst fresh
// flows, so each hop runs the full pipeline. The threads:1 name is kept
// from E19 (the retired sharded engine's scaling baseline) so the gate
// and its history line up.
void BM_ParallelPacketRate(benchmark::State& state) {
  core::Network net(topo::make_fat_tree(4));
  controller::apps::Discovery::Options disc;
  disc.stop_after_s = 2.0;
  net.add_app<controller::apps::Discovery>(disc);
  controller::apps::L3Routing::Options routing;
  routing.use_ecmp_groups = true;
  net.add_app<controller::apps::L3Routing>(routing);
  net.start();
  // Warm every host pair's route so the timed region measures forwarding,
  // not controller round-trips.
  for (int i = 0; i < 16; ++i)
    net.host(i).send_udp(net.host_ip(15 - i), 5000, 5001, 128);
  net.run_for(2.0);

  std::uint16_t sport = 10000;
  for (auto _ : state) {
    ++sport;
    for (int i = 0; i < 16; ++i)
      net.host(i).send_udp(net.host_ip(15 - i), sport, 5001, 128);
    net.run_for(0.001);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ParallelPacketRate)->ArgName("threads")->Arg(1);

}  // namespace
