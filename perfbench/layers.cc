// Benchmark plumbing shared by the workloads: RNG, tracer output, the
// southbound tap, delivery hashing, and the per-layer measurements — counter
// deltas from obs::MetricsRegistry, and replays of each workload's own
// frames and southbound messages through the layers' public functions.
#include <bit>
#include <cinttypes>
#include <cmath>

#include "common.h"

namespace zb {

// ---- inputs ----

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    s = z ^ (z >> 31);
  }
}

std::uint64_t Rng::next() {
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

double Rng::exponential(double mean) { return -mean * std::log1p(-uniform()); }

Zipf::Zipf(std::size_t n, double alpha) : cdf_(n) {
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::next(Rng& rng) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

void Fnv::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ---- tracing ----

const char* span_name(Span s) {
  switch (s) {
    case Span::kRunUntil: return "sim.run_until";
    case Span::kSendUdp: return "sim.send_udp";
    case Span::kTap: return "bench.southbound_tap";
    case Span::kLinkAdmin: return "sim.set_link_admin_up";
    case Span::kPacketOut: return "controller.packet_out";
    case Span::kCount: break;
  }
  return "?";
}

void Tracer::print() const {
  std::printf("spans (benchmark-side, host time):\n");
  std::printf("  %-24s %12s %14s %14s\n", "span", "count", "total_ms", "self_ms");
  for (int i = 0; i < static_cast<int>(Span::kCount); ++i) {
    const Stat& st = stats_[i];
    if (st.count == 0) continue;
    std::printf("  %-24s %12" PRIu64 " %14.3f %14.3f\n",
                span_name(static_cast<Span>(i)), st.count,
                static_cast<double>(st.total_ns) * 1e-6,
                static_cast<double>(st.self_ns) * 1e-6);
  }
}

// ---- southbound tap ----

namespace {
constexpr std::size_t kSampleCap = 20000;
constexpr std::size_t kReplicaModCap = 200000;
}  // namespace

void Capture::attach(core::Network& net, Tracer& tracer, bool capture,
                     topo::NodeId replica_dpid) {
  net_ = &net;
  tracer_ = &tracer;
  capture_ = capture;
  replica_dpid_ = replica_dpid;
  net.controller().set_southbound_tap(
      [this](controller::Dpid dpid, const openflow::Message& msg) {
        on_mod(dpid, msg);
      });
  if (capture_) {
    net.sim().add_datapath_event_handler(
        [this](topo::NodeId sw, openflow::Message msg) { on_event(sw, msg); });
  }
}

void Capture::on_mod(controller::Dpid dpid, const openflow::Message& msg) {
  const std::uint64_t t0 = now_ns();
  tracer_->begin(Span::kTap);
  arena_.clear();
  const auto frame = arena_.append(msg, 0);
  fnv_.u64(dpid);
  fnv_.bytes(frame);
  ++mods_;
  mod_bytes_ += frame.size();
  if (capture_) {
    if (sample.size() < kSampleCap) sample.push_back(msg);
    if (dpid == replica_dpid_ && replica_mods.size() < kReplicaModCap)
      replica_mods.push_back(msg);
    if (std::holds_alternative<openflow::FlowMod>(msg)) {
      auto it = pending_pins_.find(dpid);
      if (it != pending_pins_.end() && !it->second.empty()) {
        pin_to_mod_us.push_back((net_->now() - it->second.front()) * 1e6);
        it->second.erase(it->second.begin());
      }
    }
  }
  tracer_->end();
  tap_ns_ += now_ns() - t0;
}

void Capture::on_event(topo::NodeId sw, const openflow::Message& msg) {
  const std::uint64_t t0 = now_ns();
  tracer_->begin(Span::kTap);
  arena_.clear();
  event_bytes_ += arena_.append(msg, 0).size();
  if (sample.size() < kSampleCap) sample.push_back(msg);
  if (const auto* pin = std::get_if<openflow::PacketIn>(&msg)) {
    const auto parsed = net::parse_packet(pin->data);
    if (parsed.ok() && parsed.value().ipv4) {
      auto& q = pending_pins_[sw];
      // A punt that never gets a FlowMod (flooded, dropped) must not pair
      // with a later, unrelated one.
      if (!q.empty() && net_->now() - q.front() > 0.01) q.clear();
      q.push_back(net_->now());
    }
  }
  tracer_->end();
  tap_ns_ += now_ns() - t0;
}

// ---- deliveries ----

topo::HostAttachment attachment_of(const topo::GeneratedTopo& gen,
                                   topo::NodeId host) {
  for (const auto& att : gen.attachments)
    if (att.host == host) return att;
  throw std::runtime_error("host without attachment");
}

void learn_all_hosts(core::Network& net, const std::vector<sim::SimHost*>& hosts,
                     const char* workload) {
  for (sim::SimHost* h : hosts)
    h->send_raw(net::build_arp_request(h->mac(), h->ip(), h->ip()));
  net.run_for(0.5);
  std::size_t known = 0;
  for (const sim::SimHost* h : hosts) {
    const auto* info = net.controller().view().host_by_ip(h->ip());
    if (info && info->mac == h->mac()) ++known;
  }
  if (known != hosts.size())
    throw std::runtime_error(std::string(workload) + " set-up learned " +
                             std::to_string(known) + " of " +
                             std::to_string(hosts.size()) + " hosts");
  for (sim::SimHost* h : hosts)
    for (sim::SimHost* peer : hosts)
      if (peer != h) h->add_arp_entry(peer->ip(), peer->mac());
}

util::Histogram merged_latency_us(core::Network& net) {
  util::Histogram merged;
  for (const topo::NodeId id : net.generated().hosts)
    merged.merge(net.sim().host_at(id).latency_us());
  return merged;
}

void hash_deliveries(core::Network& net, Fnv& fnv) {
  for (const topo::NodeId id : net.generated().hosts)
    fnv.u64(net.sim().host_at(id).stats().udp_received);
  const util::Histogram lat = merged_latency_us(net);
  fnv.u64(lat.count());
  fnv.f64(lat.min());
  fnv.f64(lat.max());
  fnv.f64(lat.mean());
  for (const double q : {0.5, 0.9, 0.99}) fnv.f64(lat.percentile(q));
}

// ---- per-layer: counter deltas ----


namespace {

std::uint64_t link_frames(core::Network& net) {
  std::uint64_t total = 0;
  for (const topo::Link* link : net.topology().links())
    for (int dir = 0; dir < 2; ++dir)
      total += net.sim().link_stats(link->id, dir).delivered;
  return total;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string base_note(const char* what, double num, const char* per,
                      double den) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s %.0f / %s %.0f", what, num, per, den);
  return buf;
}

double counter(const obs::MetricsRegistry::Snapshot& snap, const char* name) {
  double total = 0;
  for (const auto& s : snap.series)
    if (s.name == name) total += s.value;
  return total;
}

const util::Histogram* histo(const obs::MetricsRegistry::Snapshot& snap,
                             const char* name) {
  const auto* s = snap.find(name);
  return s ? &s->hist : nullptr;
}

// Repeats `body` (which processes `items` items) until at least `min_ns`
// of host time has passed; returns mean ns per item over the passes.
template <typename F>
double ns_per_item(std::size_t items, std::uint64_t min_ns, F&& body) {
  if (items == 0) return 0;
  std::uint64_t spent = 0;
  std::uint64_t done = 0;
  while (spent < min_ns) {
    const std::uint64_t t0 = now_ns();
    body();
    spent += now_ns() - t0;
    done += items;
  }
  return static_cast<double>(spent) / static_cast<double>(done);
}

constexpr std::uint64_t kReplayNs = 40'000'000;

std::unique_ptr<dataplane::Switch> replica_of(core::Network& net,
                                              topo::NodeId dpid,
                                              bool cache_on) {
  const dataplane::Switch& real = net.sim().switch_at(dpid);
  dataplane::SwitchConfig cfg = real.config();
  cfg.cache_enabled = cache_on;
  auto sw = std::make_unique<dataplane::Switch>(dpid, cfg);
  for (const auto& port : real.ports()) sw->add_port(port);
  return sw;
}

// Applies the captured mods in order; returns the number applied.
std::size_t load_mods(dataplane::Switch& sw,
                      const std::vector<openflow::Message>& mods) {
  std::size_t n = 0;
  for (const auto& msg : mods) {
    if (const auto* fm = std::get_if<openflow::FlowMod>(&msg)) {
      sw.flow_mod(*fm, 0.0);
      ++n;
    } else if (const auto* gm = std::get_if<openflow::GroupMod>(&msg)) {
      sw.group_mod(*gm);
      ++n;
    }
  }
  return n;
}

}  // namespace

LayerBaseline read_baseline(Instance& inst) {
  core::Network& net = inst.net();
  // Histograms and counters in the registry then cover the timed phase only.
  obs::MetricsRegistry::global().reset_values();
  return LayerBaseline{
      .delivered = inst.delivered(),
      .link_frames = link_frames(net),
      .link_drops = net.sim().total_link_drops(),
      .mods = inst.capture.mods(),
      .mod_bytes = inst.capture.mod_bytes(),
      .event_bytes = inst.capture.event_bytes(),
      .ctrl = net.controller().stats(),
      .paths = net.controller().view().path_engine().stats(),
  };
}

void common_layer_metrics(Instance& inst, const LayerBaseline& base,
                          const Tracer& tr, std::uint64_t ops, Report& layers) {
  core::Network& net = inst.net();
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const double pkts = static_cast<double>(inst.delivered() - base.delivered);
  const double n_ops = static_cast<double>(ops);
  const std::string op = inst.op_name();

  // ---- sim ----
  const double events = counter(snap, "zen_sim_events_total");
  layers.add("sim.events_per_pkt", ratio(events, pkts), "count",
             base_note("events", events, "delivered pkts", pkts));
  const auto& run = tr.stat(Span::kRunUntil);
  layers.add("sim.run_ns_per_pkt",
             ratio(static_cast<double>(run.total_ns), pkts), "ns",
             base_note("run_until ns", static_cast<double>(run.total_ns),
                       "delivered pkts", pkts));
  layers.add("sim.queue_depth_max", static_cast<double>(inst.queue_depth_max),
             "count", "pending events, sampled at each injected input");
  const auto& send = tr.stat(Span::kSendUdp);
  layers.add("sim.host_send_ns",
             ratio(static_cast<double>(send.total_ns),
                   static_cast<double>(send.count)),
             "ns", "n=" + std::to_string(send.count) + " send_udp calls");
  const double frames =
      static_cast<double>(link_frames(net) - base.link_frames);
  layers.add("sim.link_frames_per_pkt", ratio(frames, pkts), "count",
             base_note("link frames", frames, "delivered pkts", pkts));
  layers.add("sim.link_drops",
             static_cast<double>(net.sim().total_link_drops() - base.link_drops),
             "count");

  // ---- net: parse replay ----
  const auto frames_in = inst.replica_frames();
  const double parse_ns = ns_per_item(frames_in.size(), kReplayNs, [&] {
    for (const auto& [port, frame] : frames_in) {
      auto parsed = net::parse_packet(frame);
      if (!parsed.ok()) throw std::runtime_error("replay frame failed to parse");
    }
  });
  layers.add("net.parse_ns", parse_ns, "ns",
             "n=" + std::to_string(frames_in.size()) + " workload frames");

  // ---- dataplane ----
  const double sw_pkts = counter(snap, "zen_dataplane_packets_total");
  layers.add("dataplane.hops_per_pkt", ratio(sw_pkts, pkts), "count",
             base_note("switch ingresses", sw_pkts, "delivered pkts", pkts));
  const double hits = counter(snap, "zen_dataplane_megaflow_hits_total");
  const double misses = counter(snap, "zen_dataplane_megaflow_misses_total");
  layers.add("dataplane.megaflow_hit_ratio", ratio(hits, hits + misses),
             "ratio", base_note("hits", hits, "probes", hits + misses));
  layers.add("dataplane.megaflow_evictions",
             counter(snap, "zen_dataplane_megaflow_evictions_total"), "count");

  const topo::NodeId rep = inst.replica_switch();
  const auto& mods = inst.capture.replica_mods;
  for (const bool cache_on : {true, false}) {
    auto sw = replica_of(net, rep, cache_on);
    load_mods(*sw, mods);
    // One untimed pass warms the cache (and lazily built structures).
    for (const auto& [port, frame] : frames_in) sw->ingress(0.0, port, frame);
    const double ns = ns_per_item(frames_in.size(), kReplayNs, [&] {
      for (const auto& [port, frame] : frames_in) sw->ingress(0.0, port, frame);
    });
    layers.add(cache_on ? "dataplane.ingress_hit_ns" : "dataplane.ingress_miss_ns",
               ns, "ns",
               "replica of switch " + std::to_string(rep) + ", " +
                   std::to_string(frames_in.size()) + " frames, cache " +
                   (cache_on ? "on" : "off"));
  }
  const util::Histogram* lookup = histo(snap, "zen_dataplane_lookup_latency_ns");
  layers.add("dataplane.lookup_ns_p50", lookup ? lookup->percentile(0.5) : 0,
             "ns",
             "n=" + std::to_string(lookup ? lookup->count() : 0) +
                 " slow-path traversals");
  {
    std::vector<std::unique_ptr<dataplane::Switch>> replicas;
    std::size_t applied = 0;
    const double ns = ns_per_item(mods.size(), kReplayNs, [&] {
      replicas.push_back(replica_of(net, rep, true));
      applied = load_mods(*replicas.back(), mods);
      if (replicas.size() > 4) replicas.erase(replicas.begin());
    });
    layers.add("dataplane.flow_mod_apply_ns", ns, "ns",
               "n=" + std::to_string(applied) + " captured mods of switch " +
                   std::to_string(rep));
  }
  layers.add("dataplane.packet_ins_suppressed",
             counter(snap, "zen_dataplane_packet_ins_suppressed_total"), "count");

  // ---- openflow: codec replay ----
  const auto& sample = inst.capture.sample;
  openflow::WireArena arena;
  const double enc_ns = ns_per_item(sample.size(), kReplayNs, [&] {
    arena.clear();
    openflow::Xid xid = 1;
    for (const auto& msg : sample) arena.append(msg, xid++);
  });
  const double dec_ns = ns_per_item(sample.size(), kReplayNs, [&] {
    openflow::BatchReader reader(arena.bytes());
    while (auto frame = reader.next()) {
      if (!frame->ok()) throw std::runtime_error("replay frame failed to decode");
      auto owned = openflow::decode_frame(frame->value());
      if (!owned.ok()) throw std::runtime_error("replay frame failed to decode");
    }
  });
  const std::string codec_note =
      "n=" + std::to_string(sample.size()) + " captured messages";
  layers.add("openflow.encode_ns", enc_ns, "ns", codec_note);
  layers.add("openflow.decode_ns", dec_ns, "ns", codec_note);
  const double sb_bytes = static_cast<double>(
      inst.capture.mod_bytes() - base.mod_bytes +
      inst.capture.event_bytes() - base.event_bytes);
  layers.add("openflow.bytes_per_setup", ratio(sb_bytes, n_ops), "B",
             base_note("southbound bytes", sb_bytes, (op + "s").c_str(), n_ops));

  // ---- controller ----
  const auto& ctrl = net.controller().stats();
  const double pins =
      static_cast<double>(ctrl.packet_ins - base.ctrl.packet_ins);
  layers.add("controller.packet_ins_per_setup", ratio(pins, n_ops), "count",
             base_note("packet_ins", pins, (op + "s").c_str(), n_ops));
  const double mods_sent =
      static_cast<double>(inst.capture.mods() - base.mods);
  layers.add("controller.flow_mods_per_setup", ratio(mods_sent, n_ops), "count",
             base_note("flow/group mods", mods_sent, (op + "s").c_str(), n_ops));
  layers.add("controller.channel_flushes",
             counter(snap, "zen_controller_channel_flushes_total"), "count");
  const util::Histogram* batch = histo(snap, "zen_controller_channel_batch_frames");
  layers.add("controller.batch_frames_mean", batch ? batch->mean() : 0, "count",
             "n=" + std::to_string(batch ? batch->count() : 0) + " flushes");
  const auto& p2m = inst.capture.pin_to_mod_us;
  layers.add("controller.pin_to_flow_mod_us_p99", percentile(p2m, 0.99), "us",
             "n=" + std::to_string(p2m.size()) +
                 " IPv4 punts paired with the next FlowMod (virtual time)");
  layers.add("controller.retransmits",
             static_cast<double>(ctrl.retransmits - base.ctrl.retransmits),
             "count");
  layers.add("controller.errors",
             static_cast<double>(ctrl.errors_received - base.ctrl.errors_received),
             "count");
  layers.add("rulestore.repairs", counter(snap, "zen_rulestore_repairs_total"),
             "count");

  // ---- topo ----
  const auto& paths = net.controller().view().path_engine().stats();
  const double spf = static_cast<double>(paths.spf_runs - base.paths.spf_runs);
  layers.add("topo.spf_runs_per_event", ratio(spf, n_ops), "count",
             base_note("spf runs", spf, (op + "s").c_str(), n_ops));
  const double ph = static_cast<double>(paths.hits - base.paths.hits);
  const double pm = static_cast<double>(paths.misses - base.paths.misses);
  layers.add("topo.path_cache_hit_ratio", ratio(ph, ph + pm), "ratio",
             base_note("hits", ph, "queries", ph + pm));
}

void routing_layer_metrics(Instance& inst, controller::apps::L3Routing* routing,
                           std::uint64_t recomputes_base, std::uint64_t ops,
                           Report& layers) {
  const double n_ops = static_cast<double>(ops);
  const std::string ops_name = std::string(inst.op_name()) + "s";
  if (routing == nullptr) {
    layers.add("routing.recomputes_per_event", 0, "count",
               "no routing app on this workload");
    layers.add("controller.flow_mods_per_event", 0, "count",
               "no routing app on this workload");
    layers.add("routing.warm_recompute_ns", 0, "ns",
               "no routing app on this workload");
    return;
  }
  const double rc =
      static_cast<double>(routing->recompute_count() - recomputes_base);
  layers.add("routing.recomputes_per_event", ratio(rc, n_ops), "count",
             base_note("recomputes", rc, ops_name.c_str(), n_ops));

  // Warm recomputes: nothing changed since the last one, so each should
  // cost a scan and emit no southbound message.
  core::Network& net = inst.net();
  constexpr int kWarm = 9;
  std::vector<double> ns;
  const std::uint64_t mods0 = inst.capture.mods();
  for (int i = 0; i < kWarm; ++i) {
    const std::uint64_t t0 = now_ns();
    routing->recompute_now();
    ns.push_back(static_cast<double>(now_ns() - t0));
    net.run_for(0.005);
  }
  const double warm_mods = static_cast<double>(inst.capture.mods() - mods0);
  layers.add("controller.flow_mods_per_event", warm_mods / kWarm, "count",
             base_note("mods", warm_mods, "warm recomputes", kWarm));
  layers.add("routing.warm_recompute_ns", percentile(ns, 0.5), "ns",
             "median of " + std::to_string(kWarm) + " recompute_now() calls");
}

}  // namespace zb
