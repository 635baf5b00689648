// reactive_churn: the control loop under flow churn.
//
// Leaf-spine 4 spines x 8 leaves x 4 hosts. ReactiveForwarding installs a
// per-5-tuple path with a 1 s idle timeout on each new flow's first packet;
// a LoadBalancer VIP backed by 4 hosts receives ~20% of the flows, which
// run its DNAT/SNAT rewrite rules. New flows arrive at Poisson instants in
// virtual time, each with 1-8 packets 2 ms apart; 30% of packets are 1400 B
// frames and the rest 64 B. Punt, PacketIn encode, channel, dispatch, app,
// FlowMod/PacketOut and apply do the work, and dataplane writes (FlowMods,
// expiry) run beside the reads.
#include "common.h"

namespace zb {
namespace {

constexpr std::size_t kSpines = 4;
constexpr std::size_t kLeaves = 8;
constexpr std::size_t kHostsPerLeaf = 4;
constexpr std::size_t kHosts = kLeaves * kHostsPerLeaf;
// One backend on each of four different leaves.
constexpr std::size_t kBackends[] = {3, 11, 19, 27};
constexpr double kVipShare = 0.2;
constexpr double kFlowRate = 4000;  // new flows per virtual second
constexpr double kPktGapS = 0.002;
constexpr int kMaxPkts = 8;
constexpr double kLargeShare = 0.3;
constexpr std::size_t kSmallFrame = 64;
constexpr std::size_t kLargeFrame = 1400;
constexpr std::size_t kUdpOverhead = 42;  // Ethernet + IPv4 + UDP headers
constexpr double kStepS = 0.05;  // ~200 new flows, so steps carry similar work
// Flows per requested second of run time (sized so that a run of
// --seconds takes about that long on a 4-core Xeon container).
constexpr double kFlowsPerSecond = 20000;

const net::Ipv4Address kVip(10, 99, 99, 99);

struct Flow {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;  // host index; ignored for VIP flows
  bool vip = false;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
};

struct Packet {
  double at = 0;
  std::uint32_t flow = 0;
  std::uint16_t payload = 0;
  bool first = false;
};

struct Schedule {
  std::vector<Flow> flows;
  std::vector<Packet> packets;  // sorted by send time
  std::vector<std::size_t> step_begin;
  std::vector<std::uint64_t> expected_rx;  // per host, non-VIP packets
  std::uint64_t vip_packets = 0;
  std::uint64_t vip_flows = 0;
};

bool is_backend(std::size_t host) {
  for (const std::size_t b : kBackends)
    if (b == host) return true;
  return false;
}

std::shared_ptr<const Schedule> make_schedule(const Options& opt) {
  auto s = std::make_shared<Schedule>();
  Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 2);
  const auto n_flows = static_cast<std::size_t>(kFlowsPerSecond * opt.seconds);
  s->expected_rx.assign(kHosts, 0);
  double t = 0;
  for (std::size_t i = 0; i < n_flows; ++i) {
    t += rng.exponential(1.0 / kFlowRate);
    Flow f;
    do {
      f.src = static_cast<std::uint32_t>(rng.below(kHosts));
    } while (is_backend(f.src));
    f.vip = rng.uniform() < kVipShare;
    f.dst = static_cast<std::uint32_t>(rng.below(kHosts - 1));
    if (f.dst >= f.src) ++f.dst;
    // Unique 5-tuple per flow.
    f.sport = static_cast<std::uint16_t>(1024 + i % 64000);
    f.dport = static_cast<std::uint16_t>(5000 + i / 64000);
    const int n_pkts = 1 + static_cast<int>(rng.below(kMaxPkts));
    for (int p = 0; p < n_pkts; ++p) {
      const std::size_t frame =
          rng.uniform() < kLargeShare ? kLargeFrame : kSmallFrame;
      s->packets.push_back(Packet{t + p * kPktGapS, static_cast<std::uint32_t>(i),
                                  static_cast<std::uint16_t>(frame - kUdpOverhead),
                                  p == 0});
      if (f.vip) ++s->vip_packets;
      else ++s->expected_rx[f.dst];
    }
    if (f.vip) ++s->vip_flows;
    s->flows.push_back(f);
  }
  std::stable_sort(s->packets.begin(), s->packets.end(),
                   [](const Packet& a, const Packet& b) { return a.at < b.at; });
  const double end = s->packets.empty() ? 0 : s->packets.back().at;
  for (std::size_t i = 0, step = 0; step * kStepS <= end; ++step) {
    s->step_begin.push_back(i);
    while (i < s->packets.size() && s->packets[i].at < (step + 1) * kStepS) ++i;
  }
  s->step_begin.push_back(s->packets.size());
  return s;
}

class ReactiveChurn : public Instance {
 public:
  ReactiveChurn(std::shared_ptr<const Schedule> sched, Tracer& tr, bool capturing)
      : sched_(std::move(sched)) {
    sim::SimOptions sim_opts;
    // Table misses punt through ReactiveForwarding's table-miss rule.
    sim_opts.switch_config.default_miss = dataplane::MissBehavior::Drop;
    core::Network::Config cfg;
    cfg.sim = sim_opts;
    net_ = std::make_unique<core::Network>(
        topo::make_leaf_spine(kSpines, kLeaves, kHostsPerLeaf), cfg);
    const auto& gen = net_->generated();
    for (std::size_t i = 0; i < gen.hosts.size(); ++i) {
      hosts_.push_back(&net_->sim().host_at(gen.hosts[i]));
      attach_.push_back(attachment_of(gen, gen.hosts[i]));
    }
    replica_ = attach_[0].sw;

    controller::apps::Discovery::Options disc;
    disc.stop_after_s = 2.0;
    net_->add_app<controller::apps::Discovery>(disc);
    std::vector<controller::apps::LoadBalancer::Backend> backends;
    for (const std::size_t b : kBackends) backends.push_back({hosts_[b]->ip()});
    lb_ = &net_->add_app<controller::apps::LoadBalancer>(kVip, backends);
    controller::apps::ReactiveForwarding::Options fwd;
    fwd.match_l4 = true;
    fwd.idle_timeout_s = 1;
    net_->add_app<controller::apps::ReactiveForwarding>(fwd);
    capture.attach(*net_, tr, capturing, replica_);
    net_->start();

    learn_all_hosts(*net_, hosts_, "reactive_churn");
    for (sim::SimHost* h : hosts_) h->add_arp_entry(kVip, lb_->virtual_mac());
    net_->run_for(0.1);

    start_ = net_->now();
    for (std::size_t i = 0; i < hosts_.size(); ++i)
      base_rx_.push_back(hosts_[i]->stats().udp_received);
    base_lb_flows_ = lb_->flows_assigned();
  }

  core::Network& net() override { return *net_; }
  topo::NodeId replica_switch() const override { return replica_; }
  std::size_t steps() const override { return sched_->step_begin.size() - 1; }
  const char* op_name() const override { return "flow"; }

  std::uint64_t run_step(std::size_t i, Tracer& tr) override {
    const Schedule& s = *sched_;
    std::uint64_t started = 0;
    for (std::size_t p = s.step_begin[i]; p < s.step_begin[i + 1]; ++p) {
      const Packet& pkt = s.packets[p];
      {
        SpanScope span(tr, Span::kRunUntil);
        net_->run_until(start_ + pkt.at);
      }
      sample_queue(tr);
      const Flow& f = s.flows[pkt.flow];
      const net::Ipv4Address dst = f.vip ? kVip : hosts_[f.dst]->ip();
      SpanScope span(tr, Span::kSendUdp);
      hosts_[f.src]->send_udp(dst, f.sport, f.dport, pkt.payload);
      started += pkt.first;
    }
    SpanScope span(tr, Span::kRunUntil);
    net_->run_until(start_ + static_cast<double>(i + 1) * kStepS);
    return started;
  }

  std::uint64_t finish(std::uint64_t& attempted,
                       std::vector<std::string>& problems) override {
    net_->run_for(0.1);
    const Schedule& s = *sched_;
    attempted = s.packets.size();
    // Non-backend hosts receive exactly their non-VIP packets; backends
    // receive theirs plus every VIP packet between them.
    std::uint64_t backend_expected = s.vip_packets;
    std::uint64_t backend_got = 0;
    std::uint64_t missing = 0;
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
      const std::uint64_t got = hosts_[h]->stats().udp_received - base_rx_[h];
      if (is_backend(h)) {
        backend_expected += s.expected_rx[h];
        backend_got += got;
      } else if (got != s.expected_rx[h]) {
        problems.push_back("reactive_churn host " + std::to_string(h) +
                           " received " + std::to_string(got) + " of " +
                           std::to_string(s.expected_rx[h]) + " packets");
        if (got < s.expected_rx[h]) missing += s.expected_rx[h] - got;
      }
    }
    if (backend_got != backend_expected) {
      problems.push_back("reactive_churn backends received " +
                         std::to_string(backend_got) + " of " +
                         std::to_string(backend_expected) + " packets");
      if (backend_got < backend_expected) missing += backend_expected - backend_got;
    }
    const std::uint64_t lb_flows = lb_->flows_assigned() - base_lb_flows_;
    if (lb_flows != s.vip_flows)
      problems.push_back("reactive_churn load balancer assigned " +
                         std::to_string(lb_flows) + " of " +
                         std::to_string(s.vip_flows) + " VIP flows");
    return missing;
  }

  std::uint64_t delivered() const override {
    return net_->total_udp_received();
  }

  void workload_metrics(const std::vector<double>&, std::uint64_t ops,
                        double host_s, Report& out) override {
    out.add("setups_per_s", static_cast<double>(ops) / host_s, "1/s",
            std::to_string(ops) + " flows, " +
                std::to_string(sched_->packets.size()) + " packets");
    const util::Histogram lat = merged_latency_us(*net_);
    const std::string n = "n=" + std::to_string(lat.count()) +
                          " packets, first and later (virtual time)";
    out.add("fwd_latency_p50_us", lat.percentile(0.5), "us", n);
    out.add("fwd_latency_p99_us", lat.percentile(0.99), "us", n);
  }

  void layer_metrics(Report& layers) override {
    routing_layer_metrics(*this, nullptr, 0, sched_->flows.size(), layers);
  }

  std::vector<std::pair<std::uint32_t, net::Bytes>> replica_frames() override {
    constexpr std::size_t kMaxFrames = 20000;
    std::vector<std::pair<std::uint32_t, net::Bytes>> out;
    std::vector<std::uint8_t> payload(kLargeFrame);
    for (const Packet& pkt : sched_->packets) {
      if (out.size() >= kMaxFrames) break;
      const Flow& f = sched_->flows[pkt.flow];
      if (attach_[f.src].sw != replica_) continue;
      const sim::SimHost& src = *hosts_[f.src];
      const net::Ipv4Address dst_ip = f.vip ? kVip : hosts_[f.dst]->ip();
      const net::MacAddress dst_mac =
          f.vip ? lb_->virtual_mac() : hosts_[f.dst]->mac();
      out.emplace_back(
          attach_[f.src].sw_port,
          net::build_ipv4_udp(src.mac(), dst_mac, src.ip(), dst_ip, f.sport,
                              f.dport,
                              std::span(payload.data(), pkt.payload)));
    }
    return out;
  }

 private:
  std::shared_ptr<const Schedule> sched_;
  std::unique_ptr<core::Network> net_;
  std::vector<sim::SimHost*> hosts_;
  std::vector<topo::HostAttachment> attach_;
  controller::apps::LoadBalancer* lb_ = nullptr;
  topo::NodeId replica_ = 0;
  double start_ = 0;
  std::vector<std::uint64_t> base_rx_;
  std::uint64_t base_lb_flows_ = 0;
};

}  // namespace

Factory reactive_churn(const Options& opt) {
  auto sched = make_schedule(opt);
  return [sched](Tracer& tr, bool capture) -> std::unique_ptr<Instance> {
    return std::make_unique<ReactiveChurn>(sched, tr, capture);
  };
}

}  // namespace zb
