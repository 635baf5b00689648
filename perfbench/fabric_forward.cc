// fabric_forward: the warm data path.
//
// Fat-tree k=8 (80 switches, 128 hosts) under Discovery + proactive
// L3Routing with ECMP groups. Set-up learns every host and gives every host
// a static ARP entry for every other, so the timed phase never punts. The
// timed phase is an open loop in virtual time: 64 B UDP frames whose
// 5-tuples are drawn Zipf(1.0) from a 16k-flow universe, sent at Poisson
// instants at an aggregate rate far below link capacity. The event core,
// link model, host stack, parse, megaflow hits and ECMP group actions do the
// work; the controller sits idle.
#include "common.h"

namespace zb {
namespace {

constexpr std::size_t kFatTreeK = 8;
constexpr std::size_t kFlowUniverse = 16384;
constexpr double kZipfAlpha = 1.0;
// Aggregate virtual send rate: ~4k pkt/s per host on 10 Gb/s links.
constexpr double kRatePps = 500e3;
constexpr double kStepS = 0.002;  // virtual time per timed step
// Packets per requested second of run time (sized so that a run of
// --seconds takes about that long on a 4-core Xeon container).
constexpr double kPacketsPerSecond = 120e3;
// 14 B Ethernet + 20 B IPv4 + 8 B UDP + 22 B payload = 64 B frames; the
// first 8 payload bytes carry the send timestamp.
constexpr std::size_t kPayload = 22;

struct Flow {
  std::uint32_t src = 0;  // host index
  std::uint32_t dst = 0;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
};

struct Schedule {
  std::vector<Flow> flows;
  std::vector<double> at;          // send time after the timed phase starts
  std::vector<std::uint32_t> flow;  // flow index of each packet
  std::vector<std::size_t> step_begin;  // first packet of each step (+ end)
  std::vector<std::size_t> sent_by_host;  // packets each host sends
};

std::shared_ptr<const Schedule> make_schedule(const Options& opt) {
  auto s = std::make_shared<Schedule>();
  Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 1);
  const std::size_t hosts = kFatTreeK * kFatTreeK * kFatTreeK / 4;
  s->flows.resize(kFlowUniverse);
  for (Flow& f : s->flows) {
    f.src = static_cast<std::uint32_t>(rng.below(hosts));
    f.dst = static_cast<std::uint32_t>(rng.below(hosts - 1));
    if (f.dst >= f.src) ++f.dst;
    f.sport = static_cast<std::uint16_t>(1024 + rng.below(64000));
    f.dport = static_cast<std::uint16_t>(1024 + rng.below(64000));
  }
  s->sent_by_host.assign(hosts, 0);
  const Zipf zipf(kFlowUniverse, kZipfAlpha);
  const auto n = static_cast<std::size_t>(kPacketsPerSecond * opt.seconds);
  s->at.reserve(n);
  s->flow.reserve(n);
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.exponential(1.0 / kRatePps);
    s->at.push_back(t);
    s->flow.push_back(static_cast<std::uint32_t>(zipf.next(rng)));
    ++s->sent_by_host[s->flows[s->flow.back()].src];
  }
  for (std::size_t i = 0, step = 0; step * kStepS <= t; ++step) {
    s->step_begin.push_back(i);
    while (i < n && s->at[i] < (step + 1) * kStepS) ++i;
  }
  s->step_begin.push_back(n);
  return s;
}

class FabricForward : public Instance {
 public:
  FabricForward(std::shared_ptr<const Schedule> sched, Tracer& tr, bool capturing)
      : sched_(std::move(sched)),
        net_(std::make_unique<core::Network>(topo::make_fat_tree(kFatTreeK))) {
    const auto& gen = net_->generated();
    for (std::size_t i = 0; i < gen.hosts.size(); ++i) {
      hosts_.push_back(&net_->sim().host_at(gen.hosts[i]));
      ips_.push_back(net_->host_ip(i));
      attach_.push_back(attachment_of(gen, gen.hosts[i]));
    }
    replica_ = busiest_edge();

    controller::apps::Discovery::Options disc;
    disc.stop_after_s = 2.0;
    net_->add_app<controller::apps::Discovery>(disc);
    controller::apps::L3Routing::Options routing;
    routing.use_ecmp_groups = true;
    routing_ = &net_->add_app<controller::apps::L3Routing>(routing);
    capture.attach(*net_, tr, capturing, replica_);
    net_->start();

    // L3Routing installs every /32 route with its ECMP group as hosts are
    // learned.
    learn_all_hosts(*net_, hosts_, "fabric_forward");
    net_->run_for(0.1);

    start_ = net_->now();
    base_received_ = net_->total_udp_received();
    base_drops_ = net_->sim().total_link_drops();
    base_recomputes_ = routing_->recompute_count();
  }

  core::Network& net() override { return *net_; }
  topo::NodeId replica_switch() const override { return replica_; }
  std::size_t steps() const override { return sched_->step_begin.size() - 1; }
  const char* op_name() const override { return "packet"; }

  std::uint64_t run_step(std::size_t i, Tracer& tr) override {
    const Schedule& s = *sched_;
    const std::size_t lo = s.step_begin[i];
    const std::size_t hi = s.step_begin[i + 1];
    for (std::size_t p = lo; p < hi; ++p) {
      {
        SpanScope span(tr, Span::kRunUntil);
        net_->run_until(start_ + s.at[p]);
      }
      sample_queue(tr);
      const Flow& f = s.flows[s.flow[p]];
      SpanScope span(tr, Span::kSendUdp);
      hosts_[f.src]->send_udp(ips_[f.dst], f.sport, f.dport, kPayload);
    }
    SpanScope span(tr, Span::kRunUntil);
    net_->run_until(start_ + static_cast<double>(i + 1) * kStepS);
    return hi - lo;
  }

  std::uint64_t finish(std::uint64_t& attempted,
                       std::vector<std::string>& problems) override {
    net_->run_for(0.05);  // drain frames in flight
    attempted = sched_->at.size();
    const std::uint64_t got = delivered();
    if (got != attempted)
      problems.push_back("fabric_forward delivered " + std::to_string(got) +
                         " of " + std::to_string(attempted) + " packets");
    const std::uint64_t drops = net_->sim().total_link_drops() - base_drops_;
    if (drops != 0)
      problems.push_back("fabric_forward dropped " + std::to_string(drops) +
                         " frames on links");
    return got < attempted ? attempted - got : 0;
  }

  std::uint64_t delivered() const override {
    return net_->total_udp_received() - base_received_;
  }

  void workload_metrics(const std::vector<double>&, std::uint64_t ops,
                        double host_s, Report& out) override {
    out.add("fwd_pkts_per_s", static_cast<double>(ops) / host_s, "1/s",
            std::to_string(ops) + " packets of 64 B");
    const util::Histogram lat = merged_latency_us(*net_);
    const std::string n = "n=" + std::to_string(lat.count()) + " (virtual time)";
    out.add("fwd_latency_p50_us", lat.percentile(0.5), "us", n);
    out.add("fwd_latency_p99_us", lat.percentile(0.99), "us", n);
  }

  void layer_metrics(Report& layers) override {
    routing_layer_metrics(*this, routing_, base_recomputes_,
                          sched_->at.size(), layers);
  }

  std::vector<std::pair<std::uint32_t, net::Bytes>> replica_frames() override {
    constexpr std::size_t kMaxFrames = 20000;
    std::vector<std::pair<std::uint32_t, net::Bytes>> out;
    const std::uint8_t payload[kPayload] = {};
    const Schedule& s = *sched_;
    for (std::size_t p = 0; p < s.flow.size() && out.size() < kMaxFrames; ++p) {
      const Flow& f = s.flows[s.flow[p]];
      const topo::HostAttachment& att = attach_[f.src];
      if (att.sw != replica_) continue;
      out.emplace_back(att.sw_port,
                       net::build_ipv4_udp(hosts_[f.src]->mac(),
                                           hosts_[f.dst]->mac(), ips_[f.src],
                                           ips_[f.dst], f.sport, f.dport,
                                           payload));
    }
    return out;
  }

 private:
  // The edge switch whose hosts send the most packets of the schedule.
  topo::NodeId busiest_edge() const {
    std::unordered_map<topo::NodeId, std::size_t> count;
    for (std::size_t h = 0; h < attach_.size(); ++h)
      count[attach_[h].sw] += sched_->sent_by_host[h];
    topo::NodeId best = 0;
    std::size_t best_n = 0;
    for (const auto& [sw, n] : count)
      if (n > best_n || (n == best_n && sw < best)) {
        best = sw;
        best_n = n;
      }
    return best;
  }

  std::shared_ptr<const Schedule> sched_;
  std::unique_ptr<core::Network> net_;
  std::vector<sim::SimHost*> hosts_;
  std::vector<net::Ipv4Address> ips_;
  std::vector<topo::HostAttachment> attach_;
  controller::apps::L3Routing* routing_ = nullptr;
  topo::NodeId replica_ = 0;
  double start_ = 0;
  std::uint64_t base_received_ = 0;
  std::uint64_t base_drops_ = 0;
  std::uint64_t base_recomputes_ = 0;
};

}  // namespace

Factory fabric_forward(const Options& opt) {
  auto sched = make_schedule(opt);
  return [sched](Tracer& tr, bool capture) -> std::unique_ptr<Instance> {
    return std::make_unique<FabricForward>(sched, tr, capture);
  };
}

}  // namespace zb
