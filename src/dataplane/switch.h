// Switch: the software forwarding plane (Open vSwitch analog).
//
// A Switch owns a multi-table pipeline, a group table, a meter table, a
// megaflow cache and a set of ports. It exposes a *typed* control surface
// (flow_mod, group_mod, stats, ...) — the wire-protocol agent that speaks
// the southbound channel lives in the controller module and translates
// messages to these calls. This keeps dataplane semantics testable without
// any protocol plumbing.
//
// Time is explicit: every packet- or rule-touching call takes `now`
// (seconds on the caller's clock — virtual under simulation).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dataplane/explain.h"
#include "dataplane/flow_table.h"
#include "dataplane/group_table.h"
#include "dataplane/megaflow_cache.h"
#include "dataplane/meter_table.h"
#include "dataplane/packet_rewrite.h"
#include "obs/shard_stats.h"
#include "openflow/messages.h"
#include "openflow/table_status.h"
#include "util/token_bucket.h"

namespace zen::telemetry {
class SwitchTelemetry;
}

namespace zen::obs {
class Gauge;
}

namespace zen::dataplane {

enum class MissBehavior : std::uint8_t { Drop, PacketIn };

// What the switch does about forwarding when its controller session dies
// (OVS fail-mode analog). The dataplane only carries the knob; the
// switch-side agent (controller::SwitchAgent) detects the silence and
// installs/removes the standalone fallback rule.
enum class FailMode : std::uint8_t {
  Secure,      // freeze: keep the installed tables, punt nothing new
  Standalone,  // install a low-priority NORMAL-forwarding fallback rule
               // until the controller returns
};

struct SwitchConfig {
  std::size_t cache_capacity = 65536;
  bool cache_enabled = true;
  // What a table-0 miss does when no table-miss entry is installed.
  MissBehavior default_miss = MissBehavior::PacketIn;
  // miss_send_len: how many bytes of the frame ride inside a PacketIn.
  std::uint16_t packet_in_bytes = 128;
  // Controller-protection: max PacketIns per second the switch will emit
  // (0 = unlimited). Excess punts are dropped and counted.
  double packet_in_rate_pps = 0;
  // Per-table rule capacity (0 = unlimited). FlowMod Adds beyond it fail
  // with TableFull — the hardware-table constraint SWAN-class systems
  // engineer around.
  std::size_t table_capacity = 0;
  // What a full table does with an incoming Add (meaningless when
  // table_capacity == 0). Victims leave as FlowRemoved/Eviction.
  EvictionPolicy eviction = EvictionPolicy::Off;
  // OVS-style vacancy events: a TableStatus fires when a table's free
  // space falls to <= vacancy_down_pct percent of capacity, and again when
  // it recovers to >= vacancy_up_pct. Both 0 = disabled; keep
  // down < up for hysteresis.
  std::uint8_t vacancy_down_pct = 0;
  std::uint8_t vacancy_up_pct = 0;
  // Controller-loss behavior, acted on by the switch-side agent after
  // fail_timeout_s of controller silence (0 disables detection entirely).
  FailMode fail_mode = FailMode::Secure;
  double fail_timeout_s = 0;
};

struct Egress {
  std::uint32_t port = 0;
  // Queue the frame was directed to by a preceding SetQueue action.
  // Convention: 0 = best-effort (default), >= 1 = priority class.
  std::uint32_t queue_id = 0;
  net::Bytes frame;
  // The ingress parse, still true of `frame` (valid only when no rewrite
  // or telemetry trailer changed the bytes); the next hop reuses it.
  net::FrameMeta meta;
};

struct ForwardResult {
  std::vector<Egress> outputs;
  std::optional<openflow::PacketIn> packet_in;
  // True if the packet was dropped (no match with Drop behavior, meter
  // exceeded, TTL expired, or malformed).
  bool dropped = false;
  // Port the packet arrived on (0 for controller-originated PacketOuts);
  // the sim threads this into per-hop telemetry records.
  std::uint32_t in_port = 0;
};

struct ModStatus {
  bool ok = true;
  openflow::ErrorType error_type = openflow::ErrorType::BadRequest;
  std::uint16_t error_code = 0;
};

class Switch {
 public:
  Switch(std::uint64_t datapath_id, SwitchConfig config = {});

  std::uint64_t datapath_id() const noexcept { return dpid_; }

  // ---- ports ----
  void add_port(const openflow::PortDesc& desc);
  // Returns the new PortStatus event if the port exists and state changed.
  std::optional<openflow::PortStatus> set_port_link(std::uint32_t port_no,
                                                    bool up);
  const openflow::PortDesc* port(std::uint32_t port_no) const noexcept;
  std::vector<openflow::PortDesc> ports() const;

  // ---- dataplane ----
  // Copying entry point: ingress of a copy of `frame`, parsed here.
  ForwardResult ingress(double now, std::uint32_t in_port,
                        std::span<const std::uint8_t> frame);

  // Owning hot path. Consumes `frame`; `meta`, when valid, is the parse of
  // these bytes from the previous hop and is used instead of parsing. The
  // verdict goes to `out`, which is reset first but keeps its capacity, so
  // a caller that reuses it allocates nothing on a cache hit: the frame
  // moves into the last egress and only the others (and a PacketIn or its
  // buffer) get copies.
  void ingress(double now, std::uint32_t in_port, net::Bytes frame,
               const net::FrameMeta& meta, ForwardResult& out);

  // Pipeline walk without forwarding (ofproto/trace analog): classifies
  // the frame and renders the ForwardResult ingress() would produce right
  // now, but never applies the verdict — no rule/port/cache counters, no
  // meter tokens consumed (meters are judged by would_allow), no megaflow
  // insert, no PacketIn buffered or rate-limited, no NORMAL-mode learning.
  // When `trace` is non-null (and observability is compiled in) every
  // decision is appended to it as an ExplainStep. The megaflow cache is
  // probed read-only for the trace, but the verdict always comes from a
  // full classification so the explanation covers the classifier even for
  // cached flows.
  ForwardResult explain(double now, std::uint32_t in_port,
                        std::span<const std::uint8_t> frame,
                        ExplainTrace* trace = nullptr);

  // Executes a PacketOut's action list on its payload (or buffered packet).
  ForwardResult packet_out(double now, const openflow::PacketOut& msg);

  // Attaches per-switch telemetry (sampling + flow export). Not owned;
  // nullptr (the default) disables the hook entirely. The sim wires this
  // when SimOptions.telemetry.enabled is set.
  void set_telemetry(telemetry::SwitchTelemetry* telemetry) noexcept {
    telemetry_ = telemetry;
  }
  telemetry::SwitchTelemetry* telemetry() const noexcept { return telemetry_; }

  // ---- control surface ----
  ModStatus flow_mod(const openflow::FlowMod& mod, double now,
                     std::vector<openflow::FlowRemoved>* removed = nullptr);
  ModStatus group_mod(const openflow::GroupMod& mod);
  ModStatus meter_mod(const openflow::MeterMod& mod);

  // Applies a bundle's members (FlowMod / GroupMod / MeterMod) in order,
  // all-or-nothing: when any member fails, every earlier member's effect
  // is rolled back and the failing member's own status is returned, so
  // the caller sees exactly the error a lone mod would have produced.
  // FlowRemoved events (evictions, deletes) reach `removed` only when the
  // whole bundle commits.
  ModStatus commit_bundle(std::span<const openflow::Message> members,
                          double now,
                          std::vector<openflow::FlowRemoved>* removed = nullptr);

  openflow::FeaturesReply features() const;
  openflow::FlowStatsReply flow_stats(const openflow::FlowStatsRequest& req,
                                      double now) const;
  openflow::PortStatsReply port_stats(const openflow::PortStatsRequest& req) const;
  openflow::TableStatsReply table_stats() const;

  // Removes timed-out entries across all tables; returns FlowRemoved events
  // for entries flagged kFlagSendFlowRemoved.
  std::vector<openflow::FlowRemoved> expire_flows(double now);

  // Drains vacancy events accumulated since the last call (fired when a
  // mod/expiry/eviction moved a table's occupancy across a configured
  // threshold). The sim wraps them into Experimenter messages northbound.
  std::vector<openflow::TableStatus> take_table_status();

  // Crash/reboot semantics: wipes all forwarding state (flow/group/meter
  // tables, megaflow cache, packet buffers) and forgets controller roles and
  // the master-election epoch, as a power-cycled switch would. Ports and
  // their cumulative stats survive (they model physical hardware).
  void reset();

  // ---- controller roles (multi-controller redundancy) ----
  // Applies a role request from connection `conn_id`. Master requests carry
  // a generation id; a stale generation (less than the largest seen) is
  // refused (returns nullopt). Granting Master demotes the previous master
  // to Slave (OF 1.3 semantics). Returns the granted role.
  std::optional<openflow::ControllerRole> set_controller_role(
      std::uint64_t conn_id, openflow::ControllerRole role,
      std::uint64_t generation_id);
  // Role of a connection (Equal when never set).
  openflow::ControllerRole controller_role(std::uint64_t conn_id) const;

  // ---- introspection ----
  FlowTable& table(std::uint8_t id) { return tables_[id]; }
  const FlowTable& table(std::uint8_t id) const { return tables_[id]; }
  std::uint8_t table_count() const noexcept {
    return static_cast<std::uint8_t>(tables_.size());
  }
  // Monotonic power-cycle counter: starts at 1, bumped by every reset().
  // Carried in FeaturesReply/EchoReply so the controller can spot a
  // crash/reboot cycle even when it fit inside the heartbeat window.
  std::uint64_t boot_count() const noexcept { return boot_count_; }
  const MegaflowCache& cache() const noexcept { return cache_; }
  const SwitchConfig& config() const noexcept { return config_; }
  std::uint64_t packet_in_suppressed() const noexcept {
    return packet_in_suppressed_;
  }
  std::uint64_t flow_evictions() const noexcept { return flow_evictions_; }
  // Frames dropped by the NORMAL-action flood deduper (loop suppression).
  std::uint64_t storm_suppressed() const noexcept { return storm_suppressed_; }
  MegaflowCache& cache() noexcept { return cache_; }
  GroupTable& groups() noexcept { return groups_; }
  std::uint64_t rule_version() const noexcept { return version_; }

 private:
  struct PortState {
    openflow::PortDesc desc;
    openflow::PortStatsEntry stats;
  };

  // One classification walk: the packet as rewritten so far and the
  // verdict being built. The walk changes no switch state; its one write is
  // the tables' own lookup statistics, which live walks (miss, packet-out)
  // count and explain walks do not.
  struct Classify {
    double now = 0;
    std::uint32_t in_port = 0;
    std::size_t size = 0;        // ingress frame bytes
    std::uint32_t queue_id = 0;  // set by SetQueue, applies to later outputs
    MutablePacket* pkt = nullptr;
    bool count_lookups = true;
    bool rewrite_pending = false;  // a rewrite since the last snapshot
    bool punted = false;           // one punt per packet: the first
    bool stopped = false;          // a drop ended the walk
    CachedVerdict verdict;
    // Step recorder; empty no-op type under ZEN_OBS_DISABLED.
    ExplainProbe probe;

    // The verdict frame the packet leaves as now: the ingress frame, or a
    // snapshot of its rewritten bytes (taken once per rewritten state).
    std::uint32_t frame();
    // Bytes the rewrites so far added to the packet (negative: removed).
    std::int32_t grown() const;
  };

  void classify_tables(Classify& ctx);
  void classify_actions(Classify& ctx, const openflow::ActionList& actions,
                        int depth);
  void classify_output(Classify& ctx, std::uint32_t port,
                       std::uint16_t max_len, std::uint8_t table_id,
                       std::uint64_t cookie, bool is_miss);
  void classify_normal(Classify& ctx);
  void add_output(Classify& ctx, std::uint32_t port_no);
  void add_punt(Classify& ctx, openflow::PacketInReason reason,
                std::uint8_t table_id, std::uint64_t cookie,
                std::uint16_t max_len);
  // Carries out a verdict for `frame`, the packet as it arrived: credits
  // entries, charges meters and stops at a refusal, punts through the rate
  // limiter and buffer ring, counts port tx, runs NORMAL learning and flood
  // dedup, and hands the frame (moved into the last egress that carries
  // it) to the outputs. Egresses of the ingress frame get `meta` when it is
  // non-null. Returns false when a meter refused or the punt was
  // suppressed: the verdict did not hold in full for this packet.
  bool apply(const CachedVerdict& verdict, double now, std::uint32_t in_port,
             net::Bytes& frame, const net::FrameMeta* meta,
             ForwardResult& result);
  // True (and counted) when this switch flooded `frame` inside the dedup
  // window; otherwise records the flood.
  bool flood_echo(std::span<const std::uint8_t> frame, double now);
  // Re-evaluates one table's vacancy state after an occupancy change and
  // queues a TableStatus when a threshold was crossed.
  void check_vacancy(std::uint8_t table_id);
  void update_occupancy_gauge();
  std::uint32_t buffer_packet(std::span<const std::uint8_t> frame);

  std::uint64_t dpid_;
  SwitchConfig config_;
  // Per-switch hot-path counters (packets, megaflow hit/miss/evict): the
  // ingress path bumps private cacheline-aligned slots; the registry
  // drains them into the shared global counters at snapshot time. Behind a
  // unique_ptr so its address — which the megaflow cache holds — survives
  // Switch moves.
  std::unique_ptr<obs::ShardStats> shard_;
  std::vector<FlowTable> tables_;
  GroupTable groups_;
  MeterTable meters_;
  MegaflowCache cache_;
  std::map<std::uint32_t, PortState> ports_;
  // Bumped on every rule-affecting change; versions the megaflow cache.
  std::uint64_t version_ = 1;
  std::uint64_t boot_count_ = 1;

  // PacketIn buffer ring.
  std::vector<net::Bytes> buffered_;
  std::uint32_t next_buffer_id_ = 0;

  // PacketIn rate limiting (controller protection).
  std::optional<util::TokenBucket> packet_in_bucket_;
  std::uint64_t packet_in_suppressed_ = 0;
  std::uint64_t flow_evictions_ = 0;

  // Vacancy-event state: true while a table sits below its down threshold
  // (the event fired and no VacancyUp has cleared it yet).
  std::vector<bool> vacancy_down_;
  std::vector<openflow::TableStatus> pending_table_status_;
  // Per-dpid occupancy gauge (table 0; null until first registered).
  obs::Gauge* occupancy_gauge_ = nullptr;

  // NORMAL-action state: a self-learned L2 FIB (src MAC -> ingress port)
  // plus a window of recently flooded frame hashes so a fabric of
  // standalone switches with physical loops cannot broadcast-storm.
  std::unordered_map<std::uint64_t, std::uint32_t> normal_fib_;
  std::unordered_map<std::uint64_t, double> flood_recent_;
  std::uint64_t storm_suppressed_ = 0;

  // Telemetry hook (not owned; may be null).
  telemetry::SwitchTelemetry* telemetry_ = nullptr;

  // Controller-connection roles.
  std::map<std::uint64_t, openflow::ControllerRole> roles_;
  std::uint64_t last_generation_ = 0;
  bool generation_seen_ = false;
};

}  // namespace zen::dataplane
