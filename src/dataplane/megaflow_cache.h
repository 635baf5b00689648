// Megaflow-style exact-match flow cache.
//
// Sits in front of the multi-table pipeline. Forwarding is two steps, as
// in Open vSwitch's translate/execute split: classification walks the
// tables and records a CachedVerdict, the ops it decided on (entries to
// credit, meters, outputs, the first punt, NORMAL steps), without changing
// any switch state, and Switch::apply carries a verdict out. The first packet
// of a flow is classified, applied, and its verdict cached keyed by the
// exact FlowKey; later packets of the flow apply the cached verdict and
// skip the classifier. Hits and misses share the one apply step, so the
// cache is transparent by construction.
//
// Invalidation is coarse, as in early Open vSwitch: any flow/group table
// change bumps a global version; the first probe under a new version drops
// the whole (now entirely stale) table at once. Capacity eviction is
// random-replacement (cheap, and what a kernel flow cache approximates
// under churn).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <variant>
#include <vector>

#include "dataplane/flow_table.h"
#include "net/flow_key.h"
#include "net/packet.h"
#include "obs/shard_stats.h"
#include "openflow/constants.h"

namespace zen::dataplane {

// The outcome of classifying one packet: everything the switch does about
// it, as ops in pipeline order. Switch::apply runs them; a meter refusal
// stops the walk, so what came before the meter still happens. Only
// verdicts that hold for every packet of the flow are cached; those never
// carry rewritten frames, NORMAL steps or drops.
struct CachedVerdict {
  // The frame an output, punt or flood carries: the packet as it arrived,
  // or an index into `rewritten`.
  static constexpr std::uint32_t kIngressFrame = 0xffffffff;
  // Credit the entry's packet and byte counters. Credits and meter charges
  // count the packet as rewritten so far: `grown` is the bytes its rewrites
  // added (pushed VLAN tags) or, when negative, removed.
  struct Credit {
    FlowEntryPtr entry;
    std::int32_t grown = 0;
  };
  // Charge the meter; a refusal drops the packet here.
  struct Meter {
    std::uint32_t meter_id = 0;
    std::int32_t grown = 0;
  };
  // Send the frame out of an existing port (a port that is down counts it
  // as tx_dropped).
  struct Output {
    std::uint32_t port = 0;
    std::uint32_t queue_id = 0;
    std::uint32_t frame = kIngressFrame;
  };
  // Punt to the controller: the packet's first controller output (later
  // ones are ignored).
  struct Punt {
    std::uint64_t cookie = 0;
    std::uint32_t frame = kIngressFrame;
    std::uint16_t max_len = 0;  // PacketIn data bytes
    std::uint8_t table_id = 0;
    openflow::PacketInReason reason = openflow::PacketInReason::NoMatch;
  };
  // NORMAL learning: the source MAC sits behind the ingress port.
  struct Learn {
    std::uint64_t mac = 0;
  };
  // NORMAL flood: the next `outputs` outputs, dropped whole when the flood
  // deduper saw the frame inside its window.
  struct Flood {
    std::uint32_t frame = kIngressFrame;
    std::uint32_t outputs = 0;
  };
  // An action cannot apply to the packet (or a meter would refuse it):
  // drop it here.
  struct Drop {};
  using Op = std::variant<Credit, Meter, Output, Punt, Learn, Flood, Drop>;

  std::vector<Op> ops;
  // Wire bytes of the packet after rewrites, one per rewritten state that
  // an output, punt or flood carries.
  std::vector<net::Bytes> rewritten;
  // False for verdicts that do not hold for the flow's next packet: a
  // rewrite reached an up port or a punt, NORMAL ran, or the packet
  // dropped.
  bool cacheable = true;
};

class MegaflowCache {
 public:
  // Per-packet hit/miss/eviction counts go to the owner's ShardStats
  // slots (plain stores on a private cacheline); the owner binds those
  // slots to the registry counters. `shard` must outlive the cache.
  MegaflowCache(std::size_t capacity, bool enabled, obs::ShardStats& shard,
                std::size_t hit_slot, std::size_t miss_slot,
                std::size_t evict_slot)
      : capacity_(capacity),
        enabled_(enabled),
        shard_(&shard),
        hit_slot_(hit_slot),
        miss_slot_(miss_slot),
        evict_slot_(evict_slot) {}

  // Returns the verdict if present and current. The first call under a new
  // version drops all (stale) entries.
  const CachedVerdict* find(const net::FlowKey& key, std::uint64_t version);

  // Read-only probe for the explain engine: no counter bumps, no stale-entry
  // erasure, no shard traffic. Stale entries report as absent, exactly as
  // find() would treat them.
  const CachedVerdict* peek(const net::FlowKey& key,
                            std::uint64_t version) const noexcept;

  void insert(const net::FlowKey& key, CachedVerdict verdict,
              std::uint64_t version);

  void clear() noexcept { map_.clear(); }

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept {
    enabled_ = on;
    if (!on) clear();
  }

  std::size_t size() const noexcept { return map_.size(); }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  struct Slot {
    CachedVerdict verdict;
    std::uint64_t version = 0;
  };

  // Drops every entry when the pipeline version moved past last_version_.
  void sync_version(std::uint64_t version);
  void note_miss();

  std::size_t capacity_;
  bool enabled_;
  obs::ShardStats* shard_;  // never null
  std::size_t hit_slot_;
  std::size_t miss_slot_;
  std::size_t evict_slot_;
  std::unordered_map<net::FlowKey, Slot> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t last_version_ = 0;
  std::uint64_t evict_seed_ = 0x9e3779b97f4a7c15ULL;
};

}  // namespace zen::dataplane
