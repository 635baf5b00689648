// Megaflow-style exact-match flow cache.
//
// Sits in front of the multi-table pipeline: the first packet of a flow
// runs the full pipeline and the resulting verdict (output set / packet-in /
// drop, plus the entries to credit and meters to charge) is cached keyed by
// the exact FlowKey. Subsequent packets of the flow skip the classifier.
//
// Invalidation is coarse, as in early Open vSwitch: any flow/group table
// change bumps a global version; the first probe under a new version drops
// the whole (now entirely stale) table at once. Capacity eviction is
// random-replacement (cheap, and what a kernel flow cache approximates
// under churn).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dataplane/flow_table.h"
#include "net/flow_key.h"
#include "obs/shard_stats.h"
#include "openflow/actions.h"

namespace zen::dataplane {

// The cached outcome of one pipeline traversal.
struct CachedVerdict {
  struct PortQueue {
    std::uint32_t port = 0;
    std::uint32_t queue_id = 0;
  };
  // A meter on the path, with how much of the verdict the pipeline had
  // carried out when it reached the meter: a refusal keeps exactly that
  // (credits, outputs, PacketIn) and drops the rest.
  struct Meter {
    std::uint32_t meter_id = 0;
    std::size_t credited_before = 0;
    std::size_t outputs_before = 0;
    bool to_controller_before = false;
  };
  // Concrete egress ports (reserved ports already resolved except
  // kController), in pipeline order. Outputs to a port that was down count
  // as its tx_dropped, as the pipeline does.
  std::vector<PortQueue> out_ports;
  // The first controller output of the pipeline (later ones are ignored).
  bool to_controller = false;
  std::uint8_t controller_table = 0;
  std::uint64_t controller_cookie = 0;
  std::uint16_t controller_max_len = 0;  // PacketIn data bytes
  bool miss = false;  // table-miss (controller punt uses reason NoMatch)
  // Entries to credit stats on each cached hit, in pipeline order.
  std::vector<FlowEntryPtr> credited;
  // Meters to charge, in pipeline order; the first refusal drops the packet.
  std::vector<Meter> meters;
  // Packet rewrites are NOT cacheable in this design (see switch.cc); a
  // verdict with rewrites sets this flag and is never inserted.
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
