// Group table: indirection for multicast (All), ECMP-style selection
// (Select, weighted hash over the flow key), and single-bucket Indirect.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/flow_key.h"
#include "openflow/messages.h"

namespace zen::dataplane {

struct Group {
  openflow::GroupType type = openflow::GroupType::All;
  std::vector<openflow::Bucket> buckets;
};

class GroupTable {
 public:
  // Applies a GroupMod. Returns false (with no change) on: Add of an
  // existing id, Modify/Delete of a missing id, or a Select group whose
  // total weight is zero.
  bool apply(const openflow::GroupMod& mod);

  const Group* find(std::uint32_t group_id) const noexcept;
  Group* find(std::uint32_t group_id) noexcept;

  // Port-liveness oracle for FastFailover evaluation.
  using PortLiveFn = std::function<bool(std::uint32_t port)>;

  // How one bucket selection was made, for the explain engine: the chosen
  // bucket's index, and (Select groups) where the flow hash landed in the
  // cumulative weight space.
  struct SelectExplain {
    int bucket_index = -1;  // -1 = no bucket qualified (drop)
    std::uint64_t hash_point = 0;
    std::uint64_t total_weight = 0;
    // FastFailover: watched buckets skipped because their port was dead.
    int dead_skipped = 0;
  };

  // Picks the bucket for `key`: weighted hash for Select (deterministic in
  // (group, key) so a flow always takes one path), the first live bucket
  // for FastFailover (first bucket overall if `port_live` is null), the
  // single bucket otherwise. Returns nullptr if no bucket qualifies.
  // `ex`, when non-null, receives the selection record.
  const openflow::Bucket* select_bucket(
      const Group& group, const net::FlowKey& key,
      const PortLiveFn& port_live = nullptr,
      SelectExplain* ex = nullptr) const noexcept;

  std::size_t size() const noexcept { return groups_.size(); }

  // Drops every group (switch reboot).
  void clear() noexcept { groups_.clear(); }

 private:
  std::unordered_map<std::uint32_t, Group> groups_;
};

}  // namespace zen::dataplane
