#include "dataplane/group_table.h"

#include <numeric>

namespace zen::dataplane {

bool GroupTable::apply(const openflow::GroupMod& mod) {
  const auto it = groups_.find(mod.group_id);
  switch (mod.command) {
    case openflow::GroupModCommand::Add: {
      if (it != groups_.end()) return false;
      if (mod.type == openflow::GroupType::Select) {
        std::uint32_t total = 0;
        for (const auto& b : mod.buckets) total += b.weight;
        if (total == 0) return false;
      }
      if (mod.type == openflow::GroupType::Indirect && mod.buckets.size() != 1)
        return false;
      groups_.emplace(mod.group_id, Group{mod.type, mod.buckets});
      return true;
    }
    case openflow::GroupModCommand::Modify: {
      if (it == groups_.end()) return false;
      if (mod.type == openflow::GroupType::Select) {
        std::uint32_t total = 0;
        for (const auto& b : mod.buckets) total += b.weight;
        if (total == 0) return false;
      }
      it->second.type = mod.type;
      it->second.buckets = mod.buckets;
      return true;
    }
    case openflow::GroupModCommand::Delete: {
      if (it == groups_.end()) return false;
      groups_.erase(it);
      return true;
    }
  }
  return false;
}

const Group* GroupTable::find(std::uint32_t group_id) const noexcept {
  const auto it = groups_.find(group_id);
  return it == groups_.end() ? nullptr : &it->second;
}

Group* GroupTable::find(std::uint32_t group_id) noexcept {
  const auto it = groups_.find(group_id);
  return it == groups_.end() ? nullptr : &it->second;
}

const openflow::Bucket* GroupTable::select_bucket(
    const Group& group, const net::FlowKey& key, const PortLiveFn& port_live,
    SelectExplain* ex) const noexcept {
  const auto chosen = [&](const openflow::Bucket* bucket) {
    if (ex && bucket)
      ex->bucket_index = static_cast<int>(bucket - group.buckets.data());
    return bucket;
  };
  if (group.buckets.empty()) return nullptr;
  if (group.type == openflow::GroupType::FastFailover) {
    for (const auto& bucket : group.buckets) {
      if (bucket.watch_port == openflow::Ports::kAny || !port_live ||
          port_live(bucket.watch_port))
        return chosen(&bucket);
      if (ex) ++ex->dead_skipped;
    }
    return nullptr;  // all watched ports down: drop
  }
  if (group.type != openflow::GroupType::Select)
    return chosen(&group.buckets.front());

  const std::uint64_t total = std::accumulate(
      group.buckets.begin(), group.buckets.end(), std::uint64_t{0},
      [](std::uint64_t acc, const openflow::Bucket& b) { return acc + b.weight; });
  if (total == 0) return nullptr;

  std::uint64_t point = key.hash() % total;
  if (ex) {
    ex->hash_point = point;
    ex->total_weight = total;
  }
  for (const auto& bucket : group.buckets) {
    if (point < bucket.weight) return chosen(&bucket);
    point -= bucket.weight;
  }
  return chosen(&group.buckets.back());
}

}  // namespace zen::dataplane
