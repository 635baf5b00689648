// ShardStats: cacheline-aligned, batch-flushed hot-path counters.
//
// Global Counter handles are shared atomics: every inc is a lock-prefixed
// RMW on a cacheline contended by whoever else holds the handle. A
// ShardStats block gives one owner (a dataplane switch, an event queue) a
// private set of cacheline-aligned slots it bumps with plain load/store —
// no RMW, no sharing — and binds each slot to a registry Counter. Deltas
// drain lazily: MetricsRegistry flushes every registered shard before
// taking a snapshot or rendering, so readers always see up-to-date totals
// while the hot path never touches the shared cacheline.
//
// flush() uses exchange(), so a concurrent flusher cannot double count;
// bump() stays single-writer (the shard's owner). The simulator is
// single-threaded, so owner and flusher are the same thread there; a block
// owned by another thread must only be flushed once that thread stopped
// bumping it (its destructor flushes the residue).
//
// Under ZEN_OBS_DISABLED the type is empty and every method is an inline
// no-op.
#pragma once

#include <cstdint>

#ifndef ZEN_OBS_DISABLED
#include <atomic>
#endif

namespace zen::obs {

class Counter;

class ShardStats {
 public:
  static constexpr std::size_t kSlots = 8;

#ifndef ZEN_OBS_DISABLED
  ShardStats();   // registers with MetricsRegistry's flush list
  ~ShardStats();  // flushes residue, then unregisters
  ShardStats(const ShardStats&) = delete;
  ShardStats& operator=(const ShardStats&) = delete;

  // Binds `slot` to a registry counter; unbound slots accumulate silently.
  void bind(std::size_t slot, Counter& target) noexcept;

  // Single-writer increment: plain load+store, no atomic RMW.
  void bump(std::size_t slot, std::uint64_t n = 1) noexcept {
    auto& pending = slots_[slot].pending;
    pending.store(pending.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
  }

  // Drains pending deltas into the bound counters.
  void flush() noexcept;

  // Undrained count in one slot (tests: verify lazy aggregation — the sum
  // of per-shard pendings plus the bound counters' values must equal the
  // true totals at any quiesced point).
  std::uint64_t pending(std::size_t slot) const noexcept {
    return slots_[slot].pending.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> pending{0};
    Counter* target = nullptr;
  };
  Slot slots_[kSlots];
#else
  void bind(std::size_t, Counter&) noexcept {}
  void bump(std::size_t, std::uint64_t = 1) noexcept {}
  void flush() noexcept {}
  std::uint64_t pending(std::size_t) const noexcept { return 0; }
#endif
};

}  // namespace zen::obs
