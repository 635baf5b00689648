// Discrete-event queue: the simulator's virtual clock.
//
// Events at equal times fire in scheduling order (a monotonic sequence
// number breaks ties), which keeps runs deterministic.
//
// Event records
// -------------
// The heap sifts 24-byte {at, seq, slot, kind} entries; what an event does
// lives in a slab record the entry points at, so a sift never moves a
// closure. Two record kinds:
//
//   closures — a std::function (timers, control-plane work);
//   typed    — a (Handler*, arg) pair: POD, so scheduling one never
//              allocates. The packet path (deliveries, link tx-complete)
//              uses these; `arg` names the handler's own pooled record.
//
// Slab slots are recycled through free lists, so a warm queue allocates
// nothing per event.
//
// The queue is single-threaded: one event runs at a time, to completion,
// on the caller's thread.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/shard_stats.h"

namespace zen::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  // Receiver of typed events: fire(arg) runs the event.
  class Handler {
   public:
    virtual void fire(std::uint32_t arg) = 0;

   protected:
    ~Handler() = default;
  };

  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  double now() const noexcept { return now_; }

  // Schedules `fn` at absolute time `at` (clamped to now).
  void schedule_at(double at, Callback fn);

  // Schedules `fn` after `delay` seconds.
  void schedule_in(double delay, Callback fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  // Typed counterpart: `handler.fire(arg)` at `at` (clamped to now). The
  // handler must outlive the event.
  void post_at(double at, Handler& handler, std::uint32_t arg);

  // Runs the next event. Returns false if the queue is empty.
  bool step();

  // Runs events with time <= until (advances the clock to `until` even if
  // the queue drains early).
  void run_until(double until);

  // Runs until the queue is empty or `max_events` fired; returns the count.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t pending() const noexcept { return heap_.size(); }

 private:
  enum class Kind : std::uint32_t { kClosure, kTyped };
  struct Entry {
    double at;
    std::uint64_t seq;
    std::uint32_t slot;
    Kind kind;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  struct Typed {
    Handler* handler = nullptr;
    std::uint32_t arg = 0;
  };
  // Records addressed by slot; released slots are reused first.
  template <typename T>
  struct Slab {
    std::vector<T> items;
    std::vector<std::uint32_t> free;
    std::uint32_t put(T item);
    T take(std::uint32_t slot);
  };

  void push(double at, std::uint32_t slot, Kind kind);

  double now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Entry> heap_;  // binary min-heap under Later{}
  Slab<Callback> closures_;
  Slab<Typed> typed_;
  // Executed-event count, drained into zen_sim_events_total on snapshot
  // (a plain store per event instead of a shared atomic RMW).
  obs::ShardStats stats_;
};

}  // namespace zen::sim
