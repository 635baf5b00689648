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
// Sharded events and the parallel slice
// -------------------------------------
// A *sharded* event is a two-phase event keyed by the entity it touches
// (e.g. a packet delivery keyed by destination switch):
//
//   Compute — reads/writes only state owned by `key`'s shard. May not
//             schedule events, touch other shards, or block.
//   Apply   — runs on the coordinator thread with exclusive access to
//             everything; may schedule, transmit, call controllers.
//
// Without an engine installed, a sharded event behaves exactly like a
// plain event (Compute then Apply, inline, in seq order) — byte-identical
// to the single-threaded simulator. With an engine, step() peels the
// maximal contiguous run of sharded events at the head of the heap that
// share one timestamp, fans the Compute phases out across the engine's
// workers (same key -> same worker, FIFO), waits for quiescence, then
// runs every Apply phase in seq order. Because Apply order is the seq
// order either way, final state matches the inline run for any worker
// count.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/shard_stats.h"

namespace zen::sim {

class ParallelEngine;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  enum class Phase { kCompute, kApply };
  using PhasedCallback = std::function<void(Phase)>;

  // Receiver of typed events. fire() runs a whole event; a sharded typed
  // event inside a parallel slice runs compute() on its key's worker and
  // apply() later on the coordinator, which must together equal fire().
  class Handler {
   public:
    virtual void fire(std::uint32_t arg) = 0;
    virtual void compute(std::uint32_t) {}
    virtual void apply(std::uint32_t arg) { fire(arg); }

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

  // Schedules a two-phase sharded event (see header comment). Events with
  // equal keys at equal times keep their scheduling order through both
  // phases, so per-(switch,flow) packet order is preserved at any N.
  void schedule_sharded_at(double at, std::uint64_t key, PhasedCallback fn);
  void schedule_sharded_in(double delay, std::uint64_t key,
                           PhasedCallback fn) {
    schedule_sharded_at(now_ + delay, key, std::move(fn));
  }

  // Typed counterparts: `handler.fire(arg)` at `at` (clamped to now). The
  // handler must outlive the event.
  void post_at(double at, Handler& handler, std::uint32_t arg);
  void post_sharded_at(double at, std::uint64_t key, Handler& handler,
                       std::uint32_t arg);

  // Installs (or clears, with nullptr) the worker pool used for sharded
  // slices. Borrowed pointer; the engine must outlive the queue's run.
  void set_engine(ParallelEngine* engine) noexcept { engine_ = engine; }
  ParallelEngine* engine() const noexcept { return engine_; }

  // Runs the next event — or, when an engine is installed and the head of
  // the heap is a run of same-time sharded events, that whole slice.
  // Returns false if the queue is empty.
  bool step();

  // Runs events with time <= until (advances the clock to `until` even if
  // the queue drains early).
  void run_until(double until);

  // Runs until the queue is empty or at least `max_events` fired (a slice
  // that straddles the limit completes; the true count is returned).
  std::size_t run(std::size_t max_events = SIZE_MAX);

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t pending() const noexcept { return heap_.size(); }

  // Sharded events dispatched through the parallel path (slices of >= 2;
  // singleton slices and inline mode run on the coordinator).
  std::uint64_t parallel_events() const noexcept { return parallel_events_; }

 private:
  enum class Kind : std::uint32_t { kClosure, kPhased, kTyped, kTypedSharded };
  struct Entry {
    double at;
    std::uint64_t seq;
    std::uint32_t slot;
    Kind kind;
    bool sharded() const noexcept {
      return kind == Kind::kPhased || kind == Kind::kTypedSharded;
    }
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  struct Closure {
    Callback fn;            // plain closures
    PhasedCallback phased;  // sharded closures (exactly one is set)
    std::uint64_t key = 0;
  };
  struct Typed {
    Handler* handler = nullptr;
    std::uint64_t key = 0;
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
  // Runs one popped event start to finish (both phases when sharded).
  void run_inline(const Entry& e);
  // Pops the head dispatch unit (one plain event, or a sharded slice) and
  // runs it. Returns the number of events executed (0 when empty).
  std::size_t step_slice();

  double now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t parallel_events_ = 0;
  ParallelEngine* engine_ = nullptr;
  std::vector<Entry> heap_;  // binary min-heap under Later{}
  Slab<Closure> closures_;
  Slab<Typed> typed_;
  std::vector<Entry> slice_;  // scratch for the current sharded slice
  // Executed-event count, drained into zen_sim_events_total on snapshot
  // (a plain store per event instead of a shared atomic RMW).
  obs::ShardStats stats_;
};

}  // namespace zen::sim
