#include "sim/event_queue.h"

#include <algorithm>

#include "obs/metrics.h"
#include "sim/engine.h"

namespace zen::sim {

namespace {

constexpr std::size_t kSlotEvents = 0;

struct QueueMetrics {
  obs::Counter& events;
  obs::Counter& parallel_events;
  obs::Counter& slices;
  obs::Gauge& depth;
  static QueueMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static QueueMetrics m{
        reg.counter("zen_sim_events_total", "",
                    "Discrete events executed across all event queues"),
        reg.counter("zen_sim_parallel_events_total", "",
                    "Sharded events dispatched through a parallel slice"),
        reg.counter("zen_sim_parallel_slices_total", "",
                    "Parallel slices (same-instant sharded runs of >= 2)"),
        reg.gauge("zen_sim_queue_depth", "",
                  "Pending events after the most recent step")};
    return m;
  }
};

// Trampolines so a sharded record can ride in an engine Task's fn/ctx pair.
void run_phased_compute(void* ctx) {
  (*static_cast<EventQueue::PhasedCallback*>(ctx))(
      EventQueue::Phase::kCompute);
}

}  // namespace

template <typename T>
std::uint32_t EventQueue::Slab<T>::put(T item) {
  if (free.empty()) {
    items.push_back(std::move(item));
    return static_cast<std::uint32_t>(items.size() - 1);
  }
  const std::uint32_t slot = free.back();
  free.pop_back();
  items[slot] = std::move(item);
  return slot;
}

template <typename T>
T EventQueue::Slab<T>::take(std::uint32_t slot) {
  T out = std::move(items[slot]);
  free.push_back(slot);
  return out;
}

EventQueue::EventQueue() {
  stats_.bind(kSlotEvents, QueueMetrics::get().events);
}

void EventQueue::push(double at, std::uint32_t slot, Kind kind) {
  heap_.push_back(Entry{std::max(at, now_), next_seq_++, slot, kind});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::schedule_at(double at, Callback fn) {
  push(at, closures_.put(Closure{std::move(fn), nullptr, 0}), Kind::kClosure);
}

void EventQueue::schedule_sharded_at(double at, std::uint64_t key,
                                     PhasedCallback fn) {
  push(at, closures_.put(Closure{nullptr, std::move(fn), key}), Kind::kPhased);
}

void EventQueue::post_at(double at, Handler& handler, std::uint32_t arg) {
  push(at, typed_.put(Typed{&handler, 0, arg}), Kind::kTyped);
}

void EventQueue::post_sharded_at(double at, std::uint64_t key,
                                 Handler& handler, std::uint32_t arg) {
  push(at, typed_.put(Typed{&handler, key, arg}), Kind::kTypedSharded);
}

// The record is taken (its slot freed) before it runs, so whatever it
// schedules may reuse the slot.
void EventQueue::run_inline(const Entry& e) {
  switch (e.kind) {
    case Kind::kClosure:
      closures_.take(e.slot).fn();
      break;
    case Kind::kPhased: {
      // Inline mode: both phases back to back, exactly the seq-order
      // behavior a plain event would have. This is the determinism anchor
      // the parallel path is validated against.
      const PhasedCallback fn = closures_.take(e.slot).phased;
      fn(Phase::kCompute);
      fn(Phase::kApply);
      break;
    }
    case Kind::kTyped:
    case Kind::kTypedSharded: {
      const Typed t = typed_.take(e.slot);
      t.handler->fire(t.arg);
      break;
    }
  }
}

std::size_t EventQueue::step_slice() {
  if (heap_.empty()) return 0;

  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry head = heap_.back();
  heap_.pop_back();
  now_ = head.at;

  if (!head.sharded() || engine_ == nullptr) {
    run_inline(head);
    stats_.bump(kSlotEvents);
    QueueMetrics::get().depth.set(static_cast<double>(heap_.size()));
    return 1;
  }

  // Peel the maximal contiguous run of sharded events at this instant.
  // A plain event at the same time ends the slice: plain events carry no
  // shard key, so we conservatively treat them as conflicting with
  // everything and fall back to strict seq order around them.
  slice_.clear();
  slice_.push_back(head);
  while (!heap_.empty() && heap_.front().at == now_ &&
         heap_.front().sharded()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    slice_.push_back(heap_.back());
    heap_.pop_back();
  }
  // pop order respects Later{}, so slice_ is already in seq order.

  auto& metrics = QueueMetrics::get();
  if (slice_.size() == 1) {
    run_inline(slice_[0]);
  } else {
    // Phase 1: fan the per-shard computes out across the pool. Same key ->
    // same worker in slice (seq) order, so per-entity effects stay ordered.
    // Computes may not schedule, so the slab records stay put meanwhile.
    std::vector<ParallelEngine::Task> tasks;
    tasks.reserve(slice_.size());
    for (const Entry& e : slice_) {
      if (e.kind == Kind::kPhased) {
        Closure& c = closures_.items[e.slot];
        tasks.push_back(ParallelEngine::Task{c.key, &c.phased,
                                             &run_phased_compute});
      } else {
        Typed& t = typed_.items[e.slot];
        tasks.push_back(ParallelEngine::Task{
            t.key, &t, [](void* ctx) {
              const auto* rec = static_cast<const Typed*>(ctx);
              rec->handler->compute(rec->arg);
            }});
      }
    }
    engine_->run_batch(tasks);

    // Phase 2: applies in seq order on this (the coordinator) thread.
    // run_batch was a quiescence barrier, so applies may freely mutate
    // shared state and schedule follow-on events (which get fresh seqs
    // and thus fire after this slice, matching the inline order).
    for (const Entry& e : slice_) {
      if (e.kind == Kind::kPhased) {
        closures_.take(e.slot).phased(Phase::kApply);
      } else {
        const Typed t = typed_.take(e.slot);
        t.handler->apply(t.arg);
      }
    }

    parallel_events_ += slice_.size();
    metrics.parallel_events.inc(slice_.size());
    metrics.slices.inc();
  }

  const std::size_t n = slice_.size();
  slice_.clear();
  stats_.bump(kSlotEvents, n);
  metrics.depth.set(static_cast<double>(heap_.size()));
  return n;
}

bool EventQueue::step() { return step_slice() > 0; }

void EventQueue::run_until(double until) {
  while (!heap_.empty() && heap_.front().at <= until) step_slice();
  now_ = std::max(now_, until);
}

std::size_t EventQueue::run(std::size_t max_events) {
  std::size_t fired = 0;
  while (fired < max_events) {
    const std::size_t n = step_slice();
    if (n == 0) break;
    fired += n;
  }
  return fired;
}

}  // namespace zen::sim
