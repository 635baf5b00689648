#include "sim/event_queue.h"

#include <algorithm>

#include "obs/metrics.h"

namespace zen::sim {

namespace {

constexpr std::size_t kSlotEvents = 0;

struct QueueMetrics {
  obs::Counter& events;
  obs::Gauge& depth;
  static QueueMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static QueueMetrics m{
        reg.counter("zen_sim_events_total", "",
                    "Discrete events executed across all event queues"),
        reg.gauge("zen_sim_queue_depth", "",
                  "Pending events after the most recent step")};
    return m;
  }
};

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
  push(at, closures_.put(std::move(fn)), Kind::kClosure);
}

void EventQueue::post_at(double at, Handler& handler, std::uint32_t arg) {
  push(at, typed_.put(Typed{&handler, arg}), Kind::kTyped);
}

// The record is taken (its slot freed) before it runs, so whatever it
// schedules may reuse the slot.
bool EventQueue::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry e = heap_.back();
  heap_.pop_back();
  now_ = e.at;
  if (e.kind == Kind::kClosure) {
    closures_.take(e.slot)();
  } else {
    const Typed t = typed_.take(e.slot);
    t.handler->fire(t.arg);
  }
  stats_.bump(kSlotEvents);
  QueueMetrics::get().depth.set(static_cast<double>(heap_.size()));
  return true;
}

void EventQueue::run_until(double until) {
  while (!heap_.empty() && heap_.front().at <= until) step();
  now_ = std::max(now_, until);
}

std::size_t EventQueue::run(std::size_t max_events) {
  std::size_t fired = 0;
  while (fired < max_events && step()) ++fired;
  return fired;
}

}  // namespace zen::sim
