#include "sim/event_queue.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace ctflash::sim {

std::uint64_t EventQueue::ScheduleAt(Us at, EventCallback cb) {
  if (at < now_) {
    throw std::invalid_argument("EventQueue::ScheduleAt: time in the past");
  }
  if (!cb) throw std::invalid_argument("EventQueue::ScheduleAt: null callback");
  const std::uint64_t handle = next_handle_++;
  heap_.push_back(Entry{at, next_seq_++, handle, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  ++live_events_;
  return handle;
}

std::uint64_t EventQueue::ScheduleAfter(Us delay, EventCallback cb) {
  if (delay < 0) {
    throw std::invalid_argument("EventQueue::ScheduleAfter: negative delay");
  }
  return ScheduleAt(now_ + delay, std::move(cb));
}

bool EventQueue::Cancel(std::uint64_t handle) {
  if (handle == 0 || handle >= next_handle_) return false;
  if (IsCancelled(handle)) return false;
  // A fired event has left the heap; only a pending one can be cancelled.
  const bool pending =
      std::any_of(heap_.begin(), heap_.end(),
                  [handle](const Entry& e) { return e.handle == handle; });
  if (!pending) return false;
  // Removing from the middle of the heap is not worth it: mark and skip on
  // pop.
  cancelled_.push_back(handle);
  --live_events_;
  return true;
}

bool EventQueue::IsCancelled(std::uint64_t handle) const {
  return std::find(cancelled_.begin(), cancelled_.end(), handle) !=
         cancelled_.end();
}

bool EventQueue::Step() {
  while (!heap_.empty()) {
    // Move the entry out instead of copying: the std::function payload owns
    // heap storage, and this pop is the hottest line of the simulator.
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    Entry top = std::move(heap_.back());
    heap_.pop_back();
    if (!cancelled_.empty() && IsCancelled(top.handle)) {
      cancelled_.erase(
          std::find(cancelled_.begin(), cancelled_.end(), top.handle));
      continue;
    }
    now_ = top.at;
    --live_events_;
    top.cb(now_);
    return true;
  }
  return false;
}

std::uint64_t EventQueue::RunToCompletion() {
  std::uint64_t fired = 0;
  while (Step()) ++fired;
  return fired;
}

std::uint64_t EventQueue::RunUntil(Us deadline) {
  std::uint64_t fired = 0;
  while (!heap_.empty()) {
    if (heap_.front().at > deadline) break;
    if (Step()) ++fired;
  }
  if (now_ < deadline) now_ = deadline;
  return fired;
}

}  // namespace ctflash::sim
