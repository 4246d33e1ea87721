// Discrete-event simulation core.
//
// EventQueue is a classic calendar: callbacks scheduled at absolute
// microsecond timestamps, executed in (time, sequence) order so same-time
// events fire in scheduling order (deterministic replay).  The SSD model uses
// it to drive trace arrivals; resource contention is modeled by the
// ResourceTimeline in resource.h.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/types.h"

namespace ctflash::sim {

using EventCallback = std::function<void(Us now)>;

class EventQueue {
 public:
  EventQueue() = default;

  /// Current simulated time (time of the most recently fired event).
  Us Now() const { return now_; }

  /// Schedules `cb` at absolute time `at` (must be >= Now()).
  /// Returns a handle usable with Cancel().
  std::uint64_t ScheduleAt(Us at, EventCallback cb);

  /// Schedules `cb` `delay` microseconds from now.
  std::uint64_t ScheduleAfter(Us delay, EventCallback cb);

  /// Cancels a pending event; returns false if already fired/cancelled.
  /// O(pending): the handle is looked up in the heap, so Step pays nothing
  /// for cancellation support while nothing is cancelled.
  bool Cancel(std::uint64_t handle);

  /// Fires the next event; returns false when the queue is empty.
  bool Step();

  /// Runs until the queue drains. Returns the number of events fired.
  std::uint64_t RunToCompletion();

  /// Runs events with time <= deadline. Time advances to at most deadline.
  std::uint64_t RunUntil(Us deadline);

  bool Empty() const { return live_events_ == 0; }
  std::size_t PendingCount() const { return live_events_; }

 private:
  struct Entry {
    Us at;
    std::uint64_t seq;
    std::uint64_t handle;
    EventCallback cb;
    bool operator>(const Entry& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  /// Min-heap on (at, seq) via std::push_heap/pop_heap with greater<>;
  /// a plain vector so Cancel can tell a pending handle from a fired one.
  std::vector<Entry> heap_;
  std::vector<std::uint64_t> cancelled_;  // sorted-insert not needed; small
  Us now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_handle_ = 1;
  std::size_t live_events_ = 0;

  bool IsCancelled(std::uint64_t handle) const;
};

}  // namespace ctflash::sim
