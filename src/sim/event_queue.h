// The simulator's pending-event set: a binary min-heap on (when, seq).
// Events pop in ascending time order, and simultaneous events stay FIFO
// by schedule order because `seq` is issued monotonically (DESIGN.md §17).
#ifndef BKUP_SIM_EVENT_QUEUE_H_
#define BKUP_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/units.h"

namespace bkup {

struct QueuedEvent {
  SimTime when;
  uint64_t seq;  // FIFO tiebreak for simultaneous events
  std::coroutine_handle<> handle;
};

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  bool Empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  void Push(SimTime when, uint64_t seq, std::coroutine_handle<> handle) {
    heap_.push_back(QueuedEvent{when, seq, handle});
    std::push_heap(heap_.begin(), heap_.end(), After);
  }

  // Timestamp of the (when, seq)-minimal event. Queue must not be empty.
  SimTime NextTime() const {
    assert(!heap_.empty() && "NextTime on an empty event queue");
    return heap_.front().when;
  }

  // Removes and returns the (when, seq)-minimal event. Queue must not be
  // empty.
  QueuedEvent Pop() {
    assert(!heap_.empty() && "Pop on an empty event queue");
    std::pop_heap(heap_.begin(), heap_.end(), After);
    const QueuedEvent ev = heap_.back();
    heap_.pop_back();
    return ev;
  }

 private:
  // Heap comparator: `a` orders after `b`, which makes the std heap a
  // min-heap on (when, seq).
  static bool After(const QueuedEvent& a, const QueuedEvent& b) {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }

  std::vector<QueuedEvent> heap_;
};

}  // namespace bkup

#endif  // BKUP_SIM_EVENT_QUEUE_H_
