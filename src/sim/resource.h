// A counted resource with FIFO queuing, the building block for modeling the
// filer's CPU and device arms. Tracks a busy-time integral so benchmark code
// can report utilization over any window (the CPU % columns of Tables 3-5).
//
// Two scheduling classes support backup QoS (DESIGN.md §15): class 0
// (foreground, the default) and class 1 (background). Within a class the
// queue is strictly FIFO; across classes every queued foreground request is
// served before any queued background request, and a foreground acquire may
// overtake background waiters that were already parked. Background work can
// therefore starve under sustained foreground load — which is exactly the
// "backup never starves user traffic" contract.
#ifndef BKUP_SIM_RESOURCE_H_
#define BKUP_SIM_RESOURCE_H_

#include <array>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/sim/environment.h"
#include "src/sim/task.h"
#include "src/util/units.h"

namespace bkup {

class Resource;

// Observation hook for resource state changes. Observers are notified after
// every occupancy change (acquire, release, waiter grant) with the new
// in-use count; the tracer builds its counter tracks on top of this.
// Observers must detach before either the resource or the observer is
// destroyed.
class ResourceObserver {
 public:
  virtual ~ResourceObserver() = default;
  virtual void OnResourceChange(const Resource& res, SimTime now,
                                int64_t in_use) = 0;
};

// Scheduling classes for Acquire/Use. Lower is more urgent.
inline constexpr int kPriorityForeground = 0;
inline constexpr int kPriorityBackground = 1;
inline constexpr int kNumResourcePriorities = 2;

class Resource {
 public:
  Resource(SimEnvironment* env, int64_t capacity, std::string name)
      : env_(env), capacity_(capacity), available_(capacity),
        name_(std::move(name)) {
    assert(capacity > 0);
  }

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  const std::string& name() const { return name_; }
  SimEnvironment* env() const { return env_; }
  int64_t capacity() const { return capacity_; }
  int64_t in_use() const { return capacity_ - available_; }

  // Observation: the vector is empty in the common case, so the per-change
  // cost of the hook is one branch.
  void AddObserver(ResourceObserver* observer);
  void RemoveObserver(ResourceObserver* observer);

  // Awaitable: obtains `units` of the resource, FIFO-fair within its
  // priority class. A foreground (0) acquire may overtake parked background
  // waiters but never parked foreground ones; a background (1) acquire
  // queues behind everything.
  //   co_await cpu.Acquire();
  //   co_await arm.Acquire(1, kPriorityBackground);
  auto Acquire(int64_t units = 1, int priority = kPriorityForeground) {
    struct Awaiter {
      Resource* res;
      int64_t units;
      int priority;
      bool await_ready() {
        if (res->QueuesEmptyThrough(priority) && res->available_ >= units) {
          res->Take(units);
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        res->waiters_[priority].push_back(Waiter{units, h});
      }
      void await_resume() const noexcept {}
    };
    assert(units > 0 && units <= capacity_);
    assert(priority >= 0 && priority < kNumResourcePriorities);
    return Awaiter{this, units, priority};
  }

  // Returns `units` and grants waiters that now fit: all of class 0 first
  // (strict FIFO, stopping at the first that does not fit so large requests
  // cannot be starved by small ones), then class 1 only while class 0 is
  // empty.
  void Release(int64_t units = 1);

  // Convenience process: hold `units` for `d` of simulated time.
  //   co_await cpu.Use(1, cost);
  Task Use(int64_t units, SimDuration d,
           int priority = kPriorityForeground);

  // Integral of in_use over time, in unit-microseconds, up to `now`.
  // Utilization over [t0, t1] = (BusyIntegral@t1 - BusyIntegral@t0)
  //                             / (capacity * (t1 - t0)).
  int64_t BusyIntegral() const;

 private:
  struct Waiter {
    int64_t units;
    std::coroutine_handle<> handle;
  };

  // True when every waiter queue of class <= priority is empty — the gate a
  // fresh acquire of that class must pass to take units immediately.
  bool QueuesEmptyThrough(int priority) const {
    for (int p = 0; p <= priority; ++p) {
      if (!waiters_[p].empty()) {
        return false;
      }
    }
    return true;
  }

  void Take(int64_t units);
  void AccountToNow() const;
  void NotifyObservers();

  SimEnvironment* env_;
  int64_t capacity_;
  int64_t available_;
  std::string name_;
  std::array<std::deque<Waiter>, kNumResourcePriorities> waiters_;
  std::vector<ResourceObserver*> observers_;

  // Busy accounting (mutable: reading the integral advances it to `now`).
  mutable SimTime last_change_ = 0;
  mutable int64_t busy_integral_ = 0;
};

}  // namespace bkup

#endif  // BKUP_SIM_RESOURCE_H_
