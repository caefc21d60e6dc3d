// The discrete-event simulation environment: a virtual clock and an event
// queue of coroutine resumptions. Fully deterministic: events at equal
// times run in schedule (FIFO) order. The whole simulation runs on one
// thread (DESIGN.md §17).
#ifndef BKUP_SIM_ENVIRONMENT_H_
#define BKUP_SIM_ENVIRONMENT_H_

#include <cassert>
#include <coroutine>
#include <cstdint>

#include "src/sim/event_queue.h"
#include "src/sim/task.h"
#include "src/util/units.h"

namespace bkup {

class Tracer;  // src/obs/trace.h

class SimEnvironment {
 public:
  SimEnvironment();
  ~SimEnvironment();
  SimEnvironment(const SimEnvironment&) = delete;
  SimEnvironment& operator=(const SimEnvironment&) = delete;

  // Optional span tracer (src/obs/trace.h) attached to this environment.
  // Owned by the caller; the TRACE_* macros and instrumented subsystems
  // no-op when it is null.
  Tracer* tracer() const { return tracer_; }
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  SimTime now() const { return now_; }

  // Schedules a coroutine resumption at absolute time `when` (>= now).
  void ScheduleAt(SimTime when, std::coroutine_handle<> handle) {
    assert(when >= now_ && "cannot schedule into the simulated past");
    queue_.Push(when, next_seq_++, handle);
  }
  void ScheduleNow(std::coroutine_handle<> handle) { ScheduleAt(now_, handle); }

  // Launches a top-level simulated process. The process starts at the
  // current simulated time when the event loop reaches it.
  void Spawn(Task task);

  // Runs until the event queue drains. Returns the final simulated time.
  SimTime Run();

  // Runs until the queue drains or the clock passes `deadline`; the clock
  // is clamped forward to `deadline` if the queue ran dry early.
  SimTime RunUntil(SimTime deadline);

  bool idle() const { return queue_.Empty(); }

  // Awaitable: suspend the current task for `d` simulated time.
  //   co_await env.Delay(50 * kMillisecond);
  auto Delay(SimDuration d) {
    struct Awaiter {
      SimEnvironment* env;
      SimDuration duration;
      bool await_ready() const noexcept { return duration <= 0; }
      void await_suspend(std::coroutine_handle<> h) {
        env->ScheduleAt(env->now_ + duration, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  uint64_t events_processed() const { return events_processed_; }

 private:
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  Tracer* tracer_ = nullptr;
  EventQueue queue_;
};

}  // namespace bkup

#endif  // BKUP_SIM_ENVIRONMENT_H_
