#include "src/sim/environment.h"

#include <cassert>
#include <vector>

#include "src/util/logging.h"

namespace bkup {

namespace {

// Stack of live environments (a bench may nest a fresh one per
// measurement); the newest is "active" and its clock prefixes log messages.
// Registration is what lets log messages carry simulated time without util
// depending on sim, and `g_active` caches the top so the lookup on the
// logging path is a single pointer read.
std::vector<SimEnvironment*> g_env_stack;
SimEnvironment* g_active = nullptr;

int64_t ActiveSimTimeMicros() {
  return g_active != nullptr ? g_active->now() : -1;
}

}  // namespace

SimEnvironment::SimEnvironment() {
  g_env_stack.push_back(this);
  g_active = this;
  SetSimLogClock(&ActiveSimTimeMicros);
}

SimEnvironment::~SimEnvironment() {
  // Remove the newest occurrence; environments normally unwind LIFO but a
  // bench may destroy them out of order.
  for (size_t i = g_env_stack.size(); i > 0; --i) {
    if (g_env_stack[i - 1] == this) {
      g_env_stack.erase(g_env_stack.begin() + static_cast<ptrdiff_t>(i - 1));
      break;
    }
  }
  // Re-arm the new stack top (or disarm the sim clock entirely) so log
  // prefixes fall back to the enclosing environment's clock instead of
  // dangling on the destroyed one.
  g_active = g_env_stack.empty() ? nullptr : g_env_stack.back();
  SetSimLogClock(g_active != nullptr ? &ActiveSimTimeMicros : nullptr);
}

void SimEnvironment::Spawn(Task task) {
  auto handle = task.Release();
  assert(handle && "spawning an empty task");
  handle.promise().started = true;
  ScheduleNow(handle);
}

SimTime SimEnvironment::Run() {
  while (!queue_.Empty()) {
    const QueuedEvent ev = queue_.Pop();  // moved out once; no copy-then-pop
    now_ = ev.when;
    ++events_processed_;
    ev.handle.resume();
  }
  return now_;
}

SimTime SimEnvironment::RunUntil(SimTime deadline) {
  while (!queue_.Empty() && queue_.NextTime() <= deadline) {
    const QueuedEvent ev = queue_.Pop();
    now_ = ev.when;
    ++events_processed_;
    ev.handle.resume();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return now_;
}

}  // namespace bkup
