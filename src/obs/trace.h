// Simulated-time span tracing with Chrome trace-event export.
//
// A `Tracer` attaches to a `SimEnvironment` and records scoped spans
// (begin/end pairs), instant events, counter samples and cross-node flow
// events into a bounded ring buffer, all stamped with *simulated* time.
// `ToChromeJson()` exports the buffer as Chrome trace-event JSON — the
// format Perfetto and chrome://tracing load directly — with one named track
// per span/instant stream and one counter track per watched `Resource` (the
// filer CPU, every disk arm, every tape drive unit), so a backup job's
// bottleneck structure is visible as a timeline instead of one end-of-run
// percentage.
//
// Since the data path crossed the network (DESIGN.md §10) a single job's
// timeline spans *nodes* (filer → StreamConn → TapeServer) and
// *incarnations* (supervised reconnects, kill-resume restarts). Three
// additions stitch those back into one causal timeline:
//
//  - `TraceContext` — a (trace id, parent span, incarnation) triple minted
//    by `StartTrace()` from a deterministic counter. Spans and instants
//    recorded with a context carry `args: {trace, incarnation}` in the
//    export, so every event of one logical job — on either node, in any
//    incarnation — shares one trace id.
//  - Process tracks — `Process(name)` returns a dense pid; tracks created
//    with that pid render under a separate process row per node in
//    Perfetto (`process_name` metadata). Pid 1 is the default node (the
//    filer), so single-node traces are unchanged.
//  - Flow events — `FlowStart`/`FlowEnd` pairs (Chrome "s"/"f" phases)
//    with a shared id draw arrows from the sender's track to the
//    receiver's across the link. `StreamConn` emits one pair per frame;
//    `ReserveFlowIds()` hands out non-overlapping id blocks per
//    connection.
//
// Cost model: everything is pay-as-you-go. An unattached environment costs
// one null check per instrumentation site (the TRACE_* macros and the
// subsystems consult `env->tracer()` and bail when null); an attached
// tracer costs one ring-buffer append per event. When the ring fills, the
// oldest events are dropped and counted — recent history wins, which is the
// right bias for "why did the tail of this job stall". The drop counter is
// exported in `otherData.dropped_events` so a truncated ring is visible in
// the artifact instead of silently biasing the timeline.
#ifndef BKUP_OBS_TRACE_H_
#define BKUP_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/environment.h"
#include "src/sim/resource.h"
#include "src/util/status.h"

namespace bkup {

// Causal identity carried across the wire and across restarts: every event
// recorded under the same `trace_id` belongs to one logical job, no matter
// which node or incarnation produced it. `incarnation` counts supervised
// restarts (link reconnects, kill-resume attempts); the original run is 0.
struct TraceContext {
  uint64_t trace_id = 0;     // 0 = no trace (events carry no trace args)
  uint64_t parent_span = 0;  // span id of the spawning scope, 0 = root
  uint32_t incarnation = 0;  // supervised restart count within the trace

  bool valid() const { return trace_id != 0; }
  TraceContext NextIncarnation() const {
    return TraceContext{trace_id, parent_span, incarnation + 1};
  }
};

struct TraceEvent {
  enum class Kind : uint8_t {
    kBegin,
    kEnd,
    kInstant,
    kCounter,
    kFlowStart,
    kFlowEnd,
  };
  Kind kind;
  uint32_t track;
  SimTime ts;
  std::string name;         // empty for kEnd and kCounter
  double value = 0.0;       // kCounter only
  uint64_t flow_id = 0;     // kFlowStart/kFlowEnd only
  uint64_t trace_id = 0;    // 0 = event recorded without a TraceContext
  uint32_t incarnation = 0;
};

class Tracer : public ResourceObserver {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 20;

  // Attaches to `env` (becomes `env->tracer()`); detaches on destruction.
  explicit Tracer(SimEnvironment* env, size_t capacity = kDefaultCapacity);
  ~Tracer() override;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  SimEnvironment* env() const { return env_; }

  // Get-or-create a named process (a node: the filer, a tape server). The
  // returned pid keys `process_name` metadata in the export; tracks carry
  // the pid of the process they belong to. Pid 1 is the default process
  // ("filer"), which every plain `Track(name)` call lands in.
  uint32_t Process(const std::string& name);

  // Get-or-create a named span/instant track (a "thread" in the exported
  // trace). Track ids are dense and stable. A track's process is fixed at
  // creation; later lookups by name ignore `pid`.
  uint32_t Track(const std::string& name);
  uint32_t Track(const std::string& name, uint32_t pid);
  // Get-or-create a named counter track.
  uint32_t CounterTrack(const std::string& name);

  // Mints a fresh root context from a deterministic monotonic counter —
  // never wall clock or randomness, so traces replay byte-identically.
  TraceContext StartTrace() { return TraceContext{++next_trace_id_, 0, 0}; }

  // Reserves a block of 2^32 flow ids (the caller ORs in its own low bits,
  // e.g. a frame sequence number) so concurrent connections in one trace
  // never collide.
  uint64_t ReserveFlowIds() { return ++next_flow_block_ << 32; }

  void Begin(uint32_t track, std::string name);
  void Begin(uint32_t track, std::string name, const TraceContext& ctx);
  void End(uint32_t track);
  void Instant(uint32_t track, std::string name);
  void Instant(uint32_t track, std::string name, const TraceContext& ctx);
  void Counter(uint32_t track, double value);
  // Convenience: counter sample on the track named `name`.
  void CounterNamed(const std::string& name, double value);

  // One directed arrow from the sender's track (`FlowStart`) to the
  // receiver's (`FlowEnd` with the same id), exported as Chrome "s"/"f"
  // flow phases.
  void FlowStart(uint32_t track, uint64_t id, std::string name,
                 const TraceContext& ctx = {});
  void FlowEnd(uint32_t track, uint64_t id, std::string name,
               const TraceContext& ctx = {});

  // Watches `res`: emits a counter sample of its in-use count now and after
  // every occupancy change, on a counter track named after the resource.
  // The tracer unregisters itself from all watched resources when destroyed;
  // destroy the tracer before the resources it watches.
  void WatchResource(Resource* res);

  // ResourceObserver:
  void OnResourceChange(const Resource& res, SimTime now,
                        int64_t in_use) override;

  size_t event_count() const { return ring_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t dropped() const { return dropped_; }
  size_t track_count() const { return tracks_.size(); }
  size_t process_count() const { return processes_.size(); }
  const std::string& track_name(uint32_t track) const {
    return tracks_[track].name;
  }
  uint32_t track_pid(uint32_t track) const { return tracks_[track].pid; }
  const std::deque<TraceEvent>& events() const { return ring_; }

  // Chrome trace-event JSON ({"traceEvents": [...]}). Spans become B/E
  // events, instants "i", counters "C", flows "s"/"f"; every track gets a
  // thread_name metadata record and every process a process_name record.
  // Timestamps are simulated microseconds, which is the unit the format
  // expects.
  std::string ToChromeJson() const;
  Status WriteChromeJson(const std::string& path) const;

 private:
  struct TrackInfo {
    std::string name;
    bool counter = false;
    uint32_t pid = 1;
  };
  void Append(TraceEvent event);

  SimEnvironment* env_;
  size_t capacity_;
  std::deque<TraceEvent> ring_;
  uint64_t dropped_ = 0;
  std::vector<TrackInfo> tracks_;
  std::unordered_map<std::string, uint32_t> track_by_name_;
  std::vector<std::string> processes_;  // index i -> pid i + 1
  std::unordered_map<std::string, uint32_t> process_by_name_;
  std::unordered_map<const Resource*, uint32_t> watched_;
  uint64_t next_trace_id_ = 0;
  uint64_t next_flow_block_ = 0;
};

// RAII span: begins on construction, ends on destruction. Null-tracer safe,
// so instrumentation sites don't need their own guards.
class ScopedTraceSpan {
 public:
  ScopedTraceSpan(Tracer* tracer, const char* track, std::string name)
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      track_ = tracer_->Track(track);
      tracer_->Begin(track_, std::move(name));
    }
  }
  // Span carrying a trace context (exported with trace/incarnation args).
  ScopedTraceSpan(Tracer* tracer, const char* track, std::string name,
                  const TraceContext& ctx)
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      track_ = tracer_->Track(track);
      tracer_->Begin(track_, std::move(name), ctx);
    }
  }
  // Span on a track owned by process `node` (a non-filer node's row).
  ScopedTraceSpan(Tracer* tracer, const std::string& node, const char* track,
                  std::string name, const TraceContext& ctx)
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      track_ = tracer_->Track(track, tracer_->Process(node));
      tracer_->Begin(track_, std::move(name), ctx);
    }
  }
  ~ScopedTraceSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(track_);
    }
  }
  ScopedTraceSpan(const ScopedTraceSpan&) = delete;
  ScopedTraceSpan& operator=(const ScopedTraceSpan&) = delete;

 private:
  Tracer* tracer_;
  uint32_t track_ = 0;
};

#define BKUP_TRACE_CAT_(a, b) a##b
#define BKUP_TRACE_CAT(a, b) BKUP_TRACE_CAT_(a, b)

// Scoped span on `track`, named `name`, in the tracer attached to `env`
// (no-op when none is attached):
//   TRACE_SPAN(env, "job:nightly", "dump.files");
#define TRACE_SPAN(env, track, name)                             \
  ::bkup::ScopedTraceSpan BKUP_TRACE_CAT(_bkup_trace_span_,      \
                                         __LINE__)((env)->tracer(), (track), \
                                                   (name))

// Point event on `track` (a retry, a remount, a reposition).
#define TRACE_INSTANT(env, track, name)                 \
  do {                                                  \
    ::bkup::Tracer* _bkup_t = (env)->tracer();          \
    if (_bkup_t != nullptr) {                           \
      _bkup_t->Instant(_bkup_t->Track(track), (name));  \
    }                                                   \
  } while (0)

// Sample on the counter track `name`.
#define TRACE_COUNTER(env, name, value)                 \
  do {                                                  \
    ::bkup::Tracer* _bkup_t = (env)->tracer();          \
    if (_bkup_t != nullptr) {                           \
      _bkup_t->CounterNamed((name), (value));           \
    }                                                   \
  } while (0)

}  // namespace bkup

#endif  // BKUP_OBS_TRACE_H_
