#include "src/obs/trace.h"

#include <cstdio>

#include "src/obs/json.h"

namespace bkup {

Tracer::Tracer(SimEnvironment* env, size_t capacity)
    : env_(env), capacity_(capacity > 0 ? capacity : 1) {
  env_->set_tracer(this);
  // Pid 1 is the default node: every plain Track() call lands here, so
  // single-node traces look exactly like they did before processes existed.
  processes_.push_back("filer");
  process_by_name_.emplace("filer", 1u);
}

Tracer::~Tracer() {
  for (const auto& [res, track] : watched_) {
    // Safe only while watched resources are alive; see WatchResource().
    const_cast<Resource*>(res)->RemoveObserver(this);
  }
  if (env_->tracer() == this) {
    env_->set_tracer(nullptr);
  }
}

uint32_t Tracer::Process(const std::string& name) {
  auto [it, inserted] = process_by_name_.try_emplace(
      name, static_cast<uint32_t>(processes_.size()) + 1);
  if (inserted) {
    processes_.push_back(name);
  }
  return it->second;
}

uint32_t Tracer::Track(const std::string& name) { return Track(name, 1); }

uint32_t Tracer::Track(const std::string& name, uint32_t pid) {
  auto [it, inserted] =
      track_by_name_.try_emplace(name, static_cast<uint32_t>(tracks_.size()));
  if (inserted) {
    tracks_.push_back(TrackInfo{name, /*counter=*/false, pid});
  }
  return it->second;
}

uint32_t Tracer::CounterTrack(const std::string& name) {
  auto [it, inserted] =
      track_by_name_.try_emplace(name, static_cast<uint32_t>(tracks_.size()));
  if (inserted) {
    tracks_.push_back(TrackInfo{name, /*counter=*/true, 1});
  }
  return it->second;
}

void Tracer::Append(TraceEvent event) {
  if (ring_.size() >= capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back(std::move(event));
}

void Tracer::Begin(uint32_t track, std::string name) {
  Append(TraceEvent{TraceEvent::Kind::kBegin, track, env_->now(),
                    std::move(name)});
}

void Tracer::Begin(uint32_t track, std::string name, const TraceContext& ctx) {
  Append(TraceEvent{TraceEvent::Kind::kBegin, track, env_->now(),
                    std::move(name), 0.0, 0, ctx.trace_id, ctx.incarnation});
}

void Tracer::End(uint32_t track) {
  Append(TraceEvent{TraceEvent::Kind::kEnd, track, env_->now(), {}});
}

void Tracer::Instant(uint32_t track, std::string name) {
  Append(TraceEvent{TraceEvent::Kind::kInstant, track, env_->now(),
                    std::move(name)});
}

void Tracer::Instant(uint32_t track, std::string name,
                     const TraceContext& ctx) {
  Append(TraceEvent{TraceEvent::Kind::kInstant, track, env_->now(),
                    std::move(name), 0.0, 0, ctx.trace_id, ctx.incarnation});
}

void Tracer::Counter(uint32_t track, double value) {
  Append(TraceEvent{TraceEvent::Kind::kCounter, track, env_->now(), {},
                    value});
}

void Tracer::CounterNamed(const std::string& name, double value) {
  Counter(CounterTrack(name), value);
}

void Tracer::FlowStart(uint32_t track, uint64_t id, std::string name,
                       const TraceContext& ctx) {
  Append(TraceEvent{TraceEvent::Kind::kFlowStart, track, env_->now(),
                    std::move(name), 0.0, id, ctx.trace_id, ctx.incarnation});
}

void Tracer::FlowEnd(uint32_t track, uint64_t id, std::string name,
                     const TraceContext& ctx) {
  Append(TraceEvent{TraceEvent::Kind::kFlowEnd, track, env_->now(),
                    std::move(name), 0.0, id, ctx.trace_id, ctx.incarnation});
}

void Tracer::WatchResource(Resource* res) {
  auto [it, inserted] =
      watched_.try_emplace(res, CounterTrack(res->name()));
  if (!inserted) {
    return;
  }
  res->AddObserver(this);
  // Initial sample so the track starts at its current level, not at the
  // first change.
  Counter(it->second, static_cast<double>(res->in_use()));
}

void Tracer::OnResourceChange(const Resource& res, SimTime /*now*/,
                              int64_t in_use) {
  auto it = watched_.find(&res);
  if (it == watched_.end()) {
    return;
  }
  Counter(it->second, static_cast<double>(in_use));
}

std::string Tracer::ToChromeJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Field("displayTimeUnit", "ms");
  w.Key("otherData")
      .BeginObject()
      .Field("clock", "simulated-microseconds")
      .Field("dropped_events", dropped_)
      .EndObject();
  w.Key("traceEvents").BeginArray();
  // Process metadata: one row per node (the filer plus every tape server
  // the trace touched), so Perfetto renders a per-node timeline.
  for (size_t i = 0; i < processes_.size(); ++i) {
    w.BeginObject()
        .Field("ph", "M")
        .Field("pid", static_cast<int64_t>(i + 1))
        .Field("tid", int64_t{0})
        .Field("ts", int64_t{0})
        .Field("name", "process_name")
        .Key("args")
        .BeginObject()
        .Field("name", processes_[i])
        .EndObject()
        .EndObject();
  }
  // Track metadata: names every tid so Perfetto shows "job:...", resource
  // names etc. instead of bare numbers.
  for (size_t i = 0; i < tracks_.size(); ++i) {
    w.BeginObject()
        .Field("ph", "M")
        .Field("pid", static_cast<int64_t>(tracks_[i].pid))
        .Field("tid", static_cast<int64_t>(i))
        .Field("ts", int64_t{0})
        .Field("name", "thread_name")
        .Key("args")
        .BeginObject()
        .Field("name", tracks_[i].name)
        .EndObject()
        .EndObject();
  }
  for (const TraceEvent& e : ring_) {
    w.BeginObject();
    switch (e.kind) {
      case TraceEvent::Kind::kBegin:
        w.Field("ph", "B").Field("name", e.name);
        break;
      case TraceEvent::Kind::kEnd:
        w.Field("ph", "E");
        break;
      case TraceEvent::Kind::kInstant:
        // Thread-scoped instant.
        w.Field("ph", "i").Field("name", e.name).Field("s", "t");
        break;
      case TraceEvent::Kind::kCounter:
        // Chrome keys counter tracks by (pid, name): use the track's name
        // so every watched resource gets its own counter track.
        w.Field("ph", "C").Field("name", tracks_[e.track].name);
        break;
      case TraceEvent::Kind::kFlowStart:
        w.Field("ph", "s").Field("name", e.name).Field("cat", "flow");
        w.Field("id", e.flow_id);
        break;
      case TraceEvent::Kind::kFlowEnd:
        // bp:"e" binds the arrow head to the enclosing slice, which is how
        // sender→receiver frame arrows attach to the rx span.
        w.Field("ph", "f").Field("name", e.name).Field("cat", "flow");
        w.Field("id", e.flow_id).Field("bp", "e");
        break;
    }
    w.Field("pid", static_cast<int64_t>(tracks_[e.track].pid))
        .Field("tid", static_cast<int64_t>(e.track))
        .Field("ts", static_cast<int64_t>(e.ts));
    if (e.kind == TraceEvent::Kind::kCounter) {
      w.Key("args").BeginObject().Field("in_use", e.value).EndObject();
    } else if (e.trace_id != 0) {
      // Causal identity: every event of one logical job shares a trace id;
      // incarnation counts supervised restarts within it.
      w.Key("args")
          .BeginObject()
          .Field("trace", e.trace_id)
          .Field("incarnation", static_cast<uint64_t>(e.incarnation))
          .EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

Status Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return IoError("cannot open trace file '" + path + "' for writing");
  }
  const std::string json = ToChromeJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return IoError("short write to trace file '" + path + "'");
  }
  return Status::Ok();
}

}  // namespace bkup
