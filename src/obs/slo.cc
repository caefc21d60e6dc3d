#include "src/obs/slo.h"

#include <algorithm>
#include <cmath>

namespace bkup {

namespace {
constexpr double kBytesPerMB = 1e6;
// Progress floor for the burn ratio: a volume that has moved nothing has
// burned "everything so far", not divided by zero.
constexpr double kMinProgressForBurn = 1e-3;
}  // namespace

void SloMonitor::Register(const std::string& name, SimTime deadline,
                          uint64_t total_bytes) {
  Objective fresh;
  fresh.name = name;
  fresh.deadline = deadline;
  fresh.total_bytes = total_bytes;
  fresh.registered_at = env_->now();
  if (Objective* existing = Find(name)) {
    *existing = std::move(fresh);
    return;
  }
  objectives_.push_back(std::move(fresh));
}

SloMonitor::Objective* SloMonitor::Find(const std::string& name) {
  for (Objective& o : objectives_) {
    if (o.name == name) {
      return &o;
    }
  }
  return nullptr;
}

void SloMonitor::ReportProgress(const std::string& name, uint64_t bytes_done) {
  Objective* o = Find(name);
  if (o == nullptr || o->done) {
    return;
  }
  o->bytes_done = std::max(o->bytes_done, bytes_done);
}

void SloMonitor::Complete(const std::string& name, bool ok) {
  Objective* o = Find(name);
  if (o == nullptr || o->done) {
    return;
  }
  o->done = true;
  o->ok = ok;
  o->finished_at = env_->now();
  if (o->total_bytes > 0 && ok) {
    o->bytes_done = std::max(o->bytes_done, o->total_bytes);
  }
}

SloHealthSample::Entry SloMonitor::Evaluate(const Objective& o,
                                            SimTime now) const {
  SloHealthSample::Entry e;
  e.name = o.name;
  e.done = o.done;
  const SimTime ref = o.done ? o.finished_at : now;
  const double elapsed_s = SimToSeconds(std::max<SimDuration>(0, ref - o.registered_at));
  if (o.total_bytes > 0) {
    e.progress = std::min(
        1.0, static_cast<double>(o.bytes_done) /
                 static_cast<double>(o.total_bytes));
  } else {
    e.progress = o.done ? 1.0 : 0.0;
  }
  if (elapsed_s > 0.0 && o.bytes_done > 0) {
    e.rate_mb_s = static_cast<double>(o.bytes_done) / kBytesPerMB / elapsed_s;
  }
  // ETA: observed rate when the stream has moved, the planning-rate
  // fallback when it has not (queued volumes still project a finish).
  if (o.done) {
    e.eta = o.finished_at;
  } else if (o.total_bytes > 0) {
    const uint64_t remaining = o.total_bytes - std::min(o.bytes_done, o.total_bytes);
    double rate = e.rate_mb_s > 0.0 ? e.rate_mb_s : default_rate_mb_s_;
    if (rate > 0.0) {
      e.eta = now + SecondsToSim(static_cast<double>(remaining) /
                                 (rate * kBytesPerMB));
    }
  }
  const bool has_deadline = o.deadline != kNoDeadline;
  if (has_deadline) {
    e.breached = o.done ? o.finished_at > o.deadline : now > o.deadline;
    e.at_risk = !o.done && (e.breached || (e.eta >= 0 && e.eta > o.deadline));
    const double budget_s =
        SimToSeconds(std::max<SimDuration>(1, o.deadline - o.registered_at));
    const double used_s = SimToSeconds(
        std::max<SimDuration>(0, ref - o.registered_at));
    e.burn = (used_s / budget_s) /
             std::max(e.progress, kMinProgressForBurn);
  }
  return e;
}

const SloHealthSample& SloMonitor::Sample() {
  SloHealthSample s;
  s.t = env_->now();
  s.entries.reserve(objectives_.size());
  for (Objective& o : objectives_) {
    SloHealthSample::Entry e = Evaluate(o, s.t);
    if (e.at_risk || (e.breached && !o.done)) {
      o.flagged_live = true;
    }
    s.entries.push_back(std::move(e));
  }
  history_.push_back(std::move(s));
  return history_.back();
}

bool SloMonitor::WasFlaggedLive(const std::string& name) const {
  for (const Objective& o : objectives_) {
    if (o.name == name) {
      return o.flagged_live;
    }
  }
  return false;
}

uint64_t SloMonitor::breaches() const {
  uint64_t n = 0;
  const SimTime now = env_->now();
  for (const Objective& o : objectives_) {
    if (o.deadline == kNoDeadline) {
      continue;
    }
    const SimTime finished = o.done ? o.finished_at : now;
    if (finished > o.deadline || (o.done && !o.ok)) {
      ++n;
    }
  }
  return n;
}

void WriteHealthSample(JsonWriter* w, const SloHealthSample& sample) {
  w->BeginObject();
  w->Field("t_s", SimToSeconds(sample.t));
  w->Key("volumes").BeginArray();
  for (const SloHealthSample::Entry& e : sample.entries) {
    w->BeginObject()
        .Field("name", e.name)
        .Field("progress", e.progress)
        .Field("rate_mb_s", e.rate_mb_s)
        .Field("eta_s", e.eta >= 0 ? SimToSeconds(e.eta) : -1.0)
        .Field("burn", e.burn)
        .Field("at_risk", e.at_risk)
        .Field("breached", e.breached)
        .Field("done", e.done)
        .EndObject();
  }
  w->EndArray();
  w->EndObject();
}

void SloMonitor::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("samples").BeginArray();
  for (const SloHealthSample& s : history_) {
    WriteHealthSample(w, s);
  }
  w->EndArray();
  const SimTime now = env_->now();
  w->Key("objectives").BeginArray();
  for (const Objective& o : objectives_) {
    SloHealthSample::Entry e = Evaluate(o, now);
    w->BeginObject()
        .Field("name", o.name)
        .Field("deadline_s", o.deadline == kNoDeadline
                                 ? -1.0
                                 : SimToSeconds(o.deadline))
        .Field("total_bytes", o.total_bytes)
        .Field("bytes_done", o.bytes_done)
        .Field("done", o.done)
        .Field("ok", o.ok)
        .Field("breached", e.breached)
        .Field("flagged_live", o.flagged_live)
        .EndObject();
  }
  w->EndArray();
  w->EndObject();
}

}  // namespace bkup
