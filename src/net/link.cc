#include "src/net/link.h"

#include <algorithm>

#include "src/obs/trace.h"

namespace bkup {

NetLink::NetLink(SimEnvironment* env, std::string name, LinkParams params)
    : env_(env),
      name_(std::move(name)),
      params_(params),
      wire_(env, 1, name_ + ".wire") {
  MetricsRegistry& reg = MetricsRegistry::Default();
  const MetricLabels labels = {{"link", name_}};
  metric_bytes_ = reg.GetCounter("net.bytes", labels);
  metric_frames_ = reg.GetCounter("net.frames", labels);
  metric_retransmits_ = reg.GetCounter("net.retransmits", labels);
  metric_drops_ = reg.GetCounter("net.frames_dropped", labels);
  metric_rejects_ = reg.GetCounter("net.checksum_rejections", labels);
  metric_stalls_ = reg.GetCounter("net.stalls", labels);
}

LinkBudget::LinkBudget(NetLink* link, uint64_t nightly_bytes)
    : link_(link), nightly_bytes_(nightly_bytes) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  const MetricLabels labels = {{"link", link->name()}};
  metric_reservations_ = reg.GetCounter("net.budget.reservations", labels);
  metric_rejections_ = reg.GetCounter("net.budget.rejections", labels);
  metric_consumed_ = reg.GetCounter("net.budget.consumed_bytes", labels);
}

bool LinkBudget::TryReserve(uint64_t estimated_bytes) {
  if (!unlimited() &&
      consumed_ + reserved_ + estimated_bytes > nightly_bytes_) {
    metric_rejections_->Increment();
    return false;
  }
  reserved_ += estimated_bytes;
  metric_reservations_->Increment();
  return true;
}

void LinkBudget::Commit(uint64_t estimated_bytes, uint64_t actual_bytes) {
  reserved_ -= std::min(reserved_, estimated_bytes);
  consumed_ += actual_bytes;
  metric_consumed_->Increment(actual_bytes);
}

void LinkBudget::Cancel(uint64_t estimated_bytes) {
  reserved_ -= std::min(reserved_, estimated_bytes);
}

SimDuration NetLink::SerializeTime(uint64_t nbytes) const {
  const double bytes_per_us = params_.bandwidth_mb_per_s;  // 1e6 B/s = 1 B/us
  const auto t =
      static_cast<SimDuration>(static_cast<double>(nbytes) / bytes_per_us);
  return t > 0 ? t : 1;
}

void NetLink::Instant(const char* event) {
  Tracer* tracer = env_->tracer();
  if (tracer != nullptr) {
    tracer->Instant(tracer->Track("net:" + name_), event);
  }
}

void NetLink::AccountFrame(uint64_t wire_bytes) {
  bytes_transferred_ += wire_bytes;
  ++frames_transferred_;
  metric_bytes_->Increment(wire_bytes);
  metric_frames_->Increment();
}

void NetLink::CountRetransmit() {
  metric_retransmits_->Increment();
  Instant("retransmit");
}

void NetLink::CountDrop() {
  metric_drops_->Increment();
  Instant("drop");
}

void NetLink::CountChecksumReject() {
  metric_rejects_->Increment();
  Instant("checksum-reject");
}

void NetLink::CountStall() {
  metric_stalls_->Increment();
  Instant("stall");
}

}  // namespace bkup
