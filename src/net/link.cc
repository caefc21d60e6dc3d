#include "src/net/link.h"

#include <algorithm>

#include "src/obs/trace.h"

namespace bkup {

NetLink::NetLink(SimEnvironment* env, std::string name, LinkParams params)
    : env_(env),
      name_(std::move(name)),
      params_(params),
      wire_(env, 1, name_ + ".wire") {}

LinkBudget::LinkBudget(NetLink* link, uint64_t nightly_bytes)
    : link_(link), nightly_bytes_(nightly_bytes) {}

bool LinkBudget::TryReserve(uint64_t estimated_bytes) {
  if (!unlimited() &&
      consumed_ + reserved_ + estimated_bytes > nightly_bytes_) {
    return false;
  }
  reserved_ += estimated_bytes;
  return true;
}

void LinkBudget::Commit(uint64_t estimated_bytes, uint64_t actual_bytes) {
  reserved_ -= std::min(reserved_, estimated_bytes);
  consumed_ += actual_bytes;
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
}

void NetLink::CountRetransmit() {
  Instant("retransmit");
}

void NetLink::CountDrop() {
  Instant("drop");
}

void NetLink::CountChecksumReject() {
  Instant("checksum-reject");
}

void NetLink::CountStall() {
  Instant("stall");
}

}  // namespace bkup
