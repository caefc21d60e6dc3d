// A deterministic point-to-point network link.
//
// The link is the transport the paper's portability claim leans on: the dump
// stream "can be written to tape, to a file, or sent over a network" (§2),
// which is how NDMP-era filers fed remote tape servers. Model-wise a link is
// a serial resource (one frame on the wire at a time, like a tape drive's
// unit) with a configured payload bandwidth, a fixed propagation delay and an
// MTU that forces large transfers into frames. Backpressure emerges the same
// way it does in `Channel`: each `StreamConn` bounds its in-flight frames
// with a `Resource` window, so a slow receiver stalls the sender through the
// full pipeline. See DESIGN.md §10 for the complete model.
#ifndef BKUP_NET_LINK_H_
#define BKUP_NET_LINK_H_

#include <cstdint>
#include <string>

#include "src/net/link_fault.h"
#include "src/sim/environment.h"
#include "src/sim/resource.h"
#include "src/util/units.h"

namespace bkup {

class NetLink;

struct LinkParams {
  // Effective payload rate. 125 MB/s is a clean 1 GbE-class link; the
  // paper-era alternative (100 Mb/s Ethernet) is 12.5.
  double bandwidth_mb_per_s = 125.0;
  // Largest frame payload; a jumbo-ish 64 KiB keeps per-frame overhead low
  // while still forcing real framing on multi-megabyte streams.
  uint64_t mtu_bytes = 64 * kKiB;
  // Sliding window: frames a StreamConn may have un-acknowledged. Bounds
  // sender run-ahead exactly like a Channel capacity.
  size_t window_frames = 32;
};

// Nightly byte budget for a shared link: the accounting hook the fleet
// scheduler reserves against before dispatching a remote job. The budget is
// planning-level bookkeeping, not a rate limiter — the wire still serializes
// frames itself; this only answers "may another whole stream be committed to
// tonight's link allowance?". Reservations use the scheduler's size estimate
// and are settled to the actual payload when the job finishes, so the
// consumed total tracks reality while in-flight jobs hold their estimate.
class LinkBudget {
 public:
  // `nightly_bytes` = 0 means unlimited (every reservation succeeds).
  LinkBudget(NetLink* link, uint64_t nightly_bytes);

  NetLink* link() const { return link_; }
  uint64_t nightly_bytes() const { return nightly_bytes_; }
  uint64_t reserved() const { return reserved_; }   // in-flight estimates
  uint64_t consumed() const { return consumed_; }   // settled actuals
  bool unlimited() const { return nightly_bytes_ == 0; }

  // True (and the estimate is held) when consumed + reserved + estimate
  // still fits the nightly allowance.
  bool TryReserve(uint64_t estimated_bytes);

  // Settles a reservation made with `estimated_bytes`: the hold is released
  // and `actual_bytes` is added to the consumed total.
  void Commit(uint64_t estimated_bytes, uint64_t actual_bytes);

  // Drops a reservation without consuming anything (job never streamed).
  void Cancel(uint64_t estimated_bytes);

 private:
  NetLink* link_;
  uint64_t nightly_bytes_;
  uint64_t reserved_ = 0;
  uint64_t consumed_ = 0;
};

class NetLink {
 public:
  NetLink(SimEnvironment* env, std::string name, LinkParams params = {});

  const std::string& name() const { return name_; }
  SimEnvironment* env() const { return env_; }
  const LinkParams& params() const { return params_; }

  // The wire: capacity 1, so concurrent streams serialize frame by frame and
  // N-way parallel remote jobs contend for the same bandwidth.
  Resource& wire() { return wire_; }

  // Time to clock `nbytes` onto the wire at the configured bandwidth.
  SimDuration SerializeTime(uint64_t nbytes) const;

  // Arms the link against a fault engine; null disarms.
  void set_fault_hook(LinkFaultHook* hook) { fault_hook_ = hook; }
  LinkFaultHook* fault_hook() const { return fault_hook_; }

  uint64_t bytes_transferred() const { return bytes_transferred_; }
  uint64_t frames_transferred() const { return frames_transferred_; }

  // Accounting entry points used by StreamConn (byte/frame totals and
  // trace instants).
  void AccountFrame(uint64_t wire_bytes);
  void CountRetransmit();
  void CountDrop();
  void CountChecksumReject();
  void CountStall();

 private:
  void Instant(const char* name);

  SimEnvironment* env_;
  std::string name_;
  LinkParams params_;
  Resource wire_;
  LinkFaultHook* fault_hook_ = nullptr;
  uint64_t bytes_transferred_ = 0;
  uint64_t frames_transferred_ = 0;
};

}  // namespace bkup

#endif  // BKUP_NET_LINK_H_
