// Declarative fault plans for the deterministic fault-injection engine.
//
// A `FaultPlan` is a seeded list of `FaultSpec`s — "disk home.rg0.d2 throws
// transient I/O errors between t=31s and t=36s", "tape nightly.1 has a media
// defect at byte 2 MB", "drive dlt0 dies for good after 500 MB". The plan is
// pure data: arming it against devices, tracking per-spec state and deciding
// individual accesses is the `FaultInjector`'s job. Because the simulation
// is single-threaded and every probabilistic decision draws from a per-spec
// stream seeded by `seed`, the same plan over the same workload produces
// byte-for-byte identical fault sequences and counters on every run.
#ifndef BKUP_FAULTS_FAULT_PLAN_H_
#define BKUP_FAULTS_FAULT_PLAN_H_

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/util/units.h"

namespace bkup {

enum class FaultKind {
  // Disk faults (matched against a disk's name).
  kDiskTransient,    // every access in [start, end) fails with kIoError
  kDiskFlaky,        // each access in [start, end) fails with prob. p
  kDiskFailure,      // drive dies (Disk::Fail) at `start`, or once it has
                     // moved `after_bytes` bytes if that is nonzero
  // Tape faults. kTapeMediaDefect matches the *media* label; the flaky and
  // drive-failure kinds match the drive's name.
  kTapeMediaDefect,  // byte range [offset, offset+length) is bad: writes
                     // into it fail (read-after-write verify), reads return
                     // latently corrupted bytes for record CRCs to catch
  kTapeFlaky,        // each transfer fails with probability p in [start,end)
  kTapeDriveFailure, // drive dies once it has moved `after_bytes` bytes
  // Link faults (matched against a NetLink's name). These decide the fate of
  // individual frames; the connection's retransmit budget and the
  // supervisor's reconnect-from-ack ladder are what turn them into either
  // invisible hiccups or counted recoveries.
  kLinkDown,         // every frame in [start, end) is lost (cable pull)
  kLinkFlaky,        // each frame lost with probability p in [start, end)
  kLinkCorrupt,      // each frame corrupted with prob. p (checksum rejects)
  kLinkStall,        // each frame in [start, end) holds the wire `stall`
                     // longer before serializing (congestion, pause frames)
};

struct FaultSpec {
  FaultKind kind;
  // Device name (disks, drives) or media label (defects); empty matches any.
  std::string target;
  // Active window. `start` doubles as the failure instant for kDiskFailure
  // when `after_bytes` is zero.
  SimTime start = 0;
  SimTime end = std::numeric_limits<SimTime>::max();
  double probability = 1.0;   // per-access trigger chance (flaky kinds)
  uint64_t after_bytes = 0;   // byte-odometer trigger (failure kinds)
  uint64_t offset = 0;        // defect placement on the media
  uint64_t length = 0;
  SimDuration stall = 0;      // extra wire-hold time (kLinkStall)
};

struct FaultPlan {
  uint64_t seed = 1;
  std::vector<FaultSpec> faults;

  bool empty() const { return faults.empty(); }

  // Fluent builders, so tests and benches read like the scenario they set up.
  FaultPlan& DiskTransient(std::string target, SimTime start, SimTime end) {
    faults.push_back({.kind = FaultKind::kDiskTransient,
                      .target = std::move(target),
                      .start = start,
                      .end = end});
    return *this;
  }
  FaultPlan& DiskFlaky(std::string target, double probability,
                       SimTime start = 0,
                       SimTime end = std::numeric_limits<SimTime>::max()) {
    faults.push_back({.kind = FaultKind::kDiskFlaky,
                      .target = std::move(target),
                      .start = start,
                      .end = end,
                      .probability = probability});
    return *this;
  }
  FaultPlan& DiskFailsAfter(std::string target, uint64_t after_bytes) {
    faults.push_back({.kind = FaultKind::kDiskFailure,
                      .target = std::move(target),
                      .after_bytes = after_bytes});
    return *this;
  }
  FaultPlan& TapeMediaDefect(std::string label, uint64_t offset,
                             uint64_t length, SimTime at = 0) {
    faults.push_back({.kind = FaultKind::kTapeMediaDefect,
                      .target = std::move(label),
                      .start = at,
                      .offset = offset,
                      .length = length});
    return *this;
  }
  FaultPlan& TapeFlaky(std::string target, double probability,
                       SimTime start = 0,
                       SimTime end = std::numeric_limits<SimTime>::max()) {
    faults.push_back({.kind = FaultKind::kTapeFlaky,
                      .target = std::move(target),
                      .start = start,
                      .end = end,
                      .probability = probability});
    return *this;
  }
  FaultPlan& TapeDriveFailsAfter(std::string target, uint64_t after_bytes) {
    faults.push_back({.kind = FaultKind::kTapeDriveFailure,
                      .target = std::move(target),
                      .after_bytes = after_bytes});
    return *this;
  }
  FaultPlan& LinkDown(std::string target, SimTime start, SimTime end) {
    faults.push_back({.kind = FaultKind::kLinkDown,
                      .target = std::move(target),
                      .start = start,
                      .end = end});
    return *this;
  }
  FaultPlan& LinkFlaky(std::string target, double probability,
                       SimTime start = 0,
                       SimTime end = std::numeric_limits<SimTime>::max()) {
    faults.push_back({.kind = FaultKind::kLinkFlaky,
                      .target = std::move(target),
                      .start = start,
                      .end = end,
                      .probability = probability});
    return *this;
  }
  FaultPlan& LinkCorrupt(std::string target, double probability,
                         SimTime start = 0,
                         SimTime end = std::numeric_limits<SimTime>::max()) {
    faults.push_back({.kind = FaultKind::kLinkCorrupt,
                      .target = std::move(target),
                      .start = start,
                      .end = end,
                      .probability = probability});
    return *this;
  }
  FaultPlan& LinkStall(std::string target, SimDuration stall, SimTime start,
                       SimTime end) {
    faults.push_back({.kind = FaultKind::kLinkStall,
                      .target = std::move(target),
                      .start = start,
                      .end = end,
                      .stall = stall});
    return *this;
  }
};

}  // namespace bkup

#endif  // BKUP_FAULTS_FAULT_PLAN_H_
