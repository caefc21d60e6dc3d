// Windowed utilization sampling for simulated resources.
//
// `UtilizationWindow` (src/sim/resource.h) answers "what was the mean
// utilization over this whole stage" — one number. This sampler answers
// "what did utilization look like over time": it observes a Resource's
// occupancy changes and folds them into fixed-width windows (busy-integral
// delta per window / capacity·window), so benches can emit
// utilization-over-time series instead of a single final percentage.
//
// The samples are exact, not polled: between occupancy changes the in-use
// count is constant, so each window's busy integral is reconstructed
// precisely from the change events alone. No periodic wake-ups are
// scheduled — the sampler never keeps the event queue alive.
#ifndef BKUP_OBS_UTILIZATION_H_
#define BKUP_OBS_UTILIZATION_H_

#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/sim/resource.h"

namespace bkup {

class UtilizationSampler : public ResourceObserver {
 public:
  struct Sample {
    SimTime start;           // window start, simulated µs
    double utilization;      // mean fraction of capacity in [0, 1]
  };

  // Attaches to `res` immediately; windows are aligned to the attach time.
  // Destroy the sampler before the resource (it detaches on destruction).
  UtilizationSampler(Resource* res, SimDuration window);
  ~UtilizationSampler() override;
  UtilizationSampler(const UtilizationSampler&) = delete;
  UtilizationSampler& operator=(const UtilizationSampler&) = delete;

  SimDuration window() const { return window_; }

  // Closes every window that ends at or before `now`, plus — when `now`
  // falls inside a window — the partial remainder as a final short sample.
  // Call once after the simulation drains, before reading samples().
  void Finish(SimTime now);

  const std::vector<Sample>& samples() const { return samples_; }

  // ResourceObserver:
  void OnResourceChange(const Resource& res, SimTime now,
                        int64_t in_use) override;

  // {"resource": ..., "window_s": ..., "samples": [{"t_s":, "utilization":}]}
  void WriteJson(JsonWriter* w) const;

 private:
  // Accounts busy time at the current in-use level up to `now`, emitting
  // every window boundary crossed on the way.
  void AdvanceTo(SimTime now);
  void EmitWindow(SimTime end);

  Resource* res_;
  std::string name_;
  SimDuration window_;
  int64_t capacity_;
  SimTime window_start_;
  SimTime last_event_;
  int64_t in_use_;
  int64_t busy_in_window_ = 0;  // unit-µs accumulated in the open window
  bool detached_ = false;
  std::vector<Sample> samples_;
};

}  // namespace bkup

#endif  // BKUP_OBS_UTILIZATION_H_
