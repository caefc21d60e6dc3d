// File-system aging: reproduces the paper's footnote on mature data sets —
// "a mature data set is typically slower to backup than a newly created one
// because of fragmentation: the blocks of a newly created file are less
// likely to be contiguously allocated in a mature file system where the
// free space is scattered throughout the disks."
//
// Aging rounds delete a fraction of files and create replacements; because
// the allocator then fills scattered holes, surviving and new files become
// fragmented. `MeasureFragmentation` quantifies it as the mean contiguous
// run length of file blocks (lower = more fragmented = more seeks for an
// inode-order dump).
#ifndef BKUP_WORKLOAD_AGING_H_
#define BKUP_WORKLOAD_AGING_H_

#include <cstdint>

#include "src/fs/filesystem.h"
#include "src/workload/population.h"

namespace bkup {

struct AgingParams {
  uint64_t seed = 777;
  uint32_t rounds = 4;
  // Fraction of files deleted (and re-created at similar volume) per round.
  double churn_fraction = 0.25;
};

struct AgingStats {
  uint32_t deletions = 0;
  uint32_t creations = 0;
  uint32_t overwrites = 0;
};

Result<AgingStats> AgeFilesystem(Filesystem* fs, const AgingParams& params);

struct FragmentationReport {
  uint64_t files = 0;
  uint64_t mapped_blocks = 0;
  uint64_t runs = 0;  // contiguous vbn runs across all files
  double MeanRunBlocks() const {
    return runs > 0 ? static_cast<double>(mapped_blocks) /
                          static_cast<double>(runs)
                    : 0.0;
  }
};

// Walks every file and measures block-layout contiguity.
Result<FragmentationReport> MeasureFragmentation(const FsReader& reader,
                                                 const std::string& root = "/");

}  // namespace bkup

#endif  // BKUP_WORKLOAD_AGING_H_
