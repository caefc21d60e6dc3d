// Invariants every backup's media must keep, shared by the test suites that
// run backups: the media are consecutive slices of the stream, and a job
// report bills exactly the bytes its media hold — failed jobs included.
#ifndef BKUP_TESTS_MEDIA_INVARIANTS_H_
#define BKUP_TESTS_MEDIA_INVARIANTS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/backup/report.h"
#include "src/block/tape.h"

namespace bkup {

// Each tape holds the next slice of the stream, filled no further than its
// capacity and never allocated past it; in mount order the slices
// concatenate to a prefix of the stream.
inline void ExpectTapesSliceStream(const std::vector<Tape*>& tapes,
                                   std::span<const uint8_t> stream) {
  uint64_t at = 0;
  for (Tape* t : tapes) {
    EXPECT_LE(t->size(), t->capacity()) << t->label();
    EXPECT_LE(t->mutable_bytes().capacity(), t->capacity()) << t->label();
    ASSERT_LE(at + t->size(), stream.size()) << t->label();
    EXPECT_TRUE(std::ranges::equal(t->contents(),
                                   stream.subspan(at, t->size())))
        << t->label() << " is not stream[" << at << ", +" << t->size() << ")";
    at += t->size();
  }
}

// A backup report bills what its media hold: the phases' tape bytes sum to
// the bytes on `report.final_media`, each found by label among `tapes`.
// Given the stream the media carry (the wire image with content stages),
// those media are also its consecutive slices from the start, with no gap.
inline void ExpectReportMatchesMedia(const JobReport& report,
                                     const std::vector<Tape*>& tapes,
                                     std::span<const uint8_t> stream = {}) {
  std::vector<Tape*> media;
  uint64_t on_media = 0;
  for (const std::string& label : report.final_media) {
    const auto it = std::ranges::find_if(
        tapes, [&](const Tape* t) { return t->label() == label; });
    ASSERT_NE(it, tapes.end()) << report.name << ": no tape " << label;
    media.push_back(*it);
    on_media += (*it)->size();
  }
  EXPECT_EQ(report.total_tape_bytes(), on_media)
      << report.name << " bills tape bytes its final media do not hold";
  if (!stream.empty()) {
    ExpectTapesSliceStream(media, stream);
  }
}

}  // namespace bkup

#endif  // BKUP_TESTS_MEDIA_INVARIANTS_H_
