#include "src/dump/verify.h"

#include <algorithm>
#include <cstdio>

#include "src/util/bitmap.h"

namespace bkup {

namespace {
constexpr size_t kMaxReportedMissing = 16;
}  // namespace

std::string DumpVerifyReport::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s: level %u of '%s': %u dirs, %u files, %llu data blocks; "
                "%u/%u dumped inodes present; %u corrupt records, %u data "
                "CRC errors",
                readable ? "READABLE" : "UNRELIABLE", level,
                volume_name.c_str(), directories, files,
                static_cast<unsigned long long>(data_blocks), inodes_seen,
                inodes_expected, corrupt_records, data_crc_errors);
  return buf;
}

Result<DumpVerifyReport> VerifyDumpStream(std::span<const uint8_t> stream) {
  DumpVerifyReport report;
  DumpStreamReader reader(stream);

  BKUP_ASSIGN_OR_RETURN(DumpStreamPrologue prologue, reader.ReadPrologue());
  report.level = prologue.header.level;
  report.dump_time = prologue.header.dump_time;
  report.volume_name = prologue.header.volume_name;
  report.inodes_expected = static_cast<uint32_t>(prologue.dumped.CountOnes());

  Bitmap seen(prologue.dumped.size());
  bool saw_file = false;
  bool saw_end = false;
  Inum last_dir = 0;
  Inum last_file = 0;

  while (std::optional<DumpStreamItem> item = reader.Next()) {
    const DumpRecord& rec = item->record;
    if (rec.type == DumpRecordType::kEnd) {
      saw_end = true;
      break;
    }
    if (item->truncated) {
      report.corrupt_records++;  // the tape ends inside this record
      break;
    }
    switch (rec.type) {
      case DumpRecordType::kDirectory:
        report.data_crc_errors += item->PayloadIntact() ? 0 : 1;
        // "All directories precede all files ... in ascending inode order."
        if (saw_file || rec.inum < last_dir) {
          report.out_of_order_records++;
        }
        last_dir = rec.inum;
        report.directories++;
        if (rec.inum < seen.size()) {
          seen.Set(rec.inum);
        }
        break;
      case DumpRecordType::kInode:
      case DumpRecordType::kAddr:
        report.data_crc_errors += item->PayloadIntact() ? 0 : 1;
        report.data_blocks += rec.present_count;
        if (rec.type == DumpRecordType::kInode) {
          if (rec.inum < last_file) {
            report.out_of_order_records++;
          }
          last_file = rec.inum;
          saw_file = true;
          report.files++;
          if (rec.inum < seen.size()) {
            seen.Set(rec.inum);
          }
        }
        break;
      default:
        report.corrupt_records++;
        break;
    }
  }
  report.corrupt_records += reader.skipped_runs();

  // Which dumped inodes never showed up?
  prologue.dumped.ForEachSet([&](size_t inum) {
    if (!seen.Test(inum) &&
        report.missing_inodes.size() < kMaxReportedMissing) {
      report.missing_inodes.push_back(static_cast<Inum>(inum));
    }
  });
  report.inodes_seen = static_cast<uint32_t>(seen.CountOnes());

  report.readable = saw_end && report.corrupt_records == 0 &&
                    report.data_crc_errors == 0 &&
                    report.out_of_order_records == 0 &&
                    report.inodes_seen == report.inodes_expected;
  return report;
}

}  // namespace bkup
