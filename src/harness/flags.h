// The bench binaries' command line. Every binary takes
//   --scale=F    size scale; 1.0 = paper scale (default 0.125), at most
//                kMaxScale
//   --paper      shorthand for --scale=1.0 --seconds=600
// and, where it reads them (BenchFlags::Reads),
//   --seconds=F  virtual workload duration (default: per-bench)
//   --threads=N  restrict to one compaction-thread count (default: sweep)
//   --trace_out=FILE  Chrome trace-event JSON of the traced run
//   --json_out=FILE   the machine-readable kvaccel-run-v1 report
// Any other flag, or a malformed value, exits 2 naming the flag.
#pragma once

#include <cmath>
#include <string>

#include "common/flags.h"

namespace kvaccel::harness {

// The largest --scale. It scales the paper's 256 GiB device to 16 TiB,
// whose block region still fits the FTL's 32-bit page tables
// (ssd::Ftl::kMaxPhysicalPages; DESIGN.md §16).
constexpr double kMaxScale = 64;

struct BenchFlags {
  double scale = 0.125;
  double seconds = 60;
  int threads = 0;        // 0 = the binary's sweep
  std::string trace_out;  // empty = tracing disabled
  std::string json_out;   // empty = no JSON report

  // The flags a binary reads besides --scale and --paper.
  struct Reads {
    double seconds = 0;      // > 0: --seconds, defaulting to this
    bool threads = false;    // --threads
    bool artifacts = false;  // --trace_out and --json_out
  };

  // The table that fills *f for a binary that reads `reads`.
  static FlagTable Table(BenchFlags* f, Reads reads) {
    f->seconds = reads.seconds;
    FlagTable t;
    t.Double("scale", &f->scale, 0, kMaxScale,
             "size scale; 1.0 = paper scale (default 0.125)");
    t.Action("paper",
             [f] {
               f->scale = 1.0;
               f->seconds = 600;
             },
             "paper scale: --scale=1.0 --seconds=600");
    if (reads.seconds > 0) {
      t.Double("seconds", &f->seconds, 0, HUGE_VAL,
               "virtual workload duration");
    }
    if (reads.threads) {
      t.Int("threads", &f->threads, 0,
            "run only this compaction-thread count (default: sweep)");
    }
    if (reads.artifacts) {
      t.String("trace_out", &f->trace_out, "FILE",
               "write a Chrome trace-event JSON of the traced run");
      t.String("json_out", &f->json_out, "FILE",
               "write the kvaccel-run-v1 JSON report");
    }
    return t;
  }

  static BenchFlags Parse(int argc, char** argv, Reads reads) {
    BenchFlags f;
    Table(&f, reads).Parse(argc, argv);
    return f;
  }
};

}  // namespace kvaccel::harness
