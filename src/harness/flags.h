// Minimal --key=value flag parsing shared by the bench binaries.
//   --seconds=N        virtual workload duration (default: per-bench)
//   --scale=F          size scale; 1.0 = paper scale (default 0.125), at
//                      most kMaxScale
//   --paper            shorthand for --scale=1.0 --seconds=600
//   --threads=N        restrict to one compaction-thread count (default: sweep)
//   --writer_threads=N concurrent writer actors (default 1)
//   --batch_size=N     entries per WriteBatch a writer submits (default 1)
//   --fault_profile=P  arm a canned fault profile for the run (default none):
//                        flaky-nvme   rare transient block/KV command errors
//                        bitrot       ~1-in-10k file reads flip one bit
//                        power-cut    dropped dirty cache loses a torn tail
//                        devlsm-dead  every Dev-LSM command fails (fallback)
//                      (catalogue lives in harness/fault_profiles.h)
//   --fault_seed=N     fault injector RNG seed (default 1); the same
//                      profile+seed reproduces the same fault sequence
//   --trace_out=FILE   write a Chrome trace-event JSON of the run (load in
//                      Perfetto / chrome://tracing); empty = tracing off
//   --json_out=FILE    write the machine-readable kvaccel-run-v1 report
//   --nemesis_seed=N   nemesis schedule seed echoed into the report config
//                      block (0 = no nemesis accompanied this run)
//   --trace_dump_dir=D directory nemesis divergence traces are dumped to;
//                      echoed into the report config block
//   --max_subcompactions=N  cap on range-partitioned subcompactions per job
//                      (0 = DbOptions default; 1 disables splitting)
//   --compaction_rate_limit=F  deep-compaction I/O cap as a fraction of
//                      device NAND bandwidth, in (0, 1]; 0 = unlimited
//   --nand_mbps=F      override the simulated device NAND bandwidth in MB/s
//                      (ablation hook; 0 = preset 630 MB/s)
//   --shards=N         KVACCEL only: shard-per-core engine with N shards,
//                      one SSD namespace/WAL/memtable/Detector each
//                      (default 1 = the plain single-shard facade)
//   --tenants=N        carve the key space into N per-tenant slices with at
//                      least one writer each; per-tenant p50/p99 reported
//   --shard_partition=hash|range  key-to-shard mapping (default hash)
//   --redirect_policy=global|per_shard  how shards compete for the Dev-LSM
//                      redirect capacity budget (default global)
//   --arbiter_share=F  fair-share device-bandwidth arbiter serving rate as a
//                      fraction of NAND bandwidth in [0, 1]; 0 disables
//                      (default 1.0)
//   --ndp=MODE         KVACCEL only: device-offloaded compaction placement —
//                        off    every compaction runs host-side (default)
//                        auto   OffloadPlanner picks host vs device per job
//                        force  every picked job is granted to the device
//   --ndp_cores=N      dedicated NDP cores on the device (0 = share the
//                      single Dev-LSM firmware core; default 2)
//   --workload_mix=SPEC  mixed-matrix op streams (DESIGN.md §14):
//                      ';'-separated per-tenant segments, each a preset
//                      (write-heavy, balanced, churn, analytics) or k=v
//                      fields (put=,get=,del=,scan=,scanlen=,dist=,theta=,
//                      hot_frac=,hot_ops=)
//   --arrival=MODE     closed | poisson | diurnal | spike — open-loop modes
//                      schedule arrivals in virtual time and also measure
//                      latency from the scheduled tick (no coordinated
//                      omission)
//   --arrival_rate=F   total scheduled ops/s across tenants (default 20000)
//   --zipf_theta=F     Zipfian key popularity with this theta in (0, 1)
//   --hotspot=FRAC:OPFRAC  hotspot key popularity — the first FRAC of each
//                      tenant slice receives OPFRAC of the draws
//   --ttl_frac=F       fraction of mixed-matrix puts tagged with a TTL and
//                      deleted after --ttl_s virtual seconds
//   --deadline_us=F    arrival-deadline for per-tenant deadline-miss
//                      counters (default 1000)
//
// Values are validated: a non-numeric, negative, or trailing-garbage value
// aborts with a clear message instead of silently parsing to 0.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace kvaccel::harness {

// The largest --scale. It scales the paper's 256 GiB device to 16 TiB,
// whose block region still fits the FTL's 32-bit page tables
// (ssd::Ftl::kMaxPhysicalPages; DESIGN.md §16).
constexpr double kMaxScale = 64;

// strtod with full validation; exits(2) with a clear diagnostic on a value
// that is not a finite number in [min_value, max_value].
inline double ParseFlagDouble(const char* text, const char* flag,
                              double min_value = 0.0,
                              double max_value = HUGE_VAL) {
  char* end = nullptr;
  errno = 0;
  double v = strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    fprintf(stderr, "invalid value for %s: '%s' (expected a number)\n", flag,
            text);
    exit(2);
  }
  if (v < min_value) {
    fprintf(stderr, "invalid value for %s: %s (must be >= %g)\n", flag, text,
            min_value);
    exit(2);
  }
  if (v > max_value) {
    fprintf(stderr, "invalid value for %s: %s (must be <= %g)\n", flag, text,
            max_value);
    exit(2);
  }
  return v;
}

// strtol with full validation; exits(2) on non-numeric, out-of-range, or
// below-minimum values.
inline long ParseFlagInt(const char* text, const char* flag,
                         long min_value = 0) {
  char* end = nullptr;
  errno = 0;
  long v = strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    fprintf(stderr, "invalid value for %s: '%s' (expected an integer)\n",
            flag, text);
    exit(2);
  }
  if (v < min_value) {
    fprintf(stderr, "invalid value for %s: %s (must be >= %ld)\n", flag, text,
            min_value);
    exit(2);
  }
  return v;
}

// strtoull with full validation (rejects a leading '-', which strtoull would
// silently wrap); exits(2) on bad input.
inline unsigned long long ParseFlagUint64(const char* text, const char* flag) {
  const char* p = text;
  while (*p == ' ') p++;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || *p == '-') {
    fprintf(stderr,
            "invalid value for %s: '%s' (expected a non-negative integer)\n",
            flag, text);
    exit(2);
  }
  return v;
}

struct BenchFlags {
  double scale = 0.125;
  double seconds = 60;
  int threads = 0;  // 0 = bench default / sweep
  int writer_threads = 1;
  int batch_size = 1;
  std::string fault_profile;  // empty = no fault injection
  unsigned long long fault_seed = 1;
  std::string trace_out;  // empty = tracing disabled
  std::string json_out;   // empty = no JSON report
  unsigned long long nemesis_seed = 0;  // 0 = no nemesis schedule
  std::string trace_dump_dir;           // empty = no divergence dumps
  int max_subcompactions = 0;     // 0 = DbOptions default; 1 = disabled
  double compaction_rate_limit = 0;  // fraction of NAND bandwidth; 0 = off
  double nand_mbps = 0;           // 0 = device preset
  int shards = 1;                 // sharded KVACCEL engine; 1 = plain facade
  int tenants = 1;                // key-space slices with dedicated writers
  std::string shard_partition = "hash";    // hash | range
  std::string redirect_policy = "global";  // global | per_shard
  double arbiter_share = 1.0;     // fraction of NAND bandwidth; 0 = off
  std::string ndp = "off";        // off | auto | force
  int ndp_cores = 2;              // 0 = share the firmware core
  // Mixed workload matrix (DESIGN.md §14).
  std::string workload_mix;       // empty = default pure-put profile
  std::string arrival = "closed"; // closed | poisson | diurnal | spike
  double arrival_rate = 20000;    // scheduled ops/s across tenants
  double zipf_theta = 0;          // 0 = uniform; else Zipfian theta in (0,1)
  std::string hotspot;            // "FRAC:OPFRAC"; empty = off
  double ttl_frac = 0;            // fraction of puts tagged with a TTL
  double ttl_s = 2;               // TTL in virtual seconds
  double deadline_us = 1000;      // arrival-deadline for miss counters

  static BenchFlags Parse(int argc, char** argv, double default_seconds) {
    BenchFlags f;
    f.seconds = default_seconds;
    for (int i = 1; i < argc; i++) {
      const char* arg = argv[i];
      if (strncmp(arg, "--scale=", 8) == 0) {
        f.scale = ParseFlagDouble(arg + 8, "--scale", 0.0, kMaxScale);
      } else if (strncmp(arg, "--seconds=", 10) == 0) {
        f.seconds = ParseFlagDouble(arg + 10, "--seconds");
      } else if (strncmp(arg, "--threads=", 10) == 0) {
        f.threads = static_cast<int>(ParseFlagInt(arg + 10, "--threads"));
      } else if (strncmp(arg, "--writer_threads=", 17) == 0) {
        f.writer_threads = static_cast<int>(
            ParseFlagInt(arg + 17, "--writer_threads", /*min_value=*/1));
      } else if (strncmp(arg, "--batch_size=", 13) == 0) {
        f.batch_size = static_cast<int>(
            ParseFlagInt(arg + 13, "--batch_size", /*min_value=*/1));
      } else if (strncmp(arg, "--fault_profile=", 16) == 0) {
        f.fault_profile = arg + 16;
      } else if (strncmp(arg, "--fault_seed=", 13) == 0) {
        f.fault_seed = ParseFlagUint64(arg + 13, "--fault_seed");
      } else if (strncmp(arg, "--trace_out=", 12) == 0) {
        f.trace_out = arg + 12;
      } else if (strncmp(arg, "--json_out=", 11) == 0) {
        f.json_out = arg + 11;
      } else if (strncmp(arg, "--nemesis_seed=", 15) == 0) {
        f.nemesis_seed = ParseFlagUint64(arg + 15, "--nemesis_seed");
      } else if (strncmp(arg, "--trace_dump_dir=", 17) == 0) {
        f.trace_dump_dir = arg + 17;
      } else if (strncmp(arg, "--max_subcompactions=", 21) == 0) {
        f.max_subcompactions = static_cast<int>(
            ParseFlagInt(arg + 21, "--max_subcompactions"));
      } else if (strncmp(arg, "--compaction_rate_limit=", 24) == 0) {
        f.compaction_rate_limit =
            ParseFlagDouble(arg + 24, "--compaction_rate_limit");
        if (f.compaction_rate_limit > 1.0) {
          fprintf(stderr,
                  "invalid value for --compaction_rate_limit: %s "
                  "(must be a fraction in [0, 1])\n",
                  arg + 24);
          exit(2);
        }
      } else if (strncmp(arg, "--nand_mbps=", 12) == 0) {
        f.nand_mbps = ParseFlagDouble(arg + 12, "--nand_mbps");
      } else if (strncmp(arg, "--shards=", 9) == 0) {
        f.shards =
            static_cast<int>(ParseFlagInt(arg + 9, "--shards", /*min_value=*/1));
      } else if (strncmp(arg, "--tenants=", 10) == 0) {
        f.tenants = static_cast<int>(
            ParseFlagInt(arg + 10, "--tenants", /*min_value=*/1));
      } else if (strncmp(arg, "--shard_partition=", 18) == 0) {
        f.shard_partition = arg + 18;
        if (f.shard_partition != "hash" && f.shard_partition != "range") {
          fprintf(stderr,
                  "invalid value for --shard_partition: '%s' "
                  "(expected hash or range)\n",
                  arg + 18);
          exit(2);
        }
      } else if (strncmp(arg, "--redirect_policy=", 18) == 0) {
        f.redirect_policy = arg + 18;
        if (f.redirect_policy != "global" && f.redirect_policy != "per_shard") {
          fprintf(stderr,
                  "invalid value for --redirect_policy: '%s' "
                  "(expected global or per_shard)\n",
                  arg + 18);
          exit(2);
        }
      } else if (strncmp(arg, "--arbiter_share=", 16) == 0) {
        f.arbiter_share = ParseFlagDouble(arg + 16, "--arbiter_share");
        if (f.arbiter_share > 1.0) {
          fprintf(stderr,
                  "invalid value for --arbiter_share: %s "
                  "(must be a fraction in [0, 1])\n",
                  arg + 16);
          exit(2);
        }
      } else if (strncmp(arg, "--ndp=", 6) == 0) {
        f.ndp = arg + 6;
        if (f.ndp != "off" && f.ndp != "auto" && f.ndp != "force") {
          fprintf(stderr,
                  "invalid value for --ndp: '%s' "
                  "(expected off, auto or force)\n",
                  arg + 6);
          exit(2);
        }
      } else if (strncmp(arg, "--ndp_cores=", 12) == 0) {
        f.ndp_cores =
            static_cast<int>(ParseFlagInt(arg + 12, "--ndp_cores"));
      } else if (strncmp(arg, "--workload_mix=", 15) == 0) {
        f.workload_mix = arg + 15;
      } else if (strncmp(arg, "--arrival=", 10) == 0) {
        f.arrival = arg + 10;
        if (f.arrival != "closed" && f.arrival != "poisson" &&
            f.arrival != "diurnal" && f.arrival != "spike") {
          fprintf(stderr,
                  "invalid value for --arrival: '%s' "
                  "(expected closed, poisson, diurnal or spike)\n",
                  arg + 10);
          exit(2);
        }
      } else if (strncmp(arg, "--arrival_rate=", 15) == 0) {
        f.arrival_rate =
            ParseFlagDouble(arg + 15, "--arrival_rate", /*min_value=*/1);
      } else if (strncmp(arg, "--zipf_theta=", 13) == 0) {
        f.zipf_theta = ParseFlagDouble(arg + 13, "--zipf_theta");
        if (f.zipf_theta <= 0 || f.zipf_theta >= 1) {
          fprintf(stderr,
                  "invalid value for --zipf_theta: %s "
                  "(must be in (0, 1))\n",
                  arg + 13);
          exit(2);
        }
      } else if (strncmp(arg, "--hotspot=", 10) == 0) {
        f.hotspot = arg + 10;
      } else if (strncmp(arg, "--ttl_frac=", 11) == 0) {
        f.ttl_frac = ParseFlagDouble(arg + 11, "--ttl_frac");
        if (f.ttl_frac > 1.0) {
          fprintf(stderr,
                  "invalid value for --ttl_frac: %s "
                  "(must be a fraction in [0, 1])\n",
                  arg + 11);
          exit(2);
        }
      } else if (strncmp(arg, "--ttl_s=", 8) == 0) {
        f.ttl_s = ParseFlagDouble(arg + 8, "--ttl_s");
      } else if (strncmp(arg, "--deadline_us=", 14) == 0) {
        f.deadline_us = ParseFlagDouble(arg + 14, "--deadline_us");
      } else if (strcmp(arg, "--paper") == 0) {
        f.scale = 1.0;
        f.seconds = 600;
      }
    }
    return f;
  }
};

}  // namespace kvaccel::harness
