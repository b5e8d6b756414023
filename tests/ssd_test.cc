#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <vector>

#include "common/random.h"
#include "sim/sim_env.h"
#include "ssd/config.h"
#include "ssd/ftl.h"
#include "ssd/hybrid_ssd.h"
#include "ssd/nand_flash.h"
#include "ssd/nvme.h"

namespace kvaccel::ssd {
namespace {

SsdConfig SmallConfig() {
  SsdConfig c;
  c.capacity_bytes = 64ull << 20;  // 64 MiB
  c.pages_per_block = 16;
  return c;
}

TEST(NandFlashTest, SingleStreamReachesAggregateBandwidth) {
  sim::SimEnv env;
  SsdConfig c = SmallConfig();
  NandFlash nand(&env, c);
  Nanos done = 0;
  env.Spawn("w", [&] { done = nand.Write(63'000'000); });  // 63 MB
  env.Run();
  // 63 MB at 630 MB/s = 100 ms (+ fixed program latency).
  EXPECT_NEAR(ToSecs(done), 0.1, 0.002);
  EXPECT_EQ(nand.bytes_written(), 63'000'000u);
}

TEST(NandFlashTest, ConcurrentStreamsShareBandwidth) {
  sim::SimEnv env;
  NandFlash nand(&env, SmallConfig());
  Nanos d1 = 0, d2 = 0;
  env.Spawn("a", [&] { d1 = nand.Write(31'500'000); });
  env.Spawn("b", [&] { d2 = nand.Write(31'500'000); });
  env.Run();
  // Both share the 630 MB/s: 63 MB total takes ~100 ms.
  EXPECT_NEAR(ToSecs(std::max(d1, d2)), 0.1, 0.005);
}

TEST(NandFlashTest, ReadLatencyApplied) {
  sim::SimEnv env;
  SsdConfig c = SmallConfig();
  NandFlash nand(&env, c);
  Nanos done = 0;
  env.Spawn("r", [&] { done = nand.Read(4096); });
  env.Run();
  // One page: transfer (~26 us at 157.5 MB/s/channel) + 45 us access.
  EXPECT_GT(done, FromMicros(45));
  EXPECT_LT(done, FromMicros(120));
}

// Reference striping: page-sized chunks dealt round-robin from `start`, one
// page at a time. Returns each channel's bytes; *next is where the following
// transfer starts.
std::vector<uint64_t> StripeByPage(uint64_t bytes, size_t start, size_t n,
                                   uint64_t page, size_t* next) {
  std::vector<uint64_t> share(n, 0);
  size_t ch = start;
  for (uint64_t remaining = bytes; remaining > 0;) {
    uint64_t chunk = std::min(remaining, page);
    share[ch] += chunk;
    remaining -= chunk;
    ch = (ch + 1) % n;
  }
  *next = ch;
  return share;
}

// Every starting channel, and sizes from 0 up to three full stripes (a page
// on every channel) plus a partial page: each channel's bytes and the next
// transfer's starting channel match the page-by-page deal.
TEST(NandFlashTest, StripedSharesMatchPageByPageDeal) {
  sim::SimEnv env;
  SsdConfig c = SmallConfig();
  NandFlash nand(&env, c);
  const size_t n = static_cast<size_t>(nand.channels());
  const uint64_t page = c.page_size;
  std::vector<uint64_t> sizes = {0, 1, page / 2};
  for (uint64_t pages = 1; pages <= 3 * n + 1; pages++) {
    sizes.push_back(pages * page - 1);
    sizes.push_back(pages * page);
    sizes.push_back(pages * page + 1);
    sizes.push_back(pages * page + page / 2);
  }
  env.Spawn("stripes", [&] {
    size_t next = 0;  // a fresh device deals from channel 0
    auto transfer = [&](uint64_t bytes) {
      std::vector<uint64_t> before(n);
      for (size_t i = 0; i < n; i++) before[i] = nand.channel(i).total_bytes();
      size_t want_next = 0;
      std::vector<uint64_t> want = StripeByPage(bytes, next, n, page,
                                                &want_next);
      nand.Read(bytes);
      for (size_t i = 0; i < n; i++) {
        EXPECT_EQ(nand.channel(i).total_bytes() - before[i], want[i])
            << "bytes=" << bytes << " start=" << next << " channel=" << i;
      }
      next = want_next;
    };
    for (size_t start = 0; start < n; start++) {
      for (uint64_t bytes : sizes) {
        // Move the deal to `start` with whole pages; the shares of this
        // positioning transfer are checked too.
        if (next != start) transfer(((start + n - next) % n) * page);
        ASSERT_EQ(next, start);
        transfer(bytes);
      }
    }
    // The last deal's next channel: one page lands exactly there.
    std::vector<uint64_t> before(n);
    for (size_t i = 0; i < n; i++) before[i] = nand.channel(i).total_bytes();
    nand.Write(page);
    for (size_t i = 0; i < n; i++) {
      EXPECT_EQ(nand.channel(i).total_bytes() - before[i],
                i == next ? page : 0u);
    }
  });
  env.Run();
}

TEST(FtlTest, WriteMapsAndOverwriteInvalidates) {
  Ftl::Options opt;
  opt.logical_pages = 1024;
  opt.pages_per_block = 16;
  Ftl ftl(opt, nullptr);
  EXPECT_FALSE(ftl.IsMapped(5));
  ASSERT_TRUE(ftl.Write(0, 64).ok());
  EXPECT_TRUE(ftl.IsMapped(5));
  EXPECT_EQ(ftl.valid_pages(), 64u);
  ASSERT_TRUE(ftl.Write(0, 64).ok());  // overwrite
  EXPECT_EQ(ftl.valid_pages(), 64u);   // still 64 valid
  EXPECT_DOUBLE_EQ(ftl.write_amplification(), 1.0);  // no GC yet
}

TEST(FtlTest, TrimUnmaps) {
  Ftl::Options opt;
  opt.logical_pages = 256;
  opt.pages_per_block = 16;
  Ftl ftl(opt, nullptr);
  ASSERT_TRUE(ftl.Write(10, 20).ok());
  ASSERT_TRUE(ftl.Trim(10, 10).ok());
  EXPECT_FALSE(ftl.IsMapped(10));
  EXPECT_TRUE(ftl.IsMapped(25));
  EXPECT_EQ(ftl.valid_pages(), 10u);
  // Trimming unmapped pages is harmless.
  ASSERT_TRUE(ftl.Trim(0, 256).ok());
  EXPECT_EQ(ftl.valid_pages(), 0u);
}

TEST(FtlTest, OutOfRangeRejected) {
  Ftl::Options opt;
  opt.logical_pages = 64;
  opt.pages_per_block = 16;
  Ftl ftl(opt, nullptr);
  EXPECT_TRUE(ftl.Write(60, 10).IsInvalidArgument());
  EXPECT_TRUE(ftl.Trim(64, 1).IsInvalidArgument());
}

TEST(FtlTest, GcReclaimsOverwrittenSpace) {
  Ftl::Options opt;
  opt.logical_pages = 256;
  opt.pages_per_block = 16;
  opt.overprovision = 0.10;
  uint64_t gc_pages = 0, gc_blocks = 0;
  Ftl ftl(opt, [&](uint64_t p, uint64_t b) {
    gc_pages += p;
    gc_blocks += b;
  });
  // Overwrite the same range many times: physical blocks fill with invalid
  // pages; GC must keep reclaiming them indefinitely.
  for (int round = 0; round < 50; round++) {
    ASSERT_TRUE(ftl.Write(0, 128).ok()) << "round " << round;
  }
  EXPECT_EQ(ftl.valid_pages(), 128u);
  EXPECT_GT(ftl.gc_runs(), 0u);
  EXPECT_GT(ftl.erased_blocks(), 0u);
  EXPECT_EQ(gc_blocks, ftl.erased_blocks());
  EXPECT_GE(ftl.write_amplification(), 1.0);
}

TEST(FtlTest, FullDeviceRewriteRunsOnTheTwoSpareBlocks) {
  Ftl::Options opt;
  opt.logical_pages = 64;
  opt.pages_per_block = 16;
  opt.overprovision = 0.0;  // nothing spare beyond the FTL's floor
  Ftl ftl(opt, nullptr);
  // 4 logical blocks get 6 physical ones: the FTL never has fewer than
  // logical_blocks + 2, so even with every logical page valid, GC can free
  // a block for each one it fills and the rewrite succeeds.
  EXPECT_EQ(ftl.physical_blocks(), 6u);
  ASSERT_TRUE(ftl.Write(0, 64).ok());
  EXPECT_EQ(ftl.gc_runs(), 0u);
  Status s = ftl.Write(0, 64);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(ftl.valid_pages(), 64u);
  EXPECT_EQ(ftl.gc_runs(), 63u);
  EXPECT_EQ(ftl.free_blocks(), 1u);
}

TEST(FtlTest, PageCountPastThe32BitTablesIsRejected) {
  Ftl::Options opt;
  opt.logical_pages = Ftl::kMaxPhysicalPages;  // + overprovisioning: too many
  EXPECT_EXIT(Ftl(opt, nullptr), ::testing::KilledBySignal(SIGABRT),
              "32-bit page tables");
  opt.logical_pages = 0;
  EXPECT_EXIT(Ftl(opt, nullptr), ::testing::KilledBySignal(SIGABRT),
              "32-bit page tables");
}

// Random Write/Trim ranges on a small FTL kept under GC churn, checked
// after every op against a bitmap of what should be mapped. The final GC
// counters are pinned: physical placement feeds NAND timing, so a change to
// the tables that moved one relocation would show here.
TEST(FtlTest, SeededWriteTrimMatchesBitmapModel) {
  Ftl::Options opt;
  opt.logical_pages = 512;
  opt.pages_per_block = 16;
  uint64_t gc_pages = 0, gc_blocks = 0;
  Ftl ftl(opt, [&](uint64_t p, uint64_t b) {
    gc_pages += p;
    gc_blocks += b;
  });
  Random64 rng(20261017);
  std::vector<bool> model(opt.logical_pages, false);
  uint64_t model_valid = 0;
  for (int op = 0; op < 3000; op++) {
    uint64_t lpn = rng.Uniform(opt.logical_pages);
    uint64_t count =
        1 + rng.Uniform(std::min<uint64_t>(32, opt.logical_pages - lpn));
    bool trim = rng.OneIn(4);
    Status s = trim ? ftl.Trim(lpn, count) : ftl.Write(lpn, count);
    ASSERT_TRUE(s.ok()) << "op " << op << ": " << s.ToString();
    for (uint64_t p = lpn; p < lpn + count; p++) {
      if (trim && model[p]) model_valid--;
      if (!trim && !model[p]) model_valid++;
      model[p] = !trim;
    }
    ASSERT_EQ(ftl.valid_pages(), model_valid) << "op " << op;
    for (uint64_t p = 0; p < opt.logical_pages; p++) {
      ASSERT_EQ(ftl.IsMapped(p), model[p]) << "op " << op << " lpn " << p;
    }
  }
  EXPECT_EQ(ftl.gc_runs(), 3062u);
  EXPECT_EQ(ftl.relocated_pages(), 13952u);
  EXPECT_EQ(ftl.erased_blocks(), 3062u);
  EXPECT_EQ(gc_pages, ftl.relocated_pages());
  EXPECT_EQ(gc_blocks, ftl.erased_blocks());
}

TEST(HybridSsdTest, BlockIoMovesPcieAndNandTraffic) {
  sim::SimEnv env;
  HybridSsd ssd(&env, SmallConfig());
  env.Spawn("w", [&] {
    ASSERT_TRUE(ssd.BlockWrite(0, 0, 256).ok());  // 1 MiB
    ASSERT_TRUE(ssd.BlockRead(0, 0, 256).ok());
  });
  env.Run();
  EXPECT_EQ(ssd.pcie().total_bytes(), 2u << 20);
  EXPECT_EQ(ssd.nand().bytes_written(), 1u << 20);
  EXPECT_EQ(ssd.nand().bytes_read(), 1u << 20);
}

// This process's resident set in KiB, or -1 where /proc is unavailable.
long ResidentKib() {
  FILE* f = fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  long kib = -1;
  char line[256];
  while (fgets(line, sizeof(line), f) != nullptr) {
    if (sscanf(line, "VmRSS: %ld kB", &kib) == 1) break;
  }
  fclose(f);
  return kib;
}

TEST(HybridSsdTest, PaperCapacityDeviceCostsOnlyWhatIsWritten) {
  sim::SimEnv env;
  long before = ResidentKib();
  if (before < 0) GTEST_SKIP() << "no VmRSS in /proc/self/status";
  SsdConfig c;
  c.capacity_bytes = 256ull << 30;  // the paper-scale device
  HybridSsd ssd(&env, c);
  long grown_kib = ResidentKib() - before;
  EXPECT_LT(grown_kib, 16 * 1024) << "constructing the device made "
                                  << grown_kib << " KiB resident";
  // The far end of the address space maps like the near end.
  uint64_t last = ssd.BlockCapacitySectors(0) - 256;
  env.Spawn("w", [&] { ASSERT_TRUE(ssd.BlockWrite(0, last, 256).ok()); });
  env.Run();
  EXPECT_TRUE(ssd.block_ftl(0).IsMapped(last + 255));
  EXPECT_FALSE(ssd.block_ftl(0).IsMapped(0));
  EXPECT_EQ(ssd.block_ftl(0).valid_pages(), 256u);
}

TEST(HybridSsdTest, DisaggregationSplitsCapacity) {
  sim::SimEnv env;
  SsdConfig c = SmallConfig();
  c.block_region_fraction = 0.75;
  HybridSsd ssd(&env, c);
  uint64_t total = c.total_pages();
  EXPECT_EQ(ssd.BlockCapacitySectors(0), total * 3 / 4);
  EXPECT_EQ(ssd.KvCapacityPages(0), total - total * 3 / 4);
}

TEST(HybridSsdTest, KvQuotaEnforced) {
  sim::SimEnv env;
  HybridSsd ssd(&env, SmallConfig());
  uint64_t quota = ssd.KvCapacityPages(0);
  EXPECT_TRUE(ssd.KvAllocPages(0, quota).ok());
  EXPECT_TRUE(ssd.KvAllocPages(0, 1).IsNoSpace());
  ssd.KvFreePages(0, quota / 2);
  EXPECT_EQ(ssd.KvUsedPages(0), quota - quota / 2);
  EXPECT_TRUE(ssd.KvAllocPages(0, 1).ok());
}

TEST(HybridSsdTest, NamespacesAreIsolated) {
  sim::SimEnv env;
  SsdConfig c = SmallConfig();
  c.num_namespaces = 2;
  HybridSsd ssd(&env, c);
  EXPECT_EQ(ssd.BlockCapacitySectors(0), ssd.BlockCapacitySectors(1));
  // Fill namespace 0's KV quota; namespace 1 is unaffected.
  ASSERT_TRUE(ssd.KvAllocPages(0, ssd.KvCapacityPages(0)).ok());
  EXPECT_TRUE(ssd.KvAllocPages(0, 1).IsNoSpace());
  EXPECT_TRUE(ssd.KvAllocPages(1, 1).ok());
  EXPECT_TRUE(ssd.BlockWrite(2, 0, 1).IsInvalidArgument());
}

TEST(HybridSsdTest, CommandTraceRecords) {
  sim::SimEnv env;
  HybridSsd ssd(&env, SmallConfig());
  env.Spawn("w", [&] {
    ssd.BlockWrite(0, 0, 4);
    ssd.BlockRead(0, 0, 4);
    ssd.BlockFlush(0);
  });
  env.Run();
  EXPECT_EQ(ssd.trace().CountOf(nvme::Opcode::kWrite), 1u);
  EXPECT_EQ(ssd.trace().CountOf(nvme::Opcode::kRead), 1u);
  EXPECT_EQ(ssd.trace().CountOf(nvme::Opcode::kFlush), 1u);
  EXPECT_EQ(ssd.trace().total_count(), 3u);
}

TEST(HybridSsdTest, FirmwareIsSlowerThanHost) {
  sim::SimEnv env;
  SsdConfig c = SmallConfig();
  HybridSsd ssd(&env, c);
  Nanos done = 0;
  env.Spawn("fw", [&] {
    ssd.firmware()->Consume(1e6);  // 1 ms of nominal work
    done = env.Now();
  });
  env.Run();
  EXPECT_NEAR(static_cast<double>(done), 1e6 / c.firmware_speed, 1e3);
}

TEST(NvmeTest, OpcodeNames) {
  EXPECT_STREQ(nvme::OpcodeName(nvme::Opcode::kKvStore), "KV_STORE");
  EXPECT_STREQ(nvme::OpcodeName(nvme::Opcode::kKvBulkScan), "KV_BULK_SCAN");
  EXPECT_STREQ(nvme::OpcodeName(nvme::Opcode::kRead), "READ");
}

}  // namespace
}  // namespace kvaccel::ssd
