#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fs/simfs.h"
#include "sim/sim_env.h"
#include "ssd/hybrid_ssd.h"

namespace kvaccel::fs {
namespace {

ssd::SsdConfig SmallConfig() {
  ssd::SsdConfig c;
  c.capacity_bytes = 64ull << 20;
  c.pages_per_block = 16;
  return c;
}

// Runs `body` inside a one-thread simulation.
void RunSim(const std::function<void(sim::SimEnv&, ssd::HybridSsd&)>& body) {
  sim::SimEnv env;
  ssd::HybridSsd ssd(&env, SmallConfig());
  env.Spawn("main", [&] { body(env, ssd); });
  env.Run();
}

TEST(SimFsTest, WriteReadRoundTrip) {
  RunSim([](sim::SimEnv&, ssd::HybridSsd& ssd) {
    SimFs fs(&ssd, 0);
    std::unique_ptr<WritableFile> w;
    ASSERT_TRUE(fs.NewWritableFile("a.sst", &w).ok());
    ASSERT_TRUE(w->Append("hello ").ok());
    ASSERT_TRUE(w->Append("world").ok());
    ASSERT_TRUE(w->Close().ok());

    std::unique_ptr<RandomAccessFile> r;
    ASSERT_TRUE(fs.NewRandomAccessFile("a.sst", &r).ok());
    std::string out;
    ASSERT_TRUE(r->Read(0, 11, &out).ok());
    EXPECT_EQ(out, "hello world");
    ASSERT_TRUE(r->Read(6, 5, &out).ok());
    EXPECT_EQ(out, "world");
    // Reads beyond EOF return the available prefix / empty.
    ASSERT_TRUE(r->Read(6, 100, &out).ok());
    EXPECT_EQ(out, "world");
    ASSERT_TRUE(r->Read(100, 5, &out).ok());
    EXPECT_TRUE(out.empty());
  });
}

TEST(SimFsTest, LogicalSizeDrivesAllocation) {
  RunSim([](sim::SimEnv&, ssd::HybridSsd& ssd) {
    SimFs fs(&ssd, 0);
    uint64_t before = fs.free_sectors();
    std::unique_ptr<WritableFile> w;
    ASSERT_TRUE(fs.NewWritableFile("big", &w).ok());
    // 100 physical bytes representing 1 MiB logical.
    std::string tiny(100, 'x');
    ASSERT_TRUE(w->Append(tiny, 1 << 20).ok());
    ASSERT_TRUE(w->Close().ok());
    EXPECT_EQ(w->logical_size(), 1u << 20);
    EXPECT_EQ(w->physical_size(), 100u);
    // 1 MiB of 4 KiB sectors = 256 sectors consumed.
    EXPECT_EQ(before - fs.free_sectors(), 256u);
  });
}

TEST(SimFsTest, DeleteFreesSpaceAndTrims) {
  RunSim([](sim::SimEnv&, ssd::HybridSsd& ssd) {
    SimFs fs(&ssd, 0);
    uint64_t before = fs.free_sectors();
    std::unique_ptr<WritableFile> w;
    ASSERT_TRUE(fs.NewWritableFile("f", &w).ok());
    ASSERT_TRUE(w->Append(std::string(100, 'a'), 1 << 20).ok());
    ASSERT_TRUE(w->Close().ok());
    EXPECT_LT(fs.free_sectors(), before);
    uint64_t valid_before = ssd.block_ftl(0).valid_pages();
    EXPECT_GT(valid_before, 0u);
    ASSERT_TRUE(fs.DeleteFile("f").ok());
    EXPECT_EQ(fs.free_sectors(), before);
    EXPECT_FALSE(fs.FileExists("f"));
    EXPECT_LT(ssd.block_ftl(0).valid_pages(), valid_before);
    EXPECT_TRUE(fs.DeleteFile("f").IsNotFound());
  });
}

TEST(SimFsTest, RenameReplacesTarget) {
  RunSim([](sim::SimEnv&, ssd::HybridSsd& ssd) {
    SimFs fs(&ssd, 0);
    std::unique_ptr<WritableFile> w;
    ASSERT_TRUE(fs.NewWritableFile("tmp", &w).ok());
    ASSERT_TRUE(w->Append("new-manifest").ok());
    ASSERT_TRUE(w->Close().ok());
    ASSERT_TRUE(fs.NewWritableFile("CURRENT", &w).ok());
    ASSERT_TRUE(w->Append("old").ok());
    ASSERT_TRUE(w->Close().ok());

    ASSERT_TRUE(fs.RenameFile("tmp", "CURRENT").ok());
    EXPECT_FALSE(fs.FileExists("tmp"));
    std::unique_ptr<RandomAccessFile> r;
    ASSERT_TRUE(fs.NewRandomAccessFile("CURRENT", &r).ok());
    std::string out;
    ASSERT_TRUE(r->Read(0, 100, &out).ok());
    EXPECT_EQ(out, "new-manifest");
    EXPECT_TRUE(fs.RenameFile("nope", "x").IsNotFound());
  });
}

TEST(SimFsTest, GetChildrenAndSizes) {
  RunSim([](sim::SimEnv&, ssd::HybridSsd& ssd) {
    SimFs fs(&ssd, 0);
    for (const char* name : {"000001.log", "000002.sst", "MANIFEST"}) {
      std::unique_ptr<WritableFile> w;
      ASSERT_TRUE(fs.NewWritableFile(name, &w).ok());
      ASSERT_TRUE(w->Append("x").ok());
      ASSERT_TRUE(w->Close().ok());
    }
    auto children = fs.GetChildren();
    EXPECT_EQ(children.size(), 3u);
    uint64_t logical, physical;
    ASSERT_TRUE(fs.GetFileSize("MANIFEST", &logical, &physical).ok());
    EXPECT_EQ(logical, 1u);
    EXPECT_EQ(physical, 1u);
    EXPECT_TRUE(fs.GetFileSize("nope", &logical).IsNotFound());
  });
}

TEST(SimFsTest, WritebackChargesDeviceInChunks) {
  RunSim([](sim::SimEnv& env, ssd::HybridSsd& ssd) {
    SimFs fs(&ssd, 0, /*writeback_chunk=*/64 * 1024);
    std::unique_ptr<WritableFile> w;
    ASSERT_TRUE(fs.NewWritableFile("wal", &w).ok());
    Nanos start = env.Now();
    // Appends below the chunk threshold cost no device time...
    ASSERT_TRUE(w->Append(std::string(1000, 'x'), 1000).ok());
    EXPECT_EQ(env.Now(), start);
    // ...but crossing it triggers a device write burst.
    ASSERT_TRUE(w->Append(std::string(100, 'y'), 64 * 1024).ok());
    EXPECT_GT(env.Now(), start);
    EXPECT_GT(ssd.nand().bytes_written(), 0u);
  });
}

TEST(SimFsTest, SyncFlushesPartialSector) {
  RunSim([](sim::SimEnv&, ssd::HybridSsd& ssd) {
    SimFs fs(&ssd, 0);
    std::unique_ptr<WritableFile> w;
    ASSERT_TRUE(fs.NewWritableFile("wal", &w).ok());
    ASSERT_TRUE(w->Append("tiny record").ok());
    EXPECT_EQ(ssd.nand().bytes_written(), 0u);
    ASSERT_TRUE(w->Sync().ok());
    EXPECT_EQ(ssd.nand().bytes_written(), 4096u);  // one sector
    ASSERT_TRUE(w->Close().ok());
  });
}

TEST(SimFsTest, NoSpaceWhenFull) {
  RunSim([](sim::SimEnv&, ssd::HybridSsd& ssd) {
    SimFs fs(&ssd, 0);
    std::unique_ptr<WritableFile> w;
    ASSERT_TRUE(fs.NewWritableFile("huge", &w).ok());
    uint64_t too_big = (fs.total_sectors() + 1) * 4096;
    Status s = w->Append(std::string(8, 'x'), too_big);
    if (s.ok()) s = w->Sync();  // writeback is what hits the capacity wall
    EXPECT_TRUE(s.IsNoSpace());
  });
}

TEST(SimFsTest, RecreateTruncates) {
  RunSim([](sim::SimEnv&, ssd::HybridSsd& ssd) {
    SimFs fs(&ssd, 0);
    uint64_t before = fs.free_sectors();
    std::unique_ptr<WritableFile> w;
    ASSERT_TRUE(fs.NewWritableFile("f", &w).ok());
    ASSERT_TRUE(w->Append(std::string(10, 'a'), 1 << 20).ok());
    ASSERT_TRUE(w->Close().ok());
    ASSERT_TRUE(fs.NewWritableFile("f", &w).ok());
    ASSERT_TRUE(w->Append("b").ok());
    ASSERT_TRUE(w->Sync().ok());  // force the dirty byte onto the device
    ASSERT_TRUE(w->Close().ok());
    uint64_t logical;
    ASSERT_TRUE(fs.GetFileSize("f", &logical).ok());
    EXPECT_EQ(logical, 1u);
    // Old 1 MiB allocation was released (only 1 sector now held).
    EXPECT_EQ(before - fs.free_sectors(), 1u);
  });
}

// Appends grow a file's buffer by doubling; Close gives the slack back. Two
// files take the same appends, and only one is closed: it then holds exactly
// its bytes, reads return them, and a power cut leaves both files the same
// written-back prefix.
TEST(SimFsTest, CloseGivesBackAppendSlack) {
  RunSim([](sim::SimEnv&, ssd::HybridSsd& ssd) {
    SimFs fs(&ssd, 0);
    std::unique_ptr<WritableFile> closed, open;
    ASSERT_TRUE(fs.NewWritableFile("closed", &closed).ok());
    ASSERT_TRUE(fs.NewWritableFile("open", &open).ok());
    // 41 physical bytes stand for 1,000 device bytes, so a 16 KiB writeback
    // chunk writes back every 17 appends and leaves a dirty tail.
    for (WritableFile* w : {closed.get(), open.get()}) {
      w->set_writeback_chunk(16 << 10);
    }
    std::string contents;
    for (int i = 0; i < 300; i++) {
      const std::string chunk(41, static_cast<char>('a' + i % 26));
      for (WritableFile* w : {closed.get(), open.get()}) {
        ASSERT_TRUE(w->Append(chunk, 1000).ok());
      }
      contents += chunk;
    }
    const uint64_t both = fs.resident_bytes();
    EXPECT_GT(both, 2 * contents.size());
    ASSERT_TRUE(closed->Close().ok());
    EXPECT_EQ(fs.resident_bytes(), both / 2 + contents.size());

    std::unique_ptr<RandomAccessFile> r;
    std::string out;
    ASSERT_TRUE(fs.NewRandomAccessFile("closed", &r).ok());
    ASSERT_TRUE(r->Read(0, contents.size() + 1, &out).ok());
    EXPECT_EQ(out, contents);

    fs.DropAllDirty();
    std::string kept_closed, kept_open;
    ASSERT_TRUE(r->Read(0, contents.size(), &kept_closed).ok());
    ASSERT_TRUE(fs.NewRandomAccessFile("open", &r).ok());
    ASSERT_TRUE(r->Read(0, contents.size(), &kept_open).ok());
    EXPECT_EQ(kept_closed, kept_open);
    EXPECT_FALSE(kept_closed.empty());
    EXPECT_LT(kept_closed.size(), contents.size());
    EXPECT_EQ(kept_closed, contents.substr(0, kept_closed.size()));
  });
}

}  // namespace
}  // namespace kvaccel::fs
