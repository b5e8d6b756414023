// Shared fixtures: spin up a simulation world (env, hybrid SSD, file system,
// host CPU) and run a test body inside a simulated thread.
#pragma once

#include <functional>

#include "devlsm/dev_lsm.h"
#include "fs/simfs.h"
#include "lsm/db.h"
#include "sim/cpu_pool.h"
#include "sim/fault.h"
#include "sim/sim_env.h"
#include "ssd/hybrid_ssd.h"

namespace kvaccel::test {

struct SimWorld {
  sim::SimEnv env;
  ssd::SsdConfig ssd_config;
  std::unique_ptr<ssd::HybridSsd> ssd;
  std::unique_ptr<fs::SimFs> fs;
  std::unique_ptr<sim::CpuPool> host_cpu;

  explicit SimWorld(ssd::SsdConfig config = DefaultSsdConfig()) {
    ssd_config = config;
    ssd = std::make_unique<ssd::HybridSsd>(&env, ssd_config);
    fs = std::make_unique<fs::SimFs>(ssd.get(), 0);
    host_cpu = std::make_unique<sim::CpuPool>(&env, "host", 8);
  }

  static ssd::SsdConfig DefaultSsdConfig() {
    ssd::SsdConfig c;
    c.capacity_bytes = 2ull << 30;  // 2 GiB: quick tests, room for levels
    return c;
  }

  lsm::DbEnv MakeDbEnv() {
    return lsm::DbEnv{&env, ssd.get(), fs.get(), host_cpu.get()};
  }

  // Runs `body` as the main simulated thread and drives the sim to completion.
  void Run(std::function<void()> body) {
    env.Spawn("test-main", std::move(body));
    env.Run();
  }
};

// Counts the block-read commands `world`'s device serves: the transient
// read site is armed with a rule that never fires, so each hit is one read.
class ReadCommandCounter {
 public:
  explicit ReadCommandCounter(SimWorld* world) : injector_(&world->env, 1) {
    world->env.set_fault_injector(&injector_);
    injector_.Arm("ssd.block.read.transient", sim::FaultRule{});
  }
  uint64_t count() const { return injector_.hits("ssd.block.read.transient"); }
  sim::FaultInjector* injector() { return &injector_; }

 private:
  sim::FaultInjector injector_;
};

// Small DbOptions so flush/compaction trigger quickly in tests.
inline lsm::DbOptions SmallDbOptions() {
  lsm::DbOptions o;
  o.write_buffer_size = 256 << 10;  // 256 KiB
  o.max_bytes_for_level_base = 1 << 20;
  o.target_file_size = 256 << 10;
  o.block_size = 4 << 10;
  o.block_cache_capacity = 1 << 20;
  o.l0_compaction_trigger = 4;
  o.l0_slowdown_writes_trigger = 8;
  o.l0_stop_writes_trigger = 12;
  o.compaction_threads = 2;
  return o;
}

inline std::string TestKey(uint64_t n) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%010llu", static_cast<unsigned long long>(n));
  return buf;
}

// Point writes to a Dev-LSM: one-entry compound commands, which cost what a
// standalone PUT or DELETE command would.
inline Status DevPut(devlsm::DevLsm* dev, const std::string& key,
                     const Value& value, uint64_t seq = 0) {
  return dev->PutCompound({{key, value, false, seq}});
}
inline Status DevDelete(devlsm::DevLsm* dev, const std::string& key,
                        uint64_t seq = 0) {
  return dev->PutCompound({{key, Value(), true, seq}});
}

}  // namespace kvaccel::test
