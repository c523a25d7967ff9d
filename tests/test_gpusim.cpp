// Unit tests for the simulated device runtime: launch semantics, shared
// memory limits, stream timelines, memory accounting, and the cost model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"

using irrlu::Error;
using namespace irrlu::gpusim;

TEST(DeviceModel, PresetsAreSane) {
  for (const auto& m : {DeviceModel::a100(), DeviceModel::mi100(),
                        DeviceModel::xeon6140x2(), DeviceModel::test_tiny()}) {
    EXPECT_GE(m.num_sms, 1) << m.name;
    EXPECT_GT(m.peak_flops_per_sm, 0) << m.name;
    EXPECT_GT(m.mem_bandwidth, 0) << m.name;
    EXPECT_LE(m.shared_mem_per_block, m.shared_mem_per_sm) << m.name;
  }
  // The paper's occupancy argument: MI100's 64 KB LDS is far smaller than
  // A100's 192 KB shared memory.
  EXPECT_LT(DeviceModel::mi100().shared_mem_per_block,
            DeviceModel::a100().shared_mem_per_block);
}

TEST(DeviceModel, BlockSecondsMonotone) {
  const auto m = DeviceModel::a100();
  EXPECT_LT(m.block_seconds(1e3, 1e3), m.block_seconds(1e6, 1e3));
  EXPECT_LT(m.block_seconds(1e3, 1e3), m.block_seconds(1e3, 1e6));
  EXPECT_EQ(m.block_seconds(0, 0), 0.0);
}

TEST(DeviceModel, OccupancyLimitedBySharedMemory) {
  const auto m = DeviceModel::a100();
  EXPECT_EQ(m.blocks_per_sm(0), m.max_blocks_per_sm);
  EXPECT_EQ(m.blocks_per_sm(m.shared_mem_per_sm), 1);
  EXPECT_EQ(m.blocks_per_sm(m.shared_mem_per_sm / 4), 4);
}

TEST(Device, LaunchExecutesAllBlocks) {
  Device dev(DeviceModel::test_tiny());
  std::vector<int> hits(10, 0);
  dev.launch(dev.stream(), {"mark", 10, 0},
             [&](BlockCtx& ctx) { hits[ctx.block()]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(dev.launch_count(), 1);
}

TEST(Device, EmptyGridAdvancesTime) {
  Device dev(DeviceModel::test_tiny());
  dev.launch(dev.stream(), {"empty", 0, 0}, [](BlockCtx&) { FAIL(); });
  EXPECT_GT(dev.synchronize_all(), 0.0);
}

TEST(Device, SharedMemoryWithinBudget) {
  Device dev(DeviceModel::test_tiny());
  dev.launch(dev.stream(), {"smem", 1, 1024}, [&](BlockCtx& ctx) {
    double* w = ctx.smem_alloc<double>(128);  // exactly 1024 bytes
    w[0] = 1.0;
    w[127] = 2.0;
    EXPECT_EQ(w[0] + w[127], 3.0);
  });
}

TEST(Device, SharedMemoryOverflowThrows) {
  Device dev(DeviceModel::test_tiny());
  EXPECT_THROW(dev.launch(dev.stream(), {"smem_over", 1, 64},
                          [&](BlockCtx& ctx) {
                            ctx.smem_alloc<double>(9);  // 72 > 64 bytes
                          }),
               Error);
}

TEST(Device, DeclaringMoreThanHardwareThrows) {
  Device dev(DeviceModel::test_tiny());
  const auto limit = dev.model().shared_mem_per_block;
  EXPECT_THROW(
      dev.launch(dev.stream(), {"too_big", 1, limit + 1}, [](BlockCtx&) {}),
      Error);
}

TEST(Device, StreamOrderingAccumulatesTime) {
  Device dev(DeviceModel::test_tiny());
  auto& s = dev.stream();
  dev.launch(s, {"k1", 1, 0}, [](BlockCtx& c) { c.record(1e6, 0); });
  const double t1 = s.completion_time();
  dev.launch(s, {"k2", 1, 0}, [](BlockCtx& c) { c.record(1e6, 0); });
  const double t2 = s.completion_time();
  EXPECT_GT(t1, 0.0);
  EXPECT_GT(t2, t1 + 0.9e-3);  // 1e6 flops at 1 GF/s ~ 1 ms
}

TEST(Device, IndependentStreamsOverlap) {
  // Two 1-block kernels in different streams should overlap on a 2-SM
  // device: makespan well below 2x the serial time.
  auto run = [](int nstreams) {
    Device dev(DeviceModel::test_tiny());
    for (int i = 0; i < 2; ++i)
      dev.launch(dev.stream(nstreams == 1 ? 0 : i), {"k", 1, 0},
                 [](BlockCtx& c) { c.record(1e7, 0); });
    return dev.synchronize_all();
  };
  const double serial = run(1);
  const double parallel = run(2);
  EXPECT_LT(parallel, 0.6 * serial);
}

TEST(Device, MoreBlocksThanSlotsSerializes) {
  // test_tiny has 2 SMs x 4 slots = 8 slots; 32 equal blocks need 4 waves.
  Device dev(DeviceModel::test_tiny());
  dev.launch(dev.stream(), {"w", 8, 0},
             [](BlockCtx& c) { c.record(1e7, 0); });
  const double one_wave = dev.synchronize_all();
  dev.reset_timeline();
  dev.launch(dev.stream(), {"w", 32, 0},
             [](BlockCtx& c) { c.record(1e7, 0); });
  const double four_waves = dev.synchronize_all();
  EXPECT_GT(four_waves, 3.0 * one_wave);
  EXPECT_LT(four_waves, 5.0 * one_wave);
}

TEST(Device, OccupancyReducedBySharedMemory) {
  // With smem = shared_mem_per_sm, only 1 block fits per SM: 8 blocks on
  // 2 SMs take ~4 rounds instead of 1.
  Device dev(DeviceModel::test_tiny());
  const auto smem = dev.model().shared_mem_per_block;  // 4 KB = full SM/2
  dev.launch(dev.stream(), {"occ", 8, 0},
             [](BlockCtx& c) { c.record(1e7, 0); });
  const double full_occ = dev.synchronize_all();
  dev.reset_timeline();
  dev.launch(dev.stream(), {"occ_smem", 8, smem},
             [](BlockCtx& c) { c.record(1e7, 0); });
  const double low_occ = dev.synchronize_all();
  EXPECT_GT(low_occ, 1.5 * full_occ);
}

TEST(Device, HostDispatchSerializesManySmallLaunches) {
  // The Fig-10 phenomenon in miniature: 100 tiny kernels across 16 streams
  // cannot run faster than 100 dispatch overheads.
  Device dev(DeviceModel::test_tiny());
  for (int i = 0; i < 100; ++i)
    dev.launch(dev.stream(i % 16), {"tiny", 1, 0},
               [](BlockCtx& c) { c.record(10, 10); });
  const double t = dev.synchronize_all();
  EXPECT_GE(t, 100 * dev.model().host_dispatch_overhead);
}

TEST(Device, ProfileAggregatesPerKernel) {
  Device dev(DeviceModel::test_tiny());
  for (int i = 0; i < 3; ++i)
    dev.launch(dev.stream(), {"a", 2, 0},
               [](BlockCtx& c) { c.record(100, 200); });
  dev.launch(dev.stream(), {"b", 1, 0}, [](BlockCtx& c) { c.record(5, 5); });
  const auto& prof = dev.profile();
  ASSERT_EQ(prof.count("a"), 1u);
  EXPECT_EQ(prof.at("a").launches, 3);
  EXPECT_EQ(prof.at("a").blocks, 6);
  EXPECT_DOUBLE_EQ(prof.at("a").flops, 600.0);
  EXPECT_DOUBLE_EQ(prof.at("b").bytes, 5.0);
}

TEST(Device, SyncAccounting) {
  Device dev(DeviceModel::test_tiny());
  dev.launch(dev.stream(), {"k", 1, 0}, [](BlockCtx& c) { c.record(1e6, 0); });
  dev.synchronize(dev.stream());
  EXPECT_EQ(dev.sync_count(), 1);
  EXPECT_GT(dev.sync_wait_seconds(), 0.0);
}

TEST(Device, ResetTimelineClearsClockButNotMemory) {
  Device dev(DeviceModel::test_tiny());
  auto buf = dev.alloc<double>(16);
  buf[0] = 42.0;
  dev.launch(dev.stream(), {"k", 1, 0}, [](BlockCtx& c) { c.record(1e6, 0); });
  dev.synchronize_all();
  dev.reset_timeline();
  EXPECT_EQ(dev.host_time(), 0.0);
  EXPECT_EQ(dev.launch_count(), 0);
  EXPECT_EQ(buf[0], 42.0);
}

TEST(Device, MemoryAccounting) {
  Device dev(DeviceModel::test_tiny());
  EXPECT_EQ(dev.bytes_in_use(), 0u);
  {
    auto a = dev.alloc<double>(100);
    EXPECT_EQ(dev.bytes_in_use(), 800u);
    {
      auto b = dev.alloc<int>(25);
      EXPECT_EQ(dev.bytes_in_use(), 900u);
    }
    EXPECT_EQ(dev.bytes_in_use(), 800u);
  }
  EXPECT_EQ(dev.bytes_in_use(), 0u);
  EXPECT_EQ(dev.peak_bytes(), 900u);
}

TEST(DeviceBuffer, MoveTransfersOwnership) {
  Device dev(DeviceModel::test_tiny());
  auto a = dev.alloc<int>(4);
  a[0] = 7;
  auto b = std::move(a);
  EXPECT_EQ(b[0], 7);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(dev.bytes_in_use(), 16u);
}

TEST(Device, LoadImbalanceDominatesMakespan) {
  // One huge block among many tiny ones pins the kernel end time — the
  // irregular-batch load-balance effect central to the paper.
  Device dev(DeviceModel::test_tiny());
  dev.launch(dev.stream(), {"imb", 64, 0}, [](BlockCtx& c) {
    c.record(c.block() == 0 ? 1e9 : 1e3, 0);
  });
  const double t = dev.synchronize_all();
  EXPECT_GT(t, 1.0);  // dominated by the 1e9-flop block at 1 GF/s
  EXPECT_LT(t, 1.5);
}

TEST(Event, CrossStreamOrdering) {
  Device dev(DeviceModel::test_tiny());
  auto& s0 = dev.stream(0);
  auto& s1 = dev.stream(1);
  dev.launch(s0, {"producer", 1, 0}, [](BlockCtx& c) { c.record(1e7, 0); });
  const Event e = dev.record(s0);
  EXPECT_GT(e.time(), 0.0);
  dev.wait(s1, e);
  dev.launch(s1, {"consumer", 1, 0}, [](BlockCtx& c) { c.record(10, 0); });
  // The consumer cannot have started before the producer finished.
  EXPECT_GE(dev.stream(1).completion_time(), e.time());
}

TEST(Event, WaitOnPastEventIsNoOp) {
  Device dev(DeviceModel::test_tiny());
  auto& s0 = dev.stream(0);
  auto& s1 = dev.stream(1);
  const Event early = dev.record(s0);  // time 0
  dev.launch(s1, {"k", 1, 0}, [](BlockCtx& c) { c.record(1e7, 0); });
  const double before = s1.completion_time();
  dev.wait(s1, early);
  EXPECT_EQ(s1.completion_time(), before);
}

TEST(DeviceModel, IntelPresetSane) {
  const auto m = DeviceModel::max1550();
  EXPECT_GT(m.peak_flops_per_sm * m.num_sms, 9.7e12);  // above the A100
  EXPECT_GT(m.mem_bandwidth, DeviceModel::a100().mem_bandwidth);
  EXPECT_LE(m.shared_mem_per_block, m.shared_mem_per_sm);
}

TEST(Device, TimelineIsDeterministic) {
  // Replaying the same launch program yields bit-identical simulated
  // time.
  auto run = [] {
    Device dev(DeviceModel::a100());
    for (int i = 0; i < 20; ++i)
      dev.launch(dev.stream(i % 3), {"k", 5 + i, 1024},
                 [&](BlockCtx& c) { c.record(1e5 * (1 + c.block()), 3e4); });
    return dev.synchronize_all();
  };
  EXPECT_EQ(run(), run());
}

// Brute-force list schedule of one launch: every block, in issue order,
// goes to the lexicographically smallest (free time, slot index) over ALL
// num_sms * blocks_per_sm slots. Device::end_launch seeds its heap with
// only the smallest `blocks` slots; this is the schedule that shortcut
// must reproduce bit for bit.
struct BruteForceSchedule {
  DeviceModel m;
  std::vector<double> slot_free;
  std::vector<double> cursor;
  double host = 0;

  explicit BruteForceSchedule(const DeviceModel& model)
      : m(model),
        slot_free(static_cast<std::size_t>(model.num_sms) *
                      static_cast<std::size_t>(model.max_blocks_per_sm),
                  0.0) {}

  double launch(int stream, std::size_t smem,
                const std::vector<std::pair<double, double>>& costs) {
    if (cursor.size() <= static_cast<std::size_t>(stream))
      cursor.resize(static_cast<std::size_t>(stream) + 1, 0.0);
    double& cur = cursor[static_cast<std::size_t>(stream)];
    const double dispatch_done = host + m.host_dispatch_overhead;
    host = dispatch_done;
    const double earliest =
        std::max(dispatch_done + m.device_launch_latency, cur);
    const std::size_t nslots = static_cast<std::size_t>(m.num_sms) *
                               static_cast<std::size_t>(m.blocks_per_sm(smem));
    double end = earliest;
    if (!costs.empty()) {
      const double bw =
          m.bandwidth_share(static_cast<int>(std::min(nslots, costs.size())));
      for (const auto& [flops, bytes] : costs) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < nslots; ++i)
          if (slot_free[i] < slot_free[best]) best = i;
        const double start = std::max(slot_free[best], earliest);
        const double done =
            start + m.block_start_overhead + m.block_seconds(flops, bytes, bw);
        slot_free[best] = done;
        end = std::max(end, done);
      }
    }
    cur = end;
    return end;
  }
};

TEST(Device, BoundedHeapSeedingMatchesBruteForceListSchedule) {
  // A 5-SM x 6-slot device: 30 slots at smem 0 or 4 KiB, 20 at 6 KiB, 15 at
  // 8 KiB, so grids straddle the slot count of each occupancy class and the
  // chunked threshold scan has whole chunks to skip. The A100 preset adds
  // the production regime: small grids over thousands of slots.
  DeviceModel small = DeviceModel::test_tiny();
  small.num_sms = 5;
  small.max_blocks_per_sm = 6;
  small.shared_mem_per_sm = 24 << 10;
  small.shared_mem_per_block = 8 << 10;
  for (const DeviceModel& model : {small, DeviceModel::a100()}) {
    SCOPED_TRACE(model.name);
    Device dev(model);
    BruteForceSchedule ref(model);
    irrlu::Rng rng(4099);
    const std::size_t smems[] = {0, 4 << 10, 6 << 10, 8 << 10};
    for (int l = 0; l < 120; ++l) {
      const int stream = l % 3;
      const std::size_t smem = smems[static_cast<std::size_t>(l / 3) % 4];
      const int nslots = model.num_sms * model.blocks_per_sm(smem);
      // Smaller than, equal to and larger than the slot count; l % 7 == 6
      // is an empty grid.
      const int grids[] = {1, 3, nslots - 1, nslots, nslots + 1,
                           2 * nslots + 7, 0};
      const int blocks = std::min(grids[l % 7], 256);
      // Uniform costs (l % 5 == 0) finish whole waves at one instant, so
      // later launches see equal free times on many slots; near-uniform
      // ones (l % 5 == 1, one flop apart) leave free times a few ulps
      // apart. The rest are heterogeneous, including zero-cost blocks.
      std::vector<std::pair<double, double>> costs;
      for (int b = 0; b < blocks; ++b) {
        if (l % 5 == 0)
          costs.emplace_back(2e7, 6e5);
        else if (l % 5 == 1)
          costs.emplace_back(2e7 + 0.25 * (b % 3), 6e5);
        else if (rng.uniform() < 0.1)
          costs.emplace_back(0.0, 0.0);
        else
          costs.emplace_back(rng.uniform(0, 4e6), rng.uniform(0, 1e6));
      }
      dev.launch(dev.stream(stream), {"sched", blocks, smem},
                 [&](BlockCtx& c) {
                   const auto& [flops, bytes] =
                       costs[static_cast<std::size_t>(c.block())];
                   c.record(flops, bytes);
                 });
      const double want = ref.launch(stream, smem, costs);
      ASSERT_EQ(dev.stream(stream).completion_time(), want)
          << "launch " << l << ", " << blocks << " blocks over " << nslots
          << " slots";
    }
  }
}

TEST(BlockCtx, SharedMemoryAllocationsAreAligned) {
  Device dev(DeviceModel::test_tiny());
  dev.launch(dev.stream(), {"align", 1, 256}, [](BlockCtx& ctx) {
    char* a = ctx.smem_alloc<char>(3);
    double* b = ctx.smem_alloc<double>(4);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % alignof(double), 0u);
    a[0] = 1;
    b[0] = 2.0;
    EXPECT_GT(reinterpret_cast<char*>(b), a);
  });
}

TEST(Device, BandwidthShareCappedPerBlock) {
  const auto m = DeviceModel::a100();
  EXPECT_DOUBLE_EQ(m.bandwidth_share(1), m.max_sm_bandwidth);
  EXPECT_LT(m.bandwidth_share(2000), m.max_sm_bandwidth);
  EXPECT_NEAR(m.bandwidth_share(2000) * 2000, m.mem_bandwidth, 1.0);
}

TEST(Device, AllocationCostsSimulatedTime) {
  Device dev(DeviceModel::a100());
  const double t0 = dev.host_time();
  auto buf = dev.alloc<double>(1000);
  EXPECT_GE(dev.host_time() - t0, dev.model().alloc_overhead * 0.99);
}

TEST(Device, AllocZeroElementsIsEmptyNoop) {
  // A zero-count alloc yields a valid empty buffer without touching the
  // arena or the simulated clock (no cudaMalloc analogue is issued).
  Device dev(DeviceModel::a100());
  const double t0 = dev.host_time();
  auto buf = dev.alloc<double>(0);
  EXPECT_EQ(buf.data(), nullptr);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(dev.bytes_in_use(), 0u);
  EXPECT_EQ(dev.peak_bytes(), 0u);
  EXPECT_EQ(dev.host_time(), t0);
  buf.release();  // releasing an empty buffer is a no-op too
  EXPECT_EQ(dev.bytes_in_use(), 0u);
}

TEST(DeviceBuffer, MoveAssignReleasesOldExactlyOnce) {
  Device dev(DeviceModel::test_tiny());
  auto a = dev.alloc<double>(100);  // 800 B
  auto b = dev.alloc<double>(50);   // 400 B
  a[0] = 3.5;
  EXPECT_EQ(dev.bytes_in_use(), 1200u);
  b = std::move(a);  // must free b's old 400 B exactly once
  EXPECT_EQ(dev.bytes_in_use(), 800u);
  EXPECT_EQ(b[0], 3.5);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0u);
  b.release();
  EXPECT_EQ(dev.bytes_in_use(), 0u);
  b.release();  // double release is a no-op, not a double free
  EXPECT_EQ(dev.bytes_in_use(), 0u);
}

TEST(DeviceBuffer, SelfMoveAssignIsNoop) {
  Device dev(DeviceModel::test_tiny());
  auto a = dev.alloc<int>(8);
  a[0] = 11;
  auto& alias = a;  // via an alias so -Wself-move stays quiet
  a = std::move(alias);
  EXPECT_EQ(a[0], 11);
  EXPECT_EQ(dev.bytes_in_use(), 32u);
}

TEST(Device, PeakTracksInterleavedAllocFree) {
  // peak_bytes is the lifetime high-water mark; window_peak_bytes rebases
  // at reset_peak_window() so a later phase can be measured in isolation.
  Device dev(DeviceModel::test_tiny());
  auto a = dev.alloc<char>(1000);
  {
    auto b = dev.alloc<char>(500);
    EXPECT_EQ(dev.peak_bytes(), 1500u);
  }
  {
    auto c = dev.alloc<char>(200);  // 1200 live: below the 1500 peak
    EXPECT_EQ(dev.peak_bytes(), 1500u);
    EXPECT_EQ(dev.bytes_in_use(), 1200u);
  }
  dev.reset_peak_window();  // window starts at the current 1000 B
  EXPECT_EQ(dev.window_peak_bytes(), 1000u);
  {
    auto d = dev.alloc<char>(300);
    EXPECT_EQ(dev.window_peak_bytes(), 1300u);
  }
  auto e = dev.alloc<char>(100);  // 1100 live: window peak stays 1300
  EXPECT_EQ(dev.window_peak_bytes(), 1300u);
  EXPECT_EQ(dev.peak_bytes(), 1500u);  // lifetime peak unaffected
}

TEST(Device, SharedMemoryOverflowMessageIsActionable) {
  Device dev(DeviceModel::test_tiny());
  try {
    dev.launch(dev.stream(), {"smem_msg", 1, 64}, [&](BlockCtx& ctx) {
      ctx.smem_alloc<double>(9);  // needs 72 B against a 64 B budget
    });
    FAIL() << "expected shared-memory overflow";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("shared memory overflow"), std::string::npos) << msg;
    EXPECT_NE(msg.find("64"), std::string::npos) << msg;  // declared budget
    EXPECT_NE(msg.find("72"), std::string::npos) << msg;  // required bytes
  }
}

TEST(BlockCtx, SmemAlignmentPaddingCountsTowardCapacity) {
  // Each smem_alloc rounds its offset up to alignof(std::max_align_t);
  // the padding is real capacity. A 1-byte allocation followed by an
  // 8-byte one needs align + 8 bytes, not 9.
  Device dev(DeviceModel::test_tiny());
  constexpr std::size_t align = alignof(std::max_align_t);
  dev.launch(dev.stream(), {"smem_pad_ok", 1, align + 8}, [](BlockCtx& ctx) {
    ctx.smem_alloc<char>(1);
    double* d = ctx.smem_alloc<double>(1);  // offset rounds up to `align`
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
  });
  EXPECT_THROW(
      dev.launch(dev.stream(), {"smem_pad_over", 1, align + 7},
                 [](BlockCtx& ctx) {
                   ctx.smem_alloc<char>(1);
                   ctx.smem_alloc<double>(1);  // align + 8 > align + 7
                 }),
      Error);
}
