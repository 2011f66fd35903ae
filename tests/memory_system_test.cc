#include "mem/memory_system.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/random.h"

namespace approxmem::mem {
namespace {

TEST(MemorySystemTest, FirstReadGoesToMemorySecondHitsL1) {
  MemorySystem system = MemorySystem::PaperDefault();
  const double cold = system.Read(0x1000);
  EXPECT_GE(cold, 50.0);  // At least the PCM read latency.
  const double warm = system.Read(0x1000);
  EXPECT_DOUBLE_EQ(warm, 1.0);  // L1 hit latency.
  const MemorySystemStats stats = system.Finish();
  EXPECT_EQ(stats.reads, 2u);
  EXPECT_EQ(stats.memory_reads, 1u);
  EXPECT_EQ(stats.l1_read_hits, 1u);
}

TEST(MemorySystemTest, WritesAreWriteThrough) {
  MemorySystem system = MemorySystem::PaperDefault();
  for (int i = 0; i < 100; ++i) system.Write(0x40 * i);
  const MemorySystemStats stats = system.Finish();
  EXPECT_EQ(stats.writes, 100u);
  // Every write reaches PCM: total service time is writes x 1us.
  EXPECT_DOUBLE_EQ(stats.total_write_latency_ns, 100 * 1000.0);
}

TEST(MemorySystemTest, ApproximateWriteLatencyPassesThrough) {
  MemorySystem system = MemorySystem::PaperDefault();
  system.Write(0, 660.0);  // Approximate bank write at p(t)=0.66.
  const MemorySystemStats stats = system.Finish();
  EXPECT_DOUBLE_EQ(stats.total_write_latency_ns, 660.0);
}

TEST(MemorySystemTest, ReplayCountsHitsAndMisses) {
  MemorySystem system = MemorySystem::PaperDefault();
  system.Read(0);
  system.Read(0);
  system.Read(64);
  system.Write(0);
  const MemorySystemStats stats = system.Finish();
  EXPECT_EQ(stats.reads, 3u);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.memory_reads, 2u);
  EXPECT_EQ(stats.l1_read_hits, 1u);
  EXPECT_GT(stats.total_read_latency_ns, 0.0);
}

TEST(MemorySystemTest, SequentialScanMostlyHitsAfterFirstTouch) {
  MemorySystem system = MemorySystem::PaperDefault();
  // Two passes over a 64KB buffer (fits L2/L3, not L1).
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t addr = 0; addr < 64 * 1024; addr += 4) {
      system.Read(addr);
    }
  }
  const MemorySystemStats stats = system.Finish();
  // 64KB / 64B = 1024 cold line misses; everything else hits some level.
  EXPECT_EQ(stats.memory_reads, 1024u);
  EXPECT_GT(stats.l1_read_hits, 15000u);  // 15/16 accesses hit the line.
}

TEST(MemorySystemTest, RowBufferAcceleratesSequentialScan) {
  auto run = [](double factor) {
    PcmConfig pcm;
    pcm.row_buffer_hit_factor = factor;
    MemorySystem system(CacheHierarchy::PaperDefault(), pcm);
    for (uint64_t addr = 0; addr < 256 * 1024; addr += 4) {
      system.Write(addr);
    }
    return system.Finish().completion_time_ns;
  };
  EXPECT_LT(run(0.5), 0.6 * run(1.0));
}

struct SubstrateRun {
  MemorySystemStats system;
  PcmStats pcm;
  uint64_t level_hits[3] = {};
  uint64_t level_misses[3] = {};
};

// Replays a fixed, seeded stream of 1.5M mixed accesses: reads, and writes
// whose service latency varies per write. Addresses are drawn from nested
// working sets (16 KiB, 1 MiB, 16 MiB and 64 MiB), so every cache level
// both hits and evicts and every bank is used; occasional write bursts to
// one page fill that bank's write queue.
SubstrateRun ReplayMixedStream(const PcmConfig& pcm_config) {
  constexpr uint64_t kWorkingSets[4] = {16ull << 10, 1ull << 20, 16ull << 20,
                                        64ull << 20};
  MemorySystem system(CacheHierarchy::PaperDefault(), pcm_config);
  Rng rng(20160626);
  int accesses = 0;
  while (accesses < 1500000) {
    const uint64_t r = rng.Next64();
    const uint64_t address = ((r >> 8) % kWorkingSets[r & 3]) & ~uint64_t{3};
    const double service = 400.0 + 13.7 * static_cast<double>((r >> 2) & 31);
    if ((r >> 56) == 0) {
      // A burst of 48 writes to one page overflows that bank's queue.
      const uint64_t page = address & ~uint64_t{4095};
      for (uint64_t k = 0; k < 48; ++k) system.Write(page + 64 * k, service);
      accesses += 48;
    } else if (((r >> 7) & 3) == 0) {
      system.Write(address, service);
      ++accesses;
    } else {
      system.Read(address);
      ++accesses;
    }
  }
  SubstrateRun run;
  run.system = system.Finish();
  run.pcm = system.pcm().Stats();
  const Cache* levels[3] = {&system.hierarchy().l1(), &system.hierarchy().l2(),
                            &system.hierarchy().l3()};
  for (int level = 0; level < 3; ++level) {
    run.level_hits[level] = levels[level]->hits();
    run.level_misses[level] = levels[level]->misses();
  }
  return run;
}

// Every statistic must match, bit for bit, the values the clock-stamped
// cache and deque-queued PCM model produced for the same stream.
void ExpectPinned(const SubstrateRun& run, const SubstrateRun& want) {
  EXPECT_EQ(run.system.reads, want.system.reads);
  EXPECT_EQ(run.system.writes, want.system.writes);
  EXPECT_EQ(run.system.l1_read_hits, want.system.l1_read_hits);
  EXPECT_EQ(run.system.l2_read_hits, want.system.l2_read_hits);
  EXPECT_EQ(run.system.l3_read_hits, want.system.l3_read_hits);
  EXPECT_EQ(run.system.memory_reads, want.system.memory_reads);
  EXPECT_EQ(run.system.total_read_latency_ns,
            want.system.total_read_latency_ns);
  EXPECT_EQ(run.system.total_write_latency_ns,
            want.system.total_write_latency_ns);
  EXPECT_EQ(run.system.write_stall_ns, want.system.write_stall_ns);
  EXPECT_EQ(run.system.completion_time_ns, want.system.completion_time_ns);
  EXPECT_EQ(run.pcm.reads, want.pcm.reads);
  EXPECT_EQ(run.pcm.writes, want.pcm.writes);
  EXPECT_EQ(run.pcm.faulted_accesses, want.pcm.faulted_accesses);
  EXPECT_EQ(run.pcm.total_read_latency_ns, want.pcm.total_read_latency_ns);
  EXPECT_EQ(run.pcm.total_write_latency_ns, want.pcm.total_write_latency_ns);
  EXPECT_EQ(run.pcm.read_queue_wait_ns, want.pcm.read_queue_wait_ns);
  EXPECT_EQ(run.pcm.write_stall_ns, want.pcm.write_stall_ns);
  EXPECT_EQ(run.pcm.write_queue_full_events,
            want.pcm.write_queue_full_events);
  EXPECT_EQ(run.pcm.row_buffer_hits, want.pcm.row_buffer_hits);
  EXPECT_EQ(run.pcm.completion_time_ns, want.pcm.completion_time_ns);
  for (int level = 0; level < 3; ++level) {
    EXPECT_EQ(run.level_hits[level], want.level_hits[level])
        << "L" << level + 1;
    EXPECT_EQ(run.level_misses[level], want.level_misses[level])
        << "L" << level + 1;
  }
}

TEST(MemorySystemPinTest, MixedStreamMatchesCapture) {
  SubstrateRun want;
  want.system.reads = 945684u;
  want.system.writes = 554342u;
  want.system.l1_read_hits = 112103u;
  want.system.l2_read_hits = 294025u;
  want.system.l3_read_hits = 198195u;
  want.system.memory_reads = 341361u;
  want.system.total_read_latency_ns = 43461931.900000542;
  want.system.total_write_latency_ns = 339166240.39993221;
  want.system.write_stall_ns = 52990805.100000672;
  want.system.completion_time_ns = 93205905.600001112;
  want.pcm.reads = 341361u;
  want.pcm.writes = 554342u;
  want.pcm.faulted_accesses = 0u;
  want.pcm.total_read_latency_ns = 40191778.900000542;
  want.pcm.total_write_latency_ns = 339166240.39993221;
  want.pcm.read_queue_wait_ns = 23123728.900000539;
  want.pcm.write_stall_ns = 52990805.100000672;
  want.pcm.write_queue_full_events = 43608u;
  want.pcm.row_buffer_hits = 0u;
  want.pcm.completion_time_ns = 93205905.600001112;
  want.level_hits[0] = 178038u;
  want.level_misses[0] = 1321988u;
  want.level_hits[1] = 531576u;
  want.level_misses[1] = 856347u;
  want.level_hits[2] = 550375u;
  want.level_misses[2] = 543523u;
  ExpectPinned(ReplayMixedStream(PcmConfig{}), want);
}

TEST(MemorySystemPinTest, MixedStreamWithRowBufferMatchesCapture) {
  PcmConfig config;
  config.row_buffer_hit_factor = 0.5;
  SubstrateRun want;
  want.system.reads = 945684u;
  want.system.writes = 554342u;
  want.system.l1_read_hits = 112103u;
  want.system.l2_read_hits = 294025u;
  want.system.l3_read_hits = 198195u;
  want.system.memory_reads = 341361u;
  want.system.total_read_latency_ns = 40397552.250002727;
  want.system.total_write_latency_ns = 256203502.04993597;
  want.system.write_stall_ns = 27464702.350002207;
  want.system.completion_time_ns = 64603762.400004886;
  want.pcm.reads = 341361u;
  want.pcm.writes = 554342u;
  want.pcm.faulted_accesses = 0u;
  want.pcm.total_read_latency_ns = 37127399.250002727;
  want.pcm.total_write_latency_ns = 256203502.04993597;
  want.pcm.read_queue_wait_ns = 20092599.250002727;
  want.pcm.write_stall_ns = 27464702.350002207;
  want.pcm.write_queue_full_events = 42552u;
  want.pcm.row_buffer_hits = 273116u;
  want.pcm.completion_time_ns = 64603762.400004886;
  want.level_hits[0] = 178038u;
  want.level_misses[0] = 1321988u;
  want.level_hits[1] = 531576u;
  want.level_misses[1] = 856347u;
  want.level_hits[2] = 550375u;
  want.level_misses[2] = 543523u;

  ExpectPinned(ReplayMixedStream(config), want);
}

}  // namespace
}  // namespace approxmem::mem
