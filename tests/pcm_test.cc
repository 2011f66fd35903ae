#include "mem/pcm.h"

#include <gtest/gtest.h>

namespace approxmem::mem {
namespace {

TEST(PcmConfigTest, DefaultsMatchTable1) {
  PcmConfig config;
  EXPECT_EQ(config.ranks, 4u);
  EXPECT_EQ(config.banks_per_rank, 8u);
  EXPECT_EQ(config.TotalBanks(), 32u);
  EXPECT_EQ(config.page_bytes, 4096u);
  EXPECT_EQ(config.write_queue_depth, 32u);
  EXPECT_EQ(config.read_queue_depth, 8u);
  EXPECT_DOUBLE_EQ(config.read_latency_ns, 50.0);
  EXPECT_DOUBLE_EQ(config.write_latency_ns, 1000.0);
  EXPECT_TRUE(config.Validate().ok());
}

TEST(PcmConfigTest, Validation) {
  PcmConfig config;
  config.ranks = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = PcmConfig();
  config.page_bytes = 1000;
  EXPECT_FALSE(config.Validate().ok());
  config = PcmConfig();
  config.write_queue_depth = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(PcmSimulatorTest, BankInterleavingByPage) {
  PcmSimulator sim(PcmConfig{});
  EXPECT_EQ(sim.BankOf(0), 0u);
  EXPECT_EQ(sim.BankOf(4096), 1u);
  EXPECT_EQ(sim.BankOf(4095), 0u);
  EXPECT_EQ(sim.BankOf(32ull * 4096), 0u);  // Wraps at 32 banks.
}

TEST(PcmSimulatorTest, NonPowerOfTwoBankCountInterleavesByModulo) {
  PcmConfig config;
  config.ranks = 3;
  config.banks_per_rank = 2;  // Six banks.
  PcmSimulator sim(config);
  for (uint64_t page = 0; page < 100; ++page) {
    EXPECT_EQ(sim.BankOf(page * 4096 + 4095), page % 6) << page;
    EXPECT_EQ(sim.RowOf(page * 4096 + 4095), page) << page;
  }
  // 2^40 / 4096 = 2^28 pages, and 2^28 mod 6 = 4 (a mask would give 0).
  EXPECT_EQ(sim.BankOf(uint64_t{1} << 40), 4u);
  // Six writes on six distinct banks drain in parallel; a seventh page
  // wraps around to bank 0 and queues behind the first write.
  for (uint64_t page = 0; page < 7; ++page) sim.Write(page * 4096);
  sim.Finish();
  EXPECT_DOUBLE_EQ(sim.Stats().completion_time_ns, 2000.0);
}

// Many writes to one bank with distinct service latencies: the ring must
// hand them back in posting order as it wraps around.
PcmStats SingleBankWriteStream(uint32_t depth) {
  PcmConfig config;
  config.write_queue_depth = depth;
  PcmSimulator sim(config);
  for (uint64_t i = 0; i < 100; ++i) {
    sim.Write(i * 32 * 4096, 100.0 * static_cast<double>(i % 7 + 1));
    if (i % 10 == 9) sim.Read(4096);  // Another bank: lets time pass.
  }
  sim.Finish();
  return sim.Stats();
}

TEST(PcmSimulatorTest, WriteQueueRingOfDepthOne) {
  const PcmStats stats = SingleBankWriteStream(1);
  EXPECT_EQ(stats.writes, 100u);
  EXPECT_DOUBLE_EQ(stats.total_write_latency_ns, 39500.0);
  EXPECT_DOUBLE_EQ(stats.write_stall_ns, 38750.0);
  EXPECT_EQ(stats.write_queue_full_events, 49u);
  EXPECT_DOUBLE_EQ(stats.completion_time_ns, 39500.0);
}

TEST(PcmSimulatorTest, WriteQueueRingOfDepthThree) {
  const PcmStats stats = SingleBankWriteStream(3);
  EXPECT_EQ(stats.writes, 100u);
  EXPECT_DOUBLE_EQ(stats.total_write_latency_ns, 39500.0);
  EXPECT_DOUBLE_EQ(stats.write_stall_ns, 37450.0);
  EXPECT_EQ(stats.write_queue_full_events, 48u);
  EXPECT_DOUBLE_EQ(stats.completion_time_ns, 39500.0);
}

TEST(PcmSimulatorTest, SingleReadCostsReadLatency) {
  PcmSimulator sim(PcmConfig{});
  const double latency = sim.Read(0);
  EXPECT_DOUBLE_EQ(latency, 50.0);
  EXPECT_DOUBLE_EQ(sim.cpu_time_ns(), 50.0);
}

TEST(PcmSimulatorTest, PostedWritesDoNotBlockCpu) {
  PcmSimulator sim(PcmConfig{});
  for (int i = 0; i < 10; ++i) sim.Write(0);
  EXPECT_DOUBLE_EQ(sim.cpu_time_ns(), 0.0);  // All posted.
  sim.Finish();
  EXPECT_EQ(sim.Stats().writes, 10u);
  // Ten writes drain serially on one bank.
  EXPECT_DOUBLE_EQ(sim.Stats().completion_time_ns, 10 * 1000.0);
}

TEST(PcmSimulatorTest, FullWriteQueueStallsCpu) {
  PcmConfig config;
  config.write_queue_depth = 2;
  PcmSimulator sim(config);
  // The first write starts service immediately; the next two fill the
  // two-entry queue behind it.
  sim.Write(0);
  sim.Write(0);
  sim.Write(0);
  EXPECT_DOUBLE_EQ(sim.cpu_time_ns(), 0.0);
  sim.Write(0);  // Queue full: stalls until the oldest queued write drains.
  EXPECT_GT(sim.cpu_time_ns(), 0.0);
  EXPECT_EQ(sim.Stats().write_queue_full_events, 1u);
  EXPECT_GT(sim.Stats().write_stall_ns, 0.0);
}

TEST(PcmSimulatorTest, ReadWaitsForInflightWrite) {
  PcmSimulator sim(PcmConfig{});
  sim.Write(0);   // Posted; starts service at t=0 on bank 0.
  // Let the bank pick up the write by issuing a read: the read must wait
  // for the in-service write to finish.
  const double latency = sim.Read(0);
  EXPECT_GT(latency, 50.0);
  EXPECT_GT(sim.Stats().read_queue_wait_ns, 0.0);
}

TEST(PcmSimulatorTest, ReadPriorityBypassesQueuedWrites) {
  PcmSimulator sim(PcmConfig{});
  for (int i = 0; i < 20; ++i) sim.Write(0);  // Deep write queue on bank 0.
  const double latency = sim.Read(0);
  // With read priority the read waits at most one write service time, not
  // twenty.
  EXPECT_LE(latency, 1000.0 + 50.0);
}

TEST(PcmSimulatorTest, ReadOnOtherBankUnaffected) {
  PcmSimulator sim(PcmConfig{});
  for (int i = 0; i < 20; ++i) sim.Write(0);  // Bank 0 busy.
  const double latency = sim.Read(4096);      // Bank 1 idle.
  EXPECT_DOUBLE_EQ(latency, 50.0);
}

TEST(PcmSimulatorTest, CustomWriteServiceLatency) {
  PcmSimulator sim(PcmConfig{});
  sim.Write(0, 500.0);  // Approximate bank: faster writes.
  sim.Finish();
  EXPECT_DOUBLE_EQ(sim.Stats().total_write_latency_ns, 500.0);
}

TEST(PcmSimulatorTest, ReplayAggregates) {
  PcmSimulator sim(PcmConfig{});
  for (uint64_t i = 0; i < 64; ++i) sim.Write(i * 4096);
  for (uint64_t i = 0; i < 64; ++i) sim.Read(i * 4096);
  sim.Finish();
  const PcmStats& stats = sim.Stats();
  EXPECT_EQ(stats.writes, 64u);
  EXPECT_EQ(stats.reads, 64u);
  EXPECT_DOUBLE_EQ(stats.total_write_latency_ns, 64 * 1000.0);
  EXPECT_GT(stats.completion_time_ns, 0.0);
}

TEST(PcmSimulatorTest, ParallelBanksFinishFasterThanSerial) {
  // 32 writes across 32 banks complete in ~1 write time; 32 writes to one
  // bank take 32x as long.
  PcmSimulator spread(PcmConfig{});
  PcmSimulator pinned(PcmConfig{});
  for (uint64_t i = 0; i < 32; ++i) {
    spread.Write(i * 4096);
    pinned.Write(0);
  }
  spread.Finish();
  pinned.Finish();
  EXPECT_LT(spread.Stats().completion_time_ns,
            pinned.Stats().completion_time_ns / 8.0);
}

TEST(PcmRowBufferTest, DisabledByDefault) {
  PcmSimulator sim(PcmConfig{});
  sim.Read(0);
  sim.Read(0);
  sim.Finish();
  EXPECT_EQ(sim.Stats().row_buffer_hits, 0u);
}

TEST(PcmRowBufferTest, SameRowReadsGetDiscount) {
  PcmConfig config;
  config.row_buffer_hit_factor = 0.4;
  PcmSimulator sim(config);
  EXPECT_DOUBLE_EQ(sim.Read(0), 50.0);        // Opens the row.
  EXPECT_DOUBLE_EQ(sim.Read(64), 20.0);       // Same 4KB row: hit.
  EXPECT_DOUBLE_EQ(sim.Read(32 * 4096), 50.0);  // Same bank, other row.
  EXPECT_DOUBLE_EQ(sim.Read(32 * 4096 + 8), 20.0);
  EXPECT_EQ(sim.Stats().row_buffer_hits, 2u);
}

TEST(PcmRowBufferTest, SequentialWritesDrainFaster) {
  auto run = [](double factor) {
    PcmConfig config;
    config.row_buffer_hit_factor = factor;
    PcmSimulator sim(config);
    for (uint64_t i = 0; i < 64; ++i) sim.Write(i * 4);  // One row.
    sim.Finish();
    return sim.Stats().completion_time_ns;
  };
  EXPECT_LT(run(0.5), run(1.0));
  EXPECT_NEAR(run(0.5), 1000.0 + 63 * 500.0, 1.0);
}

TEST(PcmRowBufferTest, RowStateSurvivesAcrossQueueing) {
  PcmConfig config;
  config.row_buffer_hit_factor = 0.5;
  PcmSimulator sim(config);
  sim.Write(0);
  const double latency = sim.Read(64);  // Write to row 0 serviced first.
  // The read hits the row the write opened: waits 1000 then 25ns service.
  EXPECT_DOUBLE_EQ(latency, 1000.0 + 25.0);
}

TEST(PcmRowBufferTest, ValidatesFactorRange) {
  PcmConfig config;
  config.row_buffer_hit_factor = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config.row_buffer_hit_factor = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config.row_buffer_hit_factor = 1.0;
  EXPECT_TRUE(config.Validate().ok());
}

}  // namespace
}  // namespace approxmem::mem
