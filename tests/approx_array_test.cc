#include "approx/approx_array.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "approx/approx_memory.h"
#include "approx/memory_backend.h"
#include "common/random.h"
#include "mem/memory_system.h"
#include "testing/fault_injection.h"

namespace approxmem::approx {
namespace {

ApproxMemory::Options DefaultOptions() {
  ApproxMemory::Options options;
  options.calibration_trials = 20000;
  options.seed = 11;
  return options;
}

TEST(ApproxArrayTest, PreciseArrayStoresExactly) {
  ApproxMemory memory(DefaultOptions());
  ApproxArrayU32 array = memory.NewPreciseArray(100);
  Rng rng(1);
  for (size_t i = 0; i < 100; ++i) {
    const uint32_t v = rng.NextU32();
    array.Set(i, v);
    EXPECT_EQ(array.Get(i), v);
  }
  EXPECT_EQ(array.DeviatingElements(), 0u);
  EXPECT_DOUBLE_EQ(array.ErrorRate(), 0.0);
  EXPECT_TRUE(array.precise());
}

TEST(ApproxArrayTest, PreciseWriteCostsOneMicrosecond) {
  ApproxMemory memory(DefaultOptions());
  ApproxArrayU32 array = memory.NewPreciseArray(10);
  for (size_t i = 0; i < 10; ++i) array.Set(i, 1);
  array.Get(0);
  EXPECT_EQ(array.stats().word_writes, 10u);
  EXPECT_EQ(array.stats().word_reads, 1u);
  EXPECT_DOUBLE_EQ(array.stats().write_cost, 10 * 1000.0);
  EXPECT_DOUBLE_EQ(array.stats().read_cost, 50.0);
}

TEST(ApproxArrayTest, ApproxWritesAreCheaperThanPrecise) {
  ApproxMemory memory(DefaultOptions());
  ApproxArrayU32 array = memory.NewApproxArray(1000, 0.055);
  Rng rng(2);
  for (size_t i = 0; i < 1000; ++i) array.Set(i, rng.NextU32());
  const double per_write = array.stats().write_cost / 1000.0;
  // p(0.055) ~ 0.66 of the 1us precise write.
  EXPECT_LT(per_write, 750.0);
  EXPECT_GT(per_write, 500.0);
  EXPECT_FALSE(array.precise());
}

TEST(ApproxArrayTest, NearPreciseTHasNoCorruption) {
  ApproxMemory memory(DefaultOptions());
  ApproxArrayU32 array = memory.NewApproxArray(20000, 0.03);
  Rng rng(3);
  for (size_t i = 0; i < array.size(); ++i) array.Set(i, rng.NextU32());
  EXPECT_EQ(array.stats().corrupted_writes, 0u);
}

TEST(ApproxArrayTest, NoGuardBandCorruptsHeavily) {
  ApproxMemory memory(DefaultOptions());
  ApproxArrayU32 array = memory.NewApproxArray(20000, 0.12);
  Rng rng(4);
  for (size_t i = 0; i < array.size(); ++i) array.Set(i, rng.NextU32());
  // Figure 2(b): word error rate past 50% without guard bands.
  EXPECT_GT(array.ErrorRate(), 0.30);
  EXPECT_EQ(array.DeviatingElements(), array.stats().corrupted_writes);
}

TEST(ApproxArrayTest, ReadsAreStickyBetweenWrites) {
  ApproxMemory memory(DefaultOptions());
  ApproxArrayU32 array = memory.NewApproxArray(1, 0.12);
  array.Set(0, 0x12345678);
  const uint32_t first = array.Get(0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(array.Get(0), first);
}

TEST(ApproxArrayTest, CorruptionRateMatchesCalibration) {
  ApproxMemory memory(DefaultOptions());
  const double t = 0.085;
  ApproxArrayU32 array = memory.NewApproxArray(50000, t);
  Rng rng(5);
  for (size_t i = 0; i < array.size(); ++i) array.Set(i, rng.NextU32());
  const double expected =
      memory.calibration().ForT(t).WordErrorRate(16);
  EXPECT_NEAR(array.ErrorRate(), expected, 0.15 * expected + 0.005);
}

TEST(ApproxArrayTest, StoreAndCopyFromCountAccesses) {
  ApproxMemory memory(DefaultOptions());
  ApproxArrayU32 src = memory.NewPreciseArray(50);
  src.Store(std::vector<uint32_t>(50, 7));
  EXPECT_EQ(src.stats().word_writes, 50u);
  ApproxArrayU32 dst = memory.NewApproxArray(50, 0.055);
  dst.CopyFrom(src);
  EXPECT_EQ(dst.stats().word_writes, 50u);
  EXPECT_EQ(src.stats().word_reads, 50u);
}

TEST(ApproxArrayTest, StatsSinkReceivesOnDestruction) {
  ApproxMemory memory(DefaultOptions());
  MemoryStats sink;
  {
    ApproxArrayU32 array = memory.NewPreciseArray(10);
    array.SetStatsSink(&sink);
    for (size_t i = 0; i < 10; ++i) array.Set(i, 1);
  }
  EXPECT_EQ(sink.word_writes, 10u);
  EXPECT_DOUBLE_EQ(sink.write_cost, 10 * 1000.0);
}

TEST(ApproxArrayTest, MoveDoesNotDoubleFlush) {
  ApproxMemory memory(DefaultOptions());
  MemoryStats sink;
  {
    ApproxArrayU32 array = memory.NewPreciseArray(10);
    array.SetStatsSink(&sink);
    array.Set(0, 1);
    ApproxArrayU32 moved = std::move(array);
    moved.Set(1, 2);
  }
  EXPECT_EQ(sink.word_writes, 2u);
}

// Pass-through hook recording the address and kind of every access.
class RecordingHook final : public MemoryFaultHook {
 public:
  struct Access {
    uint64_t address;
    bool write;
  };

  uint32_t OnWrite(uint64_t address, bool /*precise_domain*/,
                   uint32_t /*intended*/, uint32_t stored) override {
    accesses.push_back({address, true});
    return stored;
  }
  uint32_t OnRead(uint64_t address, bool /*precise_domain*/,
                  uint32_t value) override {
    accesses.push_back({address, false});
    return value;
  }

  std::vector<Access> accesses;
};

TEST(ApproxArrayTest, TraceRecordsAddresses) {
  RecordingHook hook;
  ApproxMemory::Options options = DefaultOptions();
  options.fault_hook = &hook;
  ApproxMemory memory(options);
  ApproxArrayU32 a = memory.NewPreciseArray(4);
  ApproxArrayU32 b = memory.NewPreciseArray(4);
  a.Set(0, 1);
  b.Set(0, 1);
  a.Get(1);
  ASSERT_EQ(hook.accesses.size(), 3u);
  EXPECT_TRUE(hook.accesses[0].write);
  EXPECT_EQ(hook.accesses[0].address, a.base_address());
  EXPECT_EQ(hook.accesses[1].address, b.base_address());
  EXPECT_NE(a.base_address(), b.base_address());
  EXPECT_FALSE(hook.accesses[2].write);
  EXPECT_EQ(hook.accesses[2].address, a.base_address() + 4);
}

TEST(ApproxArrayTest, BankedBackendSeesEveryAccess) {
  // Every access path, scalar and batched, must reach the banked memory
  // system exactly once per word.
  ApproxMemory::Options options = DefaultOptions();
  options.backend = std::string(kBankedPcmBackendName);
  ApproxMemory memory(options);
  constexpr size_t kN = 600;
  std::vector<uint32_t> values(kN);
  Rng rng(3);
  for (uint32_t& v : values) v = rng.NextU32();

  ApproxArrayU32 approx = memory.NewApproxArray(kN, 0.055);
  ApproxArrayU32 precise = memory.NewPreciseArray(kN);
  approx.Set(0, values[0]);
  size_t start = 1;
  for (const size_t span : {1, 63, 64, 65}) {
    approx.SetRange(start, values.data() + start, span);
    start += span;
  }
  approx.SetRange(start, values.data() + start, kN - start);
  std::vector<uint32_t> out(kN);
  approx.Get(kN - 1);
  approx.GetRange(0, out.data(), kN);
  precise.CopyFrom(approx);

  std::vector<ApproxArrayU32::Shard> shards = precise.MakeShards(2);
  shards[0].SetRange(0, values.data(), kN / 2);
  shards[1].SetRange(kN / 2, values.data() + kN / 2, kN / 2);
  shards[0].Set(1, values[1]);
  shards[0].GetRange(0, out.data(), kN / 2);
  shards[1].Get(kN - 1);
  precise.MergeShards(shards);

  const MemoryStats total = approx.stats() + precise.stats();
  ASSERT_GT(total.word_writes, 3 * kN);
  ASSERT_GT(total.word_reads, 2 * kN);
  mem::MemorySystem* system = memory.backend().memory_system();
  ASSERT_NE(system, nullptr);
  const mem::MemorySystemStats stats = system->Finish();
  EXPECT_EQ(stats.reads, total.word_reads);
  EXPECT_EQ(stats.writes, total.word_writes);

  ApproxMemory flat(DefaultOptions());
  EXPECT_EQ(flat.backend().memory_system(), nullptr);
}

TEST(ApproxArrayTest, BumpAllocatorDoublesStrideAcrossQuarantines) {
  // Without a placement policy, a monitored allocation probes candidates
  // from a bump pointer. Every approx-domain write below 7 spans errs, so
  // the first three candidates are quarantined and the pointer backs off
  // by 1x, 2x and 4x the span before the fourth candidate passes.
  constexpr uint64_t kSpan = 8192;  // 1000 words round up to 2 pages.
  testing::FaultPlan plan;
  testing::ErrorRateOverride hot;
  hot.region = testing::AddressRegion{0, 7 * kSpan};
  hot.probability = 1.0;
  plan.rate_overrides.push_back(hot);
  testing::FaultInjector injector(plan);
  ApproxMemory::Options options = DefaultOptions();
  options.fault_hook = &injector;
  options.health.enabled = true;
  ApproxMemory memory(options);

  const ApproxArrayU32 first = memory.NewApproxArray(1000, 0.055);
  const std::vector<std::pair<uint64_t, uint64_t>> expected = {
      {0, kSpan}, {kSpan, kSpan}, {3 * kSpan, kSpan}};
  EXPECT_EQ(memory.health().quarantined_regions(), expected);
  EXPECT_EQ(memory.health().stats().allocation_retries, 3u);
  EXPECT_EQ(first.base_address(), 7 * kSpan);
  // The next allocation continues right after the accepted candidate.
  const ApproxArrayU32 second = memory.NewApproxArray(1000, 0.055);
  EXPECT_EQ(second.base_address(), 8 * kSpan);
  EXPECT_EQ(memory.health().stats().regions_quarantined, 3u);
}

TEST(ApproxArrayTest, ExactModeMatchesFastModeStatistically) {
  const double t = 0.09;
  auto run = [&](SimulationMode mode) {
    ApproxMemory::Options options = DefaultOptions();
    options.mode = mode;
    ApproxMemory memory(options);
    ApproxArrayU32 array = memory.NewApproxArray(30000, t);
    Rng rng(6);
    for (size_t i = 0; i < array.size(); ++i) array.Set(i, rng.NextU32());
    return std::make_pair(array.ErrorRate(),
                          array.stats().write_cost /
                              static_cast<double>(array.size()));
  };
  const auto [fast_error, fast_cost] = run(SimulationMode::kFast);
  const auto [exact_error, exact_cost] = run(SimulationMode::kExact);
  EXPECT_NEAR(fast_error, exact_error, 0.1 * exact_error + 0.01);
  EXPECT_NEAR(fast_cost, exact_cost, 0.05 * exact_cost);
}

void ExpectSameStats(const MemoryStats& got, const MemoryStats& want) {
  EXPECT_EQ(got.word_reads, want.word_reads);
  EXPECT_EQ(got.word_writes, want.word_writes);
  EXPECT_EQ(got.write_cost, want.write_cost);
  EXPECT_EQ(got.read_cost, want.read_cost);
  EXPECT_EQ(got.corrupted_writes, want.corrupted_writes);
  EXPECT_EQ(got.sequential_writes, want.sequential_writes);
  EXPECT_EQ(got.pv_iterations, want.pv_iterations);
  EXPECT_EQ(got.degraded_regions, want.degraded_regions);
}

// Drives two arrays allocated from identically seeded memories: one through
// Set/Get loops, the other through SetRange/GetRange over uneven spans (a
// single word, short of, at, and just past the 64-word kernel block, then
// the rest). The span calls promise bit-identical results, so every stored
// value, every stats field and the RNG position must agree.
void ExpectRangeCallsMatchScalarLoops(const std::string& backend,
                                      double knob) {
  SCOPED_TRACE(backend);
  ApproxMemory::Options options = DefaultOptions();
  options.backend = backend;
  options.sequential_write_discount = 0.5;
  ApproxMemory scalar_memory(options);
  ApproxMemory range_memory(options);
  constexpr size_t kN = 1000;
  ApproxArrayU32 scalar = scalar_memory.NewApproxArray(kN, knob);
  ApproxArrayU32 range = range_memory.NewApproxArray(kN, knob);

  Rng keys(12);
  std::vector<uint32_t> values(kN);
  for (uint32_t& v : values) v = keys.NextU32();
  const size_t spans[] = {1, 63, 64, 65, kN - 193};

  for (size_t i = 0; i < kN; ++i) scalar.Set(i, values[i]);
  size_t start = 0;
  for (size_t span : spans) {
    range.SetRange(start, values.data() + start, span);
    start += span;
  }
  ASSERT_EQ(start, kN);
  EXPECT_EQ(range.Snapshot(), scalar.Snapshot());
  EXPECT_EQ(range.DeviatingElements(), scalar.DeviatingElements());
  EXPECT_GT(scalar.DeviatingElements(), 0u);
  ExpectSameStats(range.stats(), scalar.stats());

  std::vector<uint32_t> scalar_reads(kN);
  std::vector<uint32_t> range_reads(kN);
  for (size_t i = 0; i < kN; ++i) scalar_reads[i] = scalar.Get(i);
  start = 0;
  for (size_t span : spans) {
    range.GetRange(start, range_reads.data() + start, span);
    start += span;
  }
  EXPECT_EQ(range_reads, scalar_reads);
  ExpectSameStats(range.stats(), scalar.stats());

  // Both streams must sit at the same position: a further pass of scalar
  // writes corrupts the same words in both arrays.
  std::reverse(values.begin(), values.end());
  for (size_t i = 0; i < kN; ++i) {
    scalar.Set(i, values[i]);
    range.Set(i, values[i]);
  }
  EXPECT_EQ(range.Snapshot(), scalar.Snapshot());
  ExpectSameStats(range.stats(), scalar.stats());
}

TEST(ApproxArrayTest, SetRangeAndGetRangeMatchScalarLoops) {
  ExpectRangeCallsMatchScalarLoops(std::string(kPcmBackendName), 0.08);
  ExpectRangeCallsMatchScalarLoops(std::string(kSpintronicBackendName), 1e-3);
  // The address-sensitive branch: per-word WriteAt/ReadCostAt through the
  // banked cache and write-queue model.
  ExpectRangeCallsMatchScalarLoops(std::string(kBankedPcmBackendName), 0.08);
}

}  // namespace
}  // namespace approxmem::approx
