// The intra-sort parallelism contract: for a fixed seed, the striped radix
// engine produces identical final keys/IDs, write counts, corruption
// counts, and cost ledgers at every sort_threads setting — on both the MLC
// PCM and spintronic backends. Only wall-clock may change with the thread
// count.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/workload.h"
#include "sort/sort_common.h"

namespace approxmem {
namespace {

// Large enough for several stripes (8192 / 2048 = 4), so parallel runs
// genuinely split the passes instead of inlining a single stripe.
constexpr size_t kN = 8192;

struct RunSummary {
  std::vector<uint32_t> keys;
  std::vector<uint32_t> ids;
  uint64_t approx_writes = 0;
  uint64_t approx_corrupted = 0;
  double approx_write_cost = 0.0;
  uint64_t refine_writes = 0;
  double total_write_cost = 0.0;
  size_t rem_estimate = 0;
  double write_reduction = 0.0;
};

RunSummary RunOnce(const std::string& backend, double knob,
                   const sort::AlgorithmId& algorithm, int sort_threads,
                   ThreadPool* sort_pool = nullptr) {
  core::EngineOptions options;
  options.backend = backend;
  options.seed = 77;
  options.calibration_trials = 5000;
  options.sort_threads = sort_threads;
  options.sort_pool = sort_pool;
  core::ApproxSortEngine engine(options);
  const auto input = core::MakeKeys(core::WorkloadKind::kUniform, kN, 7);

  RunSummary summary;
  const auto outcome = engine.SortApproxRefine(input, algorithm, knob,
                                               &summary.keys, &summary.ids);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  if (!outcome.ok()) return summary;
  EXPECT_TRUE(outcome->refine.verified());

  const approx::MemoryStats approx_side =
      outcome->refine.prep_approx + outcome->refine.sort_approx;
  summary.approx_writes = approx_side.word_writes;
  summary.approx_corrupted = approx_side.corrupted_writes;
  summary.approx_write_cost = approx_side.write_cost;
  summary.refine_writes = outcome->refine.RefineWriteOps();
  summary.total_write_cost = outcome->refine.TotalWriteCost();
  summary.rem_estimate = outcome->refine.rem_estimate;
  summary.write_reduction = outcome->write_reduction;
  return summary;
}

// Every comparison is exact — including the floating-point cost ledgers,
// which must accumulate in the same order regardless of thread count.
void ExpectIdentical(const RunSummary& serial, const RunSummary& parallel) {
  EXPECT_EQ(serial.keys, parallel.keys);
  EXPECT_EQ(serial.ids, parallel.ids);
  EXPECT_EQ(serial.approx_writes, parallel.approx_writes);
  EXPECT_EQ(serial.approx_corrupted, parallel.approx_corrupted);
  EXPECT_EQ(serial.approx_write_cost, parallel.approx_write_cost);
  EXPECT_EQ(serial.refine_writes, parallel.refine_writes);
  EXPECT_EQ(serial.total_write_cost, parallel.total_write_cost);
  EXPECT_EQ(serial.rem_estimate, parallel.rem_estimate);
  EXPECT_EQ(serial.write_reduction, parallel.write_reduction);
}

TEST(SortThreadsDeterminismTest, MatrixIdenticalAcrossThreadCounts) {
  const struct {
    const char* backend;
    double knob;
  } backends[] = {{"mlc-pcm", 0.07}, {"spintronic", 1e-5}};
  const sort::AlgorithmId algorithms[] = {
      {sort::SortKind::kLsdRadix, 3},
      {sort::SortKind::kLsdHistogram, 6},
  };

  for (const auto& b : backends) {
    for (const sort::AlgorithmId& algorithm : algorithms) {
      const RunSummary serial =
          RunOnce(b.backend, b.knob, algorithm, /*sort_threads=*/1);
      // The operating points are hot enough that corruption actually
      // happens — the parity below is not vacuous.
      EXPECT_GT(serial.approx_corrupted, 0u) << b.backend;
      // 0 = hardware concurrency, whatever that is on the CI host.
      for (const int threads : {2, 4, 8, 0}) {
        std::ostringstream label;
        label << b.backend << " " << algorithm.Name()
              << " sort_threads=" << threads;
        SCOPED_TRACE(label.str());
        ExpectIdentical(serial,
                        RunOnce(b.backend, b.knob, algorithm, threads));
      }
    }
  }
}

TEST(SortThreadsDeterminismTest, ExternalPoolMatchesOwnedPool) {
  const sort::AlgorithmId algorithm{sort::SortKind::kLsdRadix, 3};
  const RunSummary serial =
      RunOnce("mlc-pcm", 0.07, algorithm, /*sort_threads=*/1);
  ThreadPool pool(4);
  ExpectIdentical(serial, RunOnce("mlc-pcm", 0.07, algorithm,
                                  /*sort_threads=*/1, &pool));
}

}  // namespace
}  // namespace approxmem
