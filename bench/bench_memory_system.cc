// Substrate demonstration: quicksort on the mlc-pcm-banked backend, which
// charges every access through the Table 1 memory system (write-through
// L1/L2/L3 + banked PCM with read-priority scheduling). One run sorts a
// precise array, one an approximate array at T = 0.055; the table reports
// cache hit rates, queue behaviour, and how the total write latency
// shrinks when each approximate write pays its calibrated #P service time.
#include <cstdio>
#include <string>
#include <vector>

#include "approx/approx_memory.h"
#include "bench/bench_lib.h"
#include "common/table_printer.h"
#include "mem/memory_system.h"
#include "sort/sort_common.h"

namespace approxmem {
namespace {

// Quicksorts `keys` in one `spec` array of a fresh memory and returns the
// final statistics of the memory system behind it.
StatusOr<mem::MemorySystemStats> SortThroughMemorySystem(
    const bench::BenchEnv& env, const std::vector<uint32_t>& keys,
    const approx::AllocSpec& spec) {
  core::ApproxSortEngine engine(bench::MakeEngineOptions(env));
  if (engine.memory().backend().memory_system() == nullptr) {
    return Status::InvalidArgument(
        "--backend=" + env.backend +
        " has no memory system; use " +
        std::string(approx::kBankedPcmBackendName));
  }
  approx::ApproxArrayU32 array = engine.memory().Allocate(spec);
  array.Store(keys);
  sort::SortSpec sort_spec;
  sort_spec.keys = &array;
  Rng rng(env.seed);
  const Status status =
      sort::RunSort(sort_spec, {sort::SortKind::kQuicksort, 0}, rng);
  if (!status.ok()) return status;
  return engine.memory().backend().memory_system()->Finish();
}

int Main(int argc, char** argv) {
  const bench::BenchEnv env = bench::ParseBenchEnv(
      argc, argv, 100000, approx::kBankedPcmBackendName);
  bench::PrintRunHeader(
      "Memory-system substrate: quicksort through cache + banked PCM", env);

  constexpr double kApproxT = 0.055;
  const auto keys =
      core::MakeKeys(core::WorkloadKind::kUniform, env.n, env.seed);
  const StatusOr<mem::MemorySystemStats> precise = SortThroughMemorySystem(
      env, keys, approx::AllocSpec::Precise(env.n));
  const StatusOr<mem::MemorySystemStats> approximate =
      SortThroughMemorySystem(env, keys,
                              approx::AllocSpec::Approx(kApproxT, env.n));
  for (const auto* run : {&precise, &approximate}) {
    if (!run->ok()) {
      std::fprintf(stderr, "%s\n", run->status().ToString().c_str());
      return 2;
    }
  }
  const mem::MemorySystemStats& precise_stats = *precise;
  const mem::MemorySystemStats& approx_stats = *approximate;

  TablePrinter table("Quicksort through the Table 1 memory system");
  table.SetHeader({"metric", "precise PCM", "approx PCM (T=0.055)"});
  auto add = [&table](const std::string& name, double a, double b,
                      const char* unit) {
    table.AddRow({name, TablePrinter::Fmt(a, 0) + unit,
                  TablePrinter::Fmt(b, 0) + unit});
  };
  add("accesses",
      static_cast<double>(precise_stats.reads + precise_stats.writes),
      static_cast<double>(approx_stats.reads + approx_stats.writes), "");
  add("reads", static_cast<double>(precise_stats.reads),
      static_cast<double>(approx_stats.reads), "");
  add("writes", static_cast<double>(precise_stats.writes),
      static_cast<double>(approx_stats.writes), "");
  add("L1 read hits", static_cast<double>(precise_stats.l1_read_hits),
      static_cast<double>(approx_stats.l1_read_hits), "");
  add("PCM reads", static_cast<double>(precise_stats.memory_reads),
      static_cast<double>(approx_stats.memory_reads), "");
  add("total write latency", precise_stats.total_write_latency_ns / 1e6,
      approx_stats.total_write_latency_ns / 1e6, " ms");
  add("CPU write stalls", precise_stats.write_stall_ns / 1e6,
      approx_stats.write_stall_ns / 1e6, " ms");
  add("completion time", precise_stats.completion_time_ns / 1e6,
      approx_stats.completion_time_ns / 1e6, " ms");
  table.Print();
  const auto mean_write_ns = [](const mem::MemorySystemStats& stats) {
    return stats.writes == 0 ? 0.0
                             : stats.total_write_latency_ns /
                                   static_cast<double>(stats.writes);
  };
  std::printf(
      "\nEach approximate write pays its calibrated #P service time: the mean "
      "write costs %.3fx a precise one, end to end, including its knock-on "
      "effect on write-queue stalls.\n",
      mean_write_ns(approx_stats) / mean_write_ns(precise_stats));
  return 0;
}

}  // namespace
}  // namespace approxmem

int main(int argc, char** argv) { return approxmem::Main(argc, argv); }
