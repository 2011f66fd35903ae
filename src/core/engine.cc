#include "core/engine.h"

#include <utility>

#include "refine/cost_model.h"

namespace approxmem::core {
namespace {

approx::ApproxMemory::Options ToMemoryOptions(const EngineOptions& options) {
  approx::ApproxMemory::Options memory_options;
  memory_options.backend = options.backend;
  memory_options.mlc = options.mlc;
  memory_options.mode = options.mode;
  memory_options.calibration_trials = options.calibration_trials;
  memory_options.seed = options.seed;
  memory_options.shared_calibration = options.shared_calibration;
  memory_options.sequential_write_discount =
      options.sequential_write_discount;
  memory_options.fault_hook = options.fault_hook;
  memory_options.health = options.health;
  memory_options.placement = options.placement;
  return memory_options;
}

}  // namespace

ApproxSortEngine::ApproxSortEngine(const EngineOptions& options)
    : options_(options), memory_(ToMemoryOptions(options)) {}

sort::SortTuning ApproxSortEngine::SortTuningForRuns() {
  sort::SortTuning tuning;
  if (options_.sort_pool != nullptr) {
    tuning.pool = options_.sort_pool;
  } else if (options_.sort_threads != 1) {
    if (owned_sort_pool_ == nullptr) {
      owned_sort_pool_ = std::make_unique<ThreadPool>(options_.sort_threads);
    }
    tuning.pool = owned_sort_pool_.get();
  }
  return tuning;
}

StatusOr<ApproxOnlyResult> ApproxSortEngine::SortOnlyImpl(
    const std::vector<uint32_t>& keys, const sort::AlgorithmId& algorithm,
    const refine::ArrayAlloc& approx_alloc,
    const refine::ArrayAlloc& precise_alloc, std::vector<uint32_t>* output) {
  ApproxOnlyResult result;
  const sort::SortTuning tuning = SortTuningForRuns();

  // Approximate run. The input already resides in approximate memory in the
  // Section 3 setup, so loading it is not part of the measured cost.
  {
    approx::ApproxArrayU32 array = approx_alloc(keys.size());
    array.Store(keys);
    array.ResetStats();
    approx::MemoryStats scratch_stats;
    sort::SortSpec spec;
    spec.keys = &array;
    spec.ids = nullptr;
    spec.alloc_key_buffer = [&](size_t n) {
      approx::ApproxArrayU32 buffer = approx_alloc(n);
      buffer.SetStatsSink(&scratch_stats);
      return buffer;
    };
    spec.tuning = tuning;
    Rng rng(options_.seed ^ 0x5047ULL);
    const Status status = sort::RunSort(spec, algorithm, rng);
    if (!status.ok()) return status;
    result.sortedness = sortedness::Measure(array);
    result.approx_stats = array.stats() + scratch_stats;
    if (output != nullptr) *output = array.Snapshot();
  }

  // Precise baseline run (same algorithm, same input, no payload).
  {
    StatusOr<refine::PreciseBaselineReport> baseline =
        refine::PreciseSortBaseline(keys, algorithm, precise_alloc,
                                    options_.seed ^ 0x5047ULL,
                                    /*with_ids=*/false,
                                    /*sorted_keys=*/nullptr, tuning);
    if (!baseline.ok()) return baseline.status();
    result.precise_stats = baseline->keys + baseline->ids;
  }

  result.write_reduction =
      result.precise_stats.write_cost > 0.0
          ? 1.0 - result.approx_stats.write_cost /
                      result.precise_stats.write_cost
          : 0.0;
  return result;
}

StatusOr<ApproxOnlyResult> ApproxSortEngine::SortApproxOnly(
    const std::vector<uint32_t>& keys, const sort::AlgorithmId& algorithm,
    double knob, std::vector<uint32_t>* output) {
  const Status valid = memory_.backend().Validate(
      approx::AllocSpec::Approx(knob, keys.size()));
  if (!valid.ok()) return valid;
  return SortOnlyImpl(
      keys, algorithm,
      [this, knob](size_t n) { return memory_.NewApproxArray(n, knob); },
      [this](size_t n) { return memory_.NewPreciseArray(n); }, output);
}

StatusOr<RefineOutcome> ApproxSortEngine::RefineImpl(
    const std::vector<uint32_t>& keys, const sort::AlgorithmId& algorithm,
    const refine::ArrayAlloc& approx_alloc,
    const refine::ArrayAlloc& precise_alloc, double pv_ratio,
    std::vector<uint32_t>* final_keys, std::vector<uint32_t>* final_ids) {
  RefineOutcome outcome;

  refine::RefineOptions refine_options;
  refine_options.algorithm = algorithm;
  refine_options.approx_alloc = approx_alloc;
  refine_options.precise_alloc = precise_alloc;
  refine_options.sort_seed = options_.seed ^ 0x4e414cULL;
  refine_options.tuning = SortTuningForRuns();
  StatusOr<refine::RefineReport> report = refine::ApproxRefineSort(
      keys, refine_options, final_keys, final_ids);
  if (!report.ok()) return report.status();
  outcome.refine = std::move(report.value());

  StatusOr<refine::PreciseBaselineReport> baseline =
      refine::PreciseSortBaseline(keys, algorithm, precise_alloc,
                                  refine_options.sort_seed,
                                  /*with_ids=*/true,
                                  /*sorted_keys=*/nullptr,
                                  refine_options.tuning);
  if (!baseline.ok()) return baseline.status();
  outcome.baseline = std::move(baseline.value());

  outcome.write_reduction = refine::WriteReduction(outcome.refine,
                                                   outcome.baseline);
  outcome.predicted_write_reduction = refine::PredictWriteReduction(
      algorithm, keys.size(), pv_ratio, outcome.refine.rem_estimate);
  return outcome;
}

StatusOr<RefineOutcome> ApproxSortEngine::SortApproxRefine(
    const std::vector<uint32_t>& keys, const sort::AlgorithmId& algorithm,
    double knob, std::vector<uint32_t>* final_keys,
    std::vector<uint32_t>* final_ids) {
  const Status valid = memory_.backend().Validate(
      approx::AllocSpec::Approx(knob, keys.size()));
  if (!valid.ok()) return valid;
  // The cost model's p(t) generalizes to the backend's approx-to-precise
  // write-cost ratio (the per-write energy ratio under the energy model).
  return RefineImpl(
      keys, algorithm,
      [this, knob](size_t n) { return memory_.NewApproxArray(n, knob); },
      [this](size_t n) { return memory_.NewPreciseArray(n); },
      memory_.WriteCostRatio(knob), final_keys, final_ids);
}

namespace {

// SplitMix64 finalizer: decorrelates consecutive run indices into
// independent-looking pivot seeds.
uint64_t MixStreamKey(uint64_t seed, uint64_t stream_key) {
  uint64_t z = seed ^ (stream_key + 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

StatusOr<refine::RefineReport> ApproxSortEngine::SortRunApproxRefine(
    const std::vector<uint32_t>& keys, const sort::AlgorithmId& algorithm,
    double knob, uint64_t stream_key, std::vector<uint32_t>* final_keys,
    std::vector<uint32_t>* final_ids) {
  const Status valid = memory_.backend().Validate(
      approx::AllocSpec::Approx(knob, keys.size()));
  if (!valid.ok()) return valid;
  memory_.BeginJobStream(stream_key);
  refine::RefineOptions refine_options;
  refine_options.algorithm = algorithm;
  refine_options.approx_alloc = [this, knob](size_t n) {
    return memory_.NewApproxArray(n, knob);
  };
  refine_options.precise_alloc = [this](size_t n) {
    return memory_.NewPreciseArray(n);
  };
  refine_options.sort_seed =
      MixStreamKey(options_.seed ^ 0x4e414cULL, stream_key);
  // Runs are large and numerous; the exact-sortedness LIS pass is a
  // diagnostic the external sort does not read.
  refine_options.measure_approx_sortedness = false;
  refine_options.tuning = SortTuningForRuns();
  return refine::ApproxRefineSort(keys, refine_options, final_keys,
                                  final_ids);
}

StatusOr<refine::PreciseBaselineReport> ApproxSortEngine::SortRunPrecise(
    const std::vector<uint32_t>& keys, const sort::AlgorithmId& algorithm,
    uint64_t stream_key, std::vector<uint32_t>* sorted_keys,
    std::vector<uint32_t>* sorted_ids) {
  memory_.BeginJobStream(stream_key);
  return refine::PreciseSortBaseline(
      keys, algorithm,
      [this](size_t n) { return memory_.NewPreciseArray(n); },
      MixStreamKey(options_.seed ^ 0x4e414cULL, stream_key),
      /*with_ids=*/true, sorted_keys, SortTuningForRuns(), sorted_ids);
}

bool ApproxSortEngine::RecommendApproxRefine(
    const sort::AlgorithmId& algorithm, size_t n, double knob,
    size_t expected_rem) {
  return refine::ShouldUseApproxRefine(algorithm, n,
                                       memory_.WriteCostRatio(knob),
                                       expected_rem);
}

}  // namespace approxmem::core
