// Measurement driver of the end-to-end benchmark (see perfbench/README.md).
//
// One process runs one workload: set-up (repeated, each sample timed), one
// untimed warm-up repetition, then repetitions until --seconds of timed
// work have accumulated. It writes the raw samples — per-operation wall and
// virtual latency, per-repetition output digests, modeled costs and, with
// --trace=1, per-layer probes and spans — as one JSON document to --out.
// All arithmetic on those samples (percentiles, rates, self times, the
// service critical path) and the correctness gate live in run.py.
//
// Spans wrap the driver's own calls into each module's public functions;
// nothing inside src/ is instrumented.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <numeric>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/job_plan.h"
#include "core/workload.h"
#include "extsort/async_device.h"
#include "extsort/external_sort.h"
#include "extsort/extsort_plan.h"
#include "extsort/loser_tree.h"
#include "mlc/calibration.h"
#include "refine/approx_refine.h"
#include "service/service_trace.h"
#include "service/sort_service.h"
#include "sortedness/measures.h"
#include "testing/differential_oracle.h"

namespace perfbench {
namespace {

using namespace approxmem;  // NOLINT: a driver over the whole library.

double Now() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---------------------------------------------------------------- JSON out

class Json {
 public:
  Json& Open(char bracket) {
    Sep();
    out_ += bracket;
    first_.push_back(true);
    return *this;
  }
  Json& Close(char bracket) {
    out_ += bracket;
    first_.pop_back();
    return *this;
  }
  Json& Key(const std::string& key) {
    Sep();
    Str(key);
    out_ += ':';
    pending_value_ = true;
    return *this;
  }
  Json& Num(double value) {
    Sep();
    if (!std::isfinite(value)) {
      out_ += "null";
    } else {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out_ += buf;
    }
    return *this;
  }
  Json& Text(const std::string& value) {
    Sep();
    Str(value);
    return *this;
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  void Str(const std::string& s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
  }
  std::string out_;
  std::vector<bool> first_;
  bool pending_value_ = false;
};

// ------------------------------------------------------------------- spans

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::string run;
};

/// In-memory span log. Disabled, Begin/End cost one branch each.
class Tracer {
 public:
  bool enabled = false;
  std::string run;

  int Begin(const std::string& name) {
    if (!enabled) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(
        Span{name, Now(), 0.0, stack_.empty() ? -1 : stack_.back(), run});
    stack_.push_back(id);
    return id;
  }
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end = Now();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scoped {
 public:
  Scoped(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~Scoped() { tracer_.End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Wall seconds of `fn()`, recorded as span `name`.
template <typename F>
double Timed(Tracer& tracer, const std::string& name, F&& fn) {
  Scoped span(tracer, name);
  const double start = Now();
  fn();
  return Now() - start;
}

// ------------------------------------------------------------- parameters

// Fixed by the benchmark's definition; workloads.json names only what
// differs between workloads (kind, algo, n).
constexpr int kSetupReps = 5;              // set-ups timed per run
// Monte-Carlo trials of every in-process calibration: the engine's
// default. The service's default of 20000 left enough sampling error in
// the calibration to move serve_mixed's modeled figures with the seed
// (over twenty seeds, virtual_p95_us spread 9.9% against 4.1% here, and
// write_cost_ratio 4.4% against 1.0%).
constexpr uint64_t kCalibrationTrials = 200000;
// Threads of every workload, one per vCPU of the 4-core host: the sort
// lanes, the external sort's I/O pool, the service's pool.
constexpr int kThreads = 4;
constexpr double kT = 0.055;               // knob T of every sort
constexpr size_t kBudgetBytes = 512u << 10;  // external-sort memory budget
// The serve trace: shards, burst sizes and the range of job sizes.
constexpr int kShards = 4;
constexpr size_t kBurstJobs = 16;
constexpr size_t kBurstSwing = 8;
constexpr size_t kMinN = 1024;
constexpr size_t kMaxN = 4096;
static_assert(kBurstSwing < kBurstJobs);

struct Params {
  std::string name;
  std::string kind;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  size_t n = 1u << 20;
  sort::AlgorithmId algorithm{sort::SortKind::kLsdRadix, 6};
};

bool ParseAlgorithm(const std::string& text, sort::AlgorithmId* out) {
  if (text == "mergesort") {
    *out = {sort::SortKind::kMergesort, 6};
  } else if (text.size() == 4 && text.rfind("lsd", 0) == 0 &&
             text[3] >= '3' && text[3] <= '6') {
    *out = {sort::SortKind::kLsdRadix, text[3] - '0'};
  } else {
    return false;
  }
  return true;
}

// --------------------------------------------------------------- results

struct Op {
  double latency_s = 0.0;
  size_t keys = 0;
  bool ok = false;
  double virtual_us = 0.0;
};

struct Results {
  std::vector<double> setup_s;
  std::vector<double> calibration_s;
  double timed_s = 0.0;
  std::vector<Op> ops;
  std::vector<std::string> digests;         // Warm-up first.
  std::vector<std::string> traced_digests;  // Traced repetitions.
  std::vector<double> untraced_rep_s;
  std::vector<double> traced_rep_s;
  // Eq. 2 write cost of approx-refine over the precise baseline.
  double write_cost_ratio = 0.0;
  double virtual_makespan_us = 0.0;
  std::map<std::string, double> layers;
  std::vector<std::string> errors;
  // serve, traced: ticket, tenant, class, shard, batch, replayed plan s,
  // attempts.
  std::vector<std::vector<double>> jobs;
};

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string Exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

uint64_t Digest(const std::vector<uint32_t>& values) {
  return testing::Fnv1a64(values.data(), values.size() * sizeof(uint32_t));
}

/// Checks a <key, id> output against its input independently of the
/// library's own verification: keys non-decreasing, ids a permutation of
/// [0, n), and out_keys[i] == input[out_ids[i]].
bool CheckSorted(const std::vector<uint32_t>& input,
                 const std::vector<uint32_t>& out_keys,
                 const std::vector<uint32_t>& out_ids) {
  const size_t n = input.size();
  if (out_keys.size() != n || out_ids.size() != n) return false;
  std::vector<uint8_t> seen(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t id = out_ids[i];
    if (id >= n || seen[id] != 0) return false;
    seen[id] = 1;
    if (out_keys[i] != input[id]) return false;
    if (i > 0 && out_keys[i - 1] > out_keys[i]) return false;
  }
  return true;
}

/// Runs `op` until `seconds` of its reported timed wall time accumulate
/// (at least once). In a traced run, repetitions alternate between tracing
/// off and on so both medians come from the same process and interval.
template <typename F>
void TimedLoop(const Params& p, Tracer& tracer, Results& r, F&& op) {
  int rep = 0;
  do {
    const bool traced = p.trace && rep % 2 == 1;
    tracer.enabled = traced;
    tracer.run = p.name + "/rep" + std::to_string(rep);
    std::string digest;
    const double timed = op(&digest);
    tracer.enabled = p.trace;
    r.timed_s += timed;
    (traced ? r.traced_rep_s : r.untraced_rep_s).push_back(timed);
    (traced ? r.traced_digests : r.digests).push_back(digest);
    ++rep;
  } while (r.timed_s < p.seconds || (p.trace && rep < 2));
}

/// One lane's operation: its sample, its output digest and any error.
struct LaneResult {
  Op op;
  std::string digest;
  std::string error;
};

/// The sort and external-sort workloads run kThreads lanes at once: each
/// lane is one serial call on its own engine over the same input and
/// seed, so every lane does the same work and must produce the same
/// digest. One call at a time ran at the speed of whichever vCPU it landed
/// on, and the host's vCPUs change speed independently from second to
/// second (one call per run spread keys_per_s by up to 28% over ten
/// seeds); lanes on every vCPU average them, as the service's shards do.
///
/// Runs `lane_op(lane, tracer)` for every lane at once and returns the
/// round's wall time, the timed work. Lane 0 runs on this thread and alone
/// is traced (the tracer is not thread-safe). Records every lane's error,
/// and its sample when `ops` is given; sets *digest to lane 0's.
template <typename F>
double RunLanes(Tracer& tracer, Results& r, F&& lane_op, std::string* digest,
                std::vector<Op>* ops) {
  std::vector<LaneResult> results(kThreads);
  Tracer untraced;
  const double start = Now();
  {
    std::vector<std::thread> workers;
    for (size_t lane = 1; lane < results.size(); ++lane) {
      workers.emplace_back(
          [&, lane] { results[lane] = lane_op(lane, untraced); });
    }
    results[0] = lane_op(0, tracer);
    for (std::thread& worker : workers) worker.join();
  }
  const double wall = Now() - start;
  *digest = results[0].digest;
  for (const LaneResult& result : results) {
    if (!result.error.empty()) r.errors.push_back(result.error);
    if (result.digest != *digest) {
      r.errors.push_back("lanes disagree: " + result.digest + " vs " +
                         *digest);
    }
    if (ops != nullptr) ops->push_back(result.op);
  }
  return wall;
}

// ------------------------------------------------------------ approx layer

volatile uint64_t g_probe_sink = 0;

/// Micro-probes of ApproxArrayU32's four access paths on an array from
/// ApproxMemory at (n, kT); each reports words per second over at least
/// 0.2 s of work.
void ProbeApprox(approx::ApproxMemory& memory, size_t n, uint64_t seed,
                 Tracer& tracer, Results& r) {
  Scoped span(tracer, "approx.probes");
  const std::vector<uint32_t> src =
      core::MakeKeys(core::WorkloadKind::kUniform, n, seed ^ 0x9b0beULL);
  std::vector<uint32_t> buf(n);
  approx::ApproxArrayU32 array = memory.NewApproxArray(n, kT);
  array.Store(src);
  constexpr size_t kChunk = 1024;
  uint64_t sink = 0;
  const auto probe = [&](const std::string& name, auto&& pass) {
    Scoped probe_span(tracer, "approx." + name);
    size_t words = 0;
    const double start = Now();
    double elapsed = 0.0;
    do {
      pass();
      words += n;
      elapsed = Now() - start;
    } while (elapsed < 0.2);
    r.layers["approx." + name + "_mwords_per_s"] =
        static_cast<double>(words) / elapsed / 1e6;
  };
  probe("set_range", [&] {
    for (size_t i = 0; i < n; i += kChunk) {
      array.SetRange(i, src.data() + i, std::min(kChunk, n - i));
    }
  });
  probe("get_range", [&] {
    for (size_t i = 0; i < n; i += kChunk) {
      array.GetRange(i, buf.data() + i, std::min(kChunk, n - i));
    }
    sink += buf[n / 2];
  });
  probe("set", [&] {
    for (size_t i = 0; i < n; ++i) array.Set(i, src[i]);
  });
  probe("get", [&] {
    for (size_t i = 0; i < n; ++i) sink += array.Get(i);
  });
  // Keeps the read loops observable so they are not optimized away.
  g_probe_sink = sink;
}

void RecordApproxCounts(const approx::MemoryStats& stats, Results& r) {
  r.layers["approx.word_writes"] = static_cast<double>(stats.word_writes);
  r.layers["approx.word_reads"] = static_cast<double>(stats.word_reads);
  r.layers["approx.corrupted_writes"] =
      static_cast<double>(stats.corrupted_writes);
  r.layers["approx.pv_iterations"] = stats.pv_iterations;
}

/// Timed in-process calibration (no cache file), then `count` serial
/// engines sharing it. The cache has the configuration and seed an engine
/// gives its own, so sharing it changes no result.
std::vector<std::unique_ptr<core::ApproxSortEngine>> MakeEngines(
    const Params& p, int count, Tracer& tracer, Results& r) {
  core::EngineOptions options;
  options.seed = p.seed;
  options.calibration_trials = kCalibrationTrials;
  {
    Scoped span(tracer, "mlc.calibration");
    const double start = Now();
    options.shared_calibration = std::make_shared<mlc::CalibrationCache>(
        options.mlc.WithT(options.mlc.precise_t_width),
        kCalibrationTrials, p.seed ^ 0xca11b7a7e5eedULL);
    options.shared_calibration->PvRatio(kT);
    r.calibration_s.push_back(Now() - start);
  }
  std::vector<std::unique_ptr<core::ApproxSortEngine>> engines;
  for (int i = 0; i < count; ++i) {
    Scoped span(tracer, "core.ApproxSortEngine");
    engines.push_back(std::make_unique<core::ApproxSortEngine>(options));
  }
  return engines;
}

// ------------------------------------------------------ in-memory sorts

/// kThreads lanes (see RunLanes), each a serial SortApproxRefine call.
void RunSortWorkload(const Params& p, Tracer& tracer, Results& r) {
  std::vector<std::unique_ptr<core::ApproxSortEngine>> engines;
  std::vector<uint32_t> keys;
  for (int i = 0; i < kSetupReps; ++i) {
    tracer.run = p.name + "/setup" + std::to_string(i);
    Scoped span(tracer, "setup");
    const double start = Now();
    engines.clear();
    engines = MakeEngines(p, kThreads, tracer, r);
    {
      Scoped keys_span(tracer, "core.MakeKeys");
      keys = core::MakeKeys(core::WorkloadKind::kUniform, p.n, p.seed);
    }
    r.setup_s.push_back(Now() - start);
  }

  core::RefineOutcome last;  // Lane 0's latest call.
  const auto sort_once = [&](size_t lane, Tracer& lane_tracer) {
    core::ApproxSortEngine& engine = *engines[lane];
    engine.memory().BeginJobStream(0);
    std::vector<uint32_t> out_keys;
    std::vector<uint32_t> out_ids;
    const double start = Now();
    StatusOr<core::RefineOutcome> outcome = [&] {
      Scoped span(lane_tracer, "core.SortApproxRefine");
      return engine.SortApproxRefine(keys, p.algorithm, kT, &out_keys,
                                     &out_ids);
    }();
    LaneResult result;
    result.op.latency_s = Now() - start;
    result.op.keys = p.n;
    if (!outcome.ok()) {
      result.error = "SortApproxRefine: " + outcome.status().ToString();
      return result;
    }
    const refine::RefineReport& refined = outcome->refine;
    const approx::MemoryStats total = refined.TotalStats();
    result.op.virtual_us = (total.write_cost + total.read_cost) / 1000.0;
    result.op.ok = refined.verified() && outcome->baseline.verified &&
                   CheckSorted(keys, out_keys, out_ids);
    result.digest = Hex(Digest(out_keys)) + ":" + Hex(Digest(out_ids)) +
                    ":" + Exact(refined.TotalWriteCost()) + ":" +
                    Exact(outcome->baseline.TotalWriteCost()) + ":" +
                    Exact(result.op.virtual_us);
    if (lane == 0) last = std::move(outcome.value());
    return result;
  };
  const auto round = [&](std::string* digest, std::vector<Op>* ops) {
    return RunLanes(tracer, r, sort_once, digest, ops);
  };

  {
    tracer.run = p.name + "/warmup";
    Scoped span(tracer, "warmup");
    std::string digest;
    round(&digest, nullptr);
    r.digests.push_back(digest);
  }
  TimedLoop(p, tracer, r,
            [&](std::string* digest) { return round(digest, &r.ops); });
  r.write_cost_ratio =
      last.refine.TotalWriteCost() / last.baseline.TotalWriteCost();
  r.virtual_makespan_us = r.ops.back().virtual_us;
  if (!p.trace) return;

  // Per-layer replay through the public stage functions, on the same
  // input, with the workload's own tuning, on lane 0's engine alone.
  tracer.enabled = true;
  tracer.run = p.name + "/layers";
  core::ApproxSortEngine* engine = engines[0].get();
  approx::ApproxMemory& memory = engine->memory();
  refine::RefineOptions options;
  options.algorithm = p.algorithm;
  options.approx_alloc = [&](size_t n) {
    return memory.NewApproxArray(n, kT);
  };
  options.precise_alloc = [&](size_t n) { return memory.NewPreciseArray(n); };
  options.sort_seed = p.seed ^ 0x4e414cULL;
  options.measure_approx_sortedness = false;
  options.tuning = engine->SortTuningForRuns();

  memory.BeginJobStream(0);
  refine::ApproxStageState state;
  Status status = Status::Ok();
  r.layers["sort.approx_stage_s"] = Timed(tracer, "refine.RunApproxStage", [&] {
    status = refine::RunApproxStage(keys, options, &state);
  });
  if (!status.ok() || !state.key_approx.has_value()) {
    r.errors.push_back("RunApproxStage: " + status.ToString());
    return;
  }
  r.layers["sortedness.measure_s"] = Timed(tracer, "sortedness.Measure", [&] {
    sortedness::Measure(*state.key_approx);
  });
  refine::RefineReport report;
  std::vector<uint32_t> out_keys;
  std::vector<uint32_t> out_ids;
  r.layers["refine.refine_stage_s"] =
      Timed(tracer, "refine.RunRefineStage", [&] {
    status = refine::RunRefineStage(state, options, &report, &out_keys,
                                    &out_ids);
  });
  if (!status.ok() || !CheckSorted(keys, out_keys, out_ids)) {
    r.errors.push_back("RunRefineStage replay did not verify");
  }
  r.layers["sort.baseline_s"] =
      Timed(tracer, "refine.PreciseSortBaseline", [&] {
    const auto baseline = refine::PreciseSortBaseline(
        keys, p.algorithm, options.precise_alloc, options.sort_seed,
        /*with_ids=*/true, nullptr, options.tuning);
    if (!baseline.ok() || !baseline->verified) {
      r.errors.push_back("PreciseSortBaseline replay did not verify");
    }
  });
  // The whole call, alone like the stage replays: a timed round runs every
  // lane at once, which slows each call.
  const double call_s = Timed(tracer, "core.SortApproxRefine", [&] {
    memory.BeginJobStream(0);
    std::vector<uint32_t> call_keys;
    std::vector<uint32_t> call_ids;
    if (!engine->SortApproxRefine(keys, p.algorithm, kT, &call_keys,
                                  &call_ids)
             .ok()) {
      r.errors.push_back("SortApproxRefine replay failed");
    }
  });
  r.layers["core.engine_self_s"] =
      call_s - r.layers["sort.approx_stage_s"] -
      r.layers["sortedness.measure_s"] - r.layers["refine.refine_stage_s"] -
      r.layers["sort.baseline_s"];

  // Approx stage at 1 thread against 4 threads (the engine's own pool when
  // the workload has one, so no more than 4 threads ever exist).
  {
    std::unique_ptr<ThreadPool> own_pool;
    refine::RefineOptions parallel = options;
    if (parallel.tuning.pool == nullptr) {
      own_pool = std::make_unique<ThreadPool>(4);
      parallel.tuning.pool = own_pool.get();
    }
    refine::RefineOptions serial = options;
    serial.tuning.pool = nullptr;
    const double serial_s =
        Timed(tracer, "refine.RunApproxStage.threads1", [&] {
      memory.BeginJobStream(0);
      refine::ApproxStageState s;
      refine::RunApproxStage(keys, serial, &s);
    });
    const double parallel_s =
        Timed(tracer, "refine.RunApproxStage.threads4", [&] {
      memory.BeginJobStream(0);
      refine::ApproxStageState s;
      refine::RunApproxStage(keys, parallel, &s);
    });
    r.layers["sort.parallel_speedup"] = serial_s / parallel_s;
  }

  r.layers["refine.rem_estimate"] =
      static_cast<double>(last.refine.rem_estimate);
  r.layers["refine.refine_write_ops"] =
      static_cast<double>(last.refine.RefineWriteOps());
  r.layers["cost_model.wr_abs_error"] =
      std::fabs(last.predicted_write_reduction - last.write_reduction);
  RecordApproxCounts(last.refine.TotalStats() + last.baseline.keys +
                         last.baseline.ids,
                     r);
  ProbeApprox(memory, p.n, p.seed, tracer, r);
}

// --------------------------------------------------------- external sort

/// kThreads lanes (see RunLanes), each a serial ExternalSort on its own
/// engine and device. The devices have no I/O pool, so each lane moves its
/// bytes on its own thread and the workload uses kThreads threads in all;
/// with a pool, run formation overlapped its copies with nothing
/// (run_formation_overlap 1.001), as the copies are a small share of a
/// sort.
void RunExtsortWorkload(const Params& p, Tracer& tracer, Results& r) {
  const extsort::AsyncDeviceConfig device_config;
  std::vector<std::unique_ptr<core::ApproxSortEngine>> engines;
  std::vector<uint32_t> keys;
  std::vector<std::unique_ptr<extsort::AsyncDevice>> devices(kThreads);
  std::vector<int> inputs(kThreads, -1);
  const auto stage = [&](size_t lane) {
    Scoped span(tracer, "extsort.AsyncDevice.stage");
    // The previous device's files go before the new input is staged, so
    // the two never count together in the peak.
    devices[lane].reset();
    devices[lane] = std::make_unique<extsort::AsyncDevice>(device_config);
    extsort::AsyncDevice& device = *devices[lane];
    inputs[lane] = device.CreateFile();
    device.Wait(device.SubmitWrite(inputs[lane], keys, 0.0));
    device.ResetClock();
  };
  for (int i = 0; i < kSetupReps; ++i) {
    tracer.run = p.name + "/setup" + std::to_string(i);
    Scoped span(tracer, "setup");
    const double start = Now();
    for (auto& device : devices) device.reset();
    engines.clear();
    engines = MakeEngines(p, kThreads, tracer, r);
    {
      Scoped keys_span(tracer, "core.MakeKeys");
      keys = core::MakeKeys(core::WorkloadKind::kUniform, p.n, p.seed);
    }
    for (size_t lane = 0; lane < devices.size(); ++lane) stage(lane);
    r.setup_s.push_back(Now() - start);
  }

  extsort::ExternalSortOptions options;
  options.memory_budget_bytes = kBudgetBytes;
  options.algorithm = p.algorithm;
  options.t = kT;
  options.record_payloads = true;
  options.verify = true;

  extsort::ExternalSortReport last;  // Lane 0's latest sort.
  const auto sort_once = [&](size_t lane, Tracer& lane_tracer) {
    extsort::AsyncDevice& device = *devices[lane];
    int output = -1;
    const double start = Now();
    StatusOr<extsort::ExternalSortReport> report = [&] {
      Scoped span(lane_tracer, "extsort.ExternalSort");
      return extsort::ExternalSort(*engines[lane], device, inputs[lane],
                                   options, &output);
    }();
    LaneResult result;
    result.op.latency_s = Now() - start;
    result.op.keys = p.n;
    if (!report.ok()) {
      result.error = "ExternalSort: " + report.status().ToString();
      return result;
    }
    device.Drain();
    const std::vector<uint32_t> pairs = device.PeekData(output);
    std::vector<uint32_t> out_keys(pairs.size() / 2);
    std::vector<uint32_t> out_ids(pairs.size() / 2);
    for (size_t i = 0; i < out_keys.size(); ++i) {
      out_keys[i] = pairs[2 * i];
      out_ids[i] = pairs[2 * i + 1];
    }
    result.op.ok = report->verified && CheckSorted(keys, out_keys, out_ids);
    result.op.virtual_us = report->Total().makespan_us;
    result.digest = Hex(report->spill_digest) + ":" +
                    Hex(report->output_digest) + ":" +
                    Exact(report->memory_write_cost) + ":" +
                    Exact(result.op.virtual_us);
    if (lane == 0) last = std::move(report.value());
    return result;
  };
  bool staged = true;  // The set-up staged the first round's inputs.
  const auto round = [&](std::string* digest, std::vector<Op>* ops) {
    if (!staged) {  // Untimed: a fresh device per lane and round.
      for (size_t lane = 0; lane < devices.size(); ++lane) stage(lane);
    }
    staged = false;
    return RunLanes(tracer, r, sort_once, digest, ops);
  };

  {
    tracer.run = p.name + "/warmup";
    Scoped span(tracer, "warmup");
    std::string digest;
    round(&digest, nullptr);
    r.digests.push_back(digest);
  }
  TimedLoop(p, tracer, r,
            [&](std::string* digest) { return round(digest, &r.ops); });
  r.virtual_makespan_us = last.Total().makespan_us;

  // Eq. 2's denominator: the same pipeline with precise run sorts, once,
  // after the timed phase.
  {
    tracer.run = p.name + "/baseline";
    Scoped span(tracer, "extsort.ExternalSort.precise");
    stage(0);
    extsort::ExternalSortOptions precise = options;
    precise.use_approx_refine = false;
    precise.verify = false;
    const auto baseline = extsort::ExternalSort(*engines[0], *devices[0],
                                                inputs[0], precise, nullptr);
    if (!baseline.ok()) {
      r.errors.push_back("precise ExternalSort: " +
                         baseline.status().ToString());
    } else {
      r.write_cost_ratio =
          last.memory_write_cost / baseline->memory_write_cost;
    }
  }
  if (!p.trace) return;

  // Per-layer replay on lane 0's engine alone.
  tracer.enabled = true;
  tracer.run = p.name + "/layers";
  core::ApproxSortEngine* engine = engines[0].get();
  // Run formation replayed as SortRunApproxRefine over the report's run
  // slices.
  std::vector<std::vector<uint32_t>> runs;
  const size_t run_elements = last.run_elements;
  r.layers["extsort.run_sort_s"] = Timed(tracer, "extsort.run_sorts", [&] {
    for (size_t begin = 0; begin < p.n; begin += run_elements) {
      const std::vector<uint32_t> slice(
          keys.begin() + static_cast<ptrdiff_t>(begin),
          keys.begin() +
              static_cast<ptrdiff_t>(std::min(p.n, begin + run_elements)));
      std::vector<uint32_t> sorted;
      std::vector<uint32_t> ids;
      Scoped span(tracer, "core.SortRunApproxRefine");
      const auto report = engine->SortRunApproxRefine(
          slice, p.algorithm, kT, runs.size() + 1, &sorted, &ids);
      if (!report.ok() || !report->verified()) {
        r.errors.push_back("SortRunApproxRefine replay did not verify");
      }
      runs.push_back(std::move(sorted));
    }
  });
  // Merge replayed through LoserTree with the report's fan-in.
  size_t passes = 0;
  r.layers["extsort.merge_s"] = Timed(tracer, "extsort.merge", [&] {
    const size_t fan_in = std::max<size_t>(last.merge_fan_in, 2);
    while (runs.size() > 1) {
      Scoped span(tracer, "extsort.merge_pass");
      std::vector<std::vector<uint32_t>> next;
      for (size_t g = 0; g < runs.size(); g += fan_in) {
        const size_t ways = std::min(fan_in, runs.size() - g);
        extsort::LoserTree tree(ways);
        std::vector<size_t> pos(ways, 0);
        size_t total = 0;
        for (size_t w = 0; w < ways; ++w) {
          const std::vector<uint32_t>& run = runs[g + w];
          total += run.size();
          if (!run.empty()) tree.Update(w, run[0], true);
        }
        std::vector<uint32_t> merged;
        merged.reserve(total);
        while (!tree.Exhausted()) {
          const size_t w = tree.MinWay();
          merged.push_back(tree.MinKey());
          const std::vector<uint32_t>& run = runs[g + w];
          const size_t at = ++pos[w];
          tree.Update(w, at < run.size() ? run[at] : 0, at < run.size());
        }
        next.push_back(std::move(merged));
      }
      runs = std::move(next);
      ++passes;
    }
  });
  if (passes != last.merge_passes) {
    r.errors.push_back("LoserTree replay took " + std::to_string(passes) +
                       " passes, the report " +
                       std::to_string(last.merge_passes));
  }
  std::vector<uint32_t> sorted_keys = keys;
  std::sort(sorted_keys.begin(), sorted_keys.end());
  if (runs.empty() || runs[0] != sorted_keys) {
    r.errors.push_back("LoserTree replay output is not the sorted input");
  }
  // The spilled volume written to and read back from an AsyncDevice.
  const size_t spilled_words = last.bytes_spilled / 4;
  const double device_s = Timed(tracer, "extsort.AsyncDevice.replay", [&] {
    extsort::AsyncDevice replay(device_config);
    const int file = replay.CreateFile();
    std::vector<extsort::AsyncDevice::TransferId> ids;
    for (size_t at = 0; at < spilled_words; at += run_elements) {
      const size_t count = std::min(run_elements, spilled_words - at);
      ids.push_back(replay.SubmitWrite(
          file, std::vector<uint32_t>(count, static_cast<uint32_t>(at)),
          0.0));
    }
    for (const auto id : ids) replay.Wait(id);
    ids.clear();
    for (size_t at = 0; at < spilled_words; at += run_elements) {
      ids.push_back(replay.SubmitRead(
          file, at, std::min(run_elements, spilled_words - at), 0.0));
    }
    for (const auto id : ids) {
      replay.Wait(id);
      replay.TakeData(id);
    }
  });
  r.layers["extsort.device_mb_per_s"] =
      2.0 * static_cast<double>(spilled_words) * 4.0 / device_s / 1e6;
  // The whole sort, alone like the replays: a timed round runs every lane
  // at once, which slows each sort.
  stage(0);
  const double sort_s = Timed(tracer, "extsort.ExternalSort", [&] {
    if (!extsort::ExternalSort(*engine, *devices[0], inputs[0], options,
                               nullptr)
             .ok()) {
      r.errors.push_back("ExternalSort replay failed");
    }
  });
  r.layers["extsort.self_s"] = sort_s - r.layers["extsort.run_sort_s"] -
                               r.layers["extsort.merge_s"] - device_s;
  r.layers["extsort.initial_runs"] = static_cast<double>(last.initial_runs);
  r.layers["extsort.merge_passes"] = static_cast<double>(last.merge_passes);
  r.layers["extsort.bytes_spilled"] = static_cast<double>(last.bytes_spilled);
  r.layers["extsort.budget_high_water"] =
      static_cast<double>(last.budget_high_water);
  r.layers["extsort.run_formation_overlap"] =
      last.run_formation.OverlapRatio();
  r.layers["refine.rem_estimate"] = static_cast<double>(last.total_rem);
  RecordApproxCounts(last.memory_stats, r);
  ProbeApprox(engine->memory(), run_elements, p.seed, tracer, r);
}

// ------------------------------------------------------------- service

struct TenantProfile {
  const char* name;
  const char* backend;
};
constexpr TenantProfile kTenants[] = {
    {"tenant-pcm", "mlc-pcm"},
    {"tenant-banked", "mlc-pcm-banked"},
    {"tenant-spin", "spintronic"},
};

/// The serve trace: one job per cell of (algorithm x workload x tenant x
/// class slot), where one slot in five is an external sort. Bursts
/// alternate between kBurstJobs + kBurstSwing and kBurstJobs - kBurstSwing
/// jobs against a batch capacity of 16 (kShards times the default
/// shard_batch_quota of 4), so a batch that cannot admit a whole burst
/// defers the rest to the next, smaller one and the backlog stays bounded.
/// The job sizes are evenly spaced over [kMinN, kMaxN] and dealt to the
/// cells in a fixed stride order; the seed draws every job's keys. A random
/// mix (service::MakeRandomTrace) moved the trace's modeled cost,
/// throughput and virtual latency by about 10% between seeds.
service::RequestTrace MakeStratifiedTrace(
    const Params& p, const std::vector<std::string>& tenants) {
  constexpr core::WorkloadKind kKinds[] = {
      core::WorkloadKind::kUniform, core::WorkloadKind::kSkewed,
      core::WorkloadKind::kNearlySorted, core::WorkloadKind::kReversed,
      core::WorkloadKind::kAllEqual};
  constexpr int kClassSlots = 5;
  constexpr size_t kStride = 331;  // Coprime with the cell count.
  const std::vector<sort::AlgorithmId> algorithms = sort::StudyAlgorithms();
  const size_t jobs = algorithms.size() * std::size(kKinds) *
                      tenants.size() * kClassSlots;
  APPROXMEM_CHECK(std::gcd(kStride, jobs) == 1);
  Rng rng(p.seed ^ 0x7ace5eedULL);
  std::vector<size_t> sizes(jobs);
  for (size_t i = 0; i < jobs; ++i) {
    sizes[i * kStride % jobs] =
        kMinN + i * (kMaxN - kMinN) / (jobs - 1);
  }
  service::RequestTrace trace;
  size_t next = 0;
  for (const sort::AlgorithmId& algorithm : algorithms) {
    for (const core::WorkloadKind kind : kKinds) {
      for (const std::string& tenant : tenants) {
        for (int slot = 0; slot < kClassSlots; ++slot) {
          const size_t burst_size = trace.bursts.size() % 2 == 1
                                        ? kBurstJobs + kBurstSwing
                                        : kBurstJobs - kBurstSwing;
          if (trace.bursts.empty() ||
              trace.bursts.back().size() == burst_size) {
            trace.bursts.emplace_back();
          }
          service::SortRequest request;
          request.tenant = tenant;
          request.algorithm = algorithm;
          request.workload = kind;
          request.n = sizes[next++];
          request.seed = rng.UniformInt(UINT64_MAX);
          request.job_class = slot == kClassSlots - 1
                                  ? core::JobClass::kExtSort
                                  : core::JobClass::kInMemory;
          trace.bursts.back().push_back(request);
        }
      }
    }
  }
  return trace;
}

void RunServeWorkload(const Params& p, Tracer& tracer, Results& r) {
  std::shared_ptr<mlc::CalibrationCache> calibration;
  service::RequestTrace trace;
  service::ServiceOptions options;
  options.shards = kShards;
  options.threads = kThreads;
  options.seed = p.seed;
  options.calibration_trials = kCalibrationTrials;
  std::vector<std::string> tenant_names;
  for (const TenantProfile& tenant : kTenants) {
    tenant_names.push_back(tenant.name);
  }

  const auto make_service = [&] {
    Scoped span(tracer, "service.SortService");
    auto service = std::make_unique<service::SortService>(options);
    for (size_t i = 0; i < std::size(kTenants); ++i) {
      service::TenantSpec tenant;
      tenant.name = kTenants[i].name;
      tenant.backend = kTenants[i].backend;
      tenant.seed = p.seed + i;
      const Status status = service->RegisterTenant(tenant);
      if (!status.ok()) r.errors.push_back(status.ToString());
    }
    return service;
  };

  std::unique_ptr<service::SortService> service;
  for (int i = 0; i < kSetupReps; ++i) {
    tracer.run = p.name + "/setup" + std::to_string(i);
    Scoped span(tracer, "setup");
    const double start = Now();
    service.reset();
    {
      Scoped calibration_span(tracer, "mlc.calibration");
      const double calibration_start = Now();
      calibration = std::make_shared<mlc::CalibrationCache>(
          mlc::MlcConfig{}, kCalibrationTrials,
          p.seed ^ 0xca11b7a7e5eedULL);
      calibration->PvRatio(kT);
      r.calibration_s.push_back(Now() - calibration_start);
    }
    {
      Scoped trace_span(tracer, "service.trace");
      trace = MakeStratifiedTrace(p, tenant_names);
    }
    options.shared_calibration = calibration;
    // Larger than the trace, so admission never sheds.
    options.admission.queue_capacity = trace.TotalJobs() + 1;
    options.admission.max_deferrals = static_cast<int>(trace.TotalJobs());
    service = make_service();
    r.setup_s.push_back(Now() - start);
  }

  bool fresh = true;  // The set-up built the first repetition's service.
  // Closed loop: submit one burst, run one batch, repeat, then drain. Job
  // latency runs from just before Submit to the end of the RunBatch call
  // after which the job is terminal.
  const auto serve_once = [&](std::string* digest, std::vector<Op>* ops) {
    if (!fresh) service = make_service();  // Untimed.
    fresh = false;
    const size_t jobs = trace.TotalJobs();
    std::vector<double> submitted(jobs, 0.0);
    std::vector<double> finished(jobs, -1.0);
    size_t open = 0;
    size_t scan_from = 0;
    const auto stamp = [&] {
      const double now = Now();
      for (size_t t = scan_from; t < service->jobs().size(); ++t) {
        const service::JobState state = service->jobs()[t].state;
        if (finished[t] < 0.0 && state != service::JobState::kQueued &&
            state != service::JobState::kDeferred) {
          finished[t] = now;
          --open;
        }
      }
      while (scan_from < service->jobs().size() && finished[scan_from] >= 0.0) {
        ++scan_from;
      }
    };
    const double start = Now();
    size_t ticket = 0;
    for (const auto& burst : trace.bursts) {
      for (const service::SortRequest& request : burst) {
        submitted[ticket++] = Now();
        ++open;
        StatusOr<uint64_t> submit = [&] {
          Scoped span(tracer, "service.Submit");
          return service->Submit(request);
        }();
        if (!submit.ok()) r.errors.push_back(submit.status().ToString());
      }
      {
        Scoped span(tracer, "service.RunBatch");
        service->RunBatch();
      }
      stamp();
    }
    for (int guard = 0; open > 0 && guard < 100000; ++guard) {
      {
        Scoped span(tracer, "service.RunBatch");
        service->RunBatch();
      }
      stamp();
    }
    const double elapsed = Now() - start;
    for (size_t t = 0; t < jobs; ++t) {
      const service::JobRecord& record = service->job(t);
      Op op;
      op.keys = record.request.n;
      op.ok = record.state == service::JobState::kCompleted &&
              record.verified;
      op.latency_s = finished[t] >= 0.0 ? finished[t] - submitted[t]
                                        : INFINITY;
      op.virtual_us = record.virtual_latency_us;
      ops->push_back(op);
    }
    for (const std::string& name : tenant_names) {
      *digest += Hex(service->tenant_ledger(name).Digest()) + ":";
    }
    *digest += Exact(service->virtual_now_us());
    return elapsed;
  };

  {
    tracer.run = p.name + "/warmup";
    Scoped span(tracer, "warmup");
    std::string digest;
    std::vector<Op> ignored;
    serve_once(&digest, &ignored);
    r.digests.push_back(digest);
  }
  // A traced repetition keeps its service for the layer figures below.
  std::unique_ptr<service::SortService> traced_service;
  std::string traced_run;
  TimedLoop(p, tracer, r, [&](std::string* digest) {
    const double elapsed = serve_once(digest, &r.ops);
    if (tracer.enabled) {
      traced_service = std::move(service);
      traced_run = tracer.run;
    }
    return elapsed;
  });
  {
    // Tenants' costs are in different units (ns on PCM, energy on
    // spintronic), so each tenant's cumulative ratio counts equally.
    const service::SortService& last = service ? *service : *traced_service;
    for (const std::string& name : tenant_names) {
      const service::TenantLedger ledger = last.tenant_ledger(name);
      r.write_cost_ratio += ledger.cost.write_cost /
                            ledger.baseline_write_cost /
                            static_cast<double>(tenant_names.size());
    }
    r.virtual_makespan_us = last.virtual_now_us();
  }
  if (!p.trace) return;

  // Service layer figures from the traced repetition's spans and records.
  tracer.enabled = true;
  const service::SortService& traced = *traced_service;
  double submit_s = 0.0;
  size_t submits = 0;
  double batch_s = 0.0;
  for (const Span& span : tracer.spans()) {
    if (span.run != traced_run) continue;
    if (span.name == "service.Submit") {
      submit_s += span.end - span.start;
      ++submits;
    } else if (span.name == "service.RunBatch") {
      batch_s += span.end - span.start;
    }
  }
  r.layers["service.submit_us"] =
      submits > 0 ? submit_s / static_cast<double>(submits) * 1e6 : 0.0;
  r.layers["service.batch_s"] = batch_s;
  r.layers["service.batches"] = static_cast<double>(traced.stats().batches);
  r.layers["service.deferral_events"] =
      static_cast<double>(traced.stats().deferral_events);
  r.layers["service.backlog_high_water"] =
      static_cast<double>(traced.stats().backlog_high_water);

  // Every job's plan replayed standalone, serially, on per-tenant engines.
  tracer.run = p.name + "/plans";
  std::map<std::string, std::unique_ptr<core::ApproxSortEngine>> engines;
  for (size_t i = 0; i < std::size(kTenants); ++i) {
    core::EngineOptions engine_options;
    engine_options.backend = kTenants[i].backend;
    engine_options.seed = p.seed + i;
    engine_options.calibration_trials = kCalibrationTrials;
    engine_options.shared_calibration = calibration;
    engine_options.health.enabled = true;
    engines[kTenants[i].name] =
        std::make_unique<core::ApproxSortEngine>(engine_options);
  }
  approx::MemoryStats cost;
  const service::TenantSpec default_tenant;
  for (const service::JobRecord& record : traced.jobs()) {
    cost += record.cost;
    core::JobContext context;
    context.engine = engines.at(record.request.tenant).get();
    context.ticket = record.ticket;
    context.knob = record.effective_knob;
    context.resilient = default_tenant.resilient;
    context.resilience = default_tenant.resilience;
    const bool is_extsort =
        record.request.job_class == core::JobClass::kExtSort;
    const double start = Now();
    core::JobOutcome outcome;
    {
      Scoped span(tracer, is_extsort ? "extsort.ExtsortJobPlan"
                                     : "core.InMemoryJobPlan");
      if (is_extsort) {
        extsort::ExtsortJobPlan plan(record.request, default_tenant.extsort);
        outcome = plan.Execute(context);
      } else {
        core::InMemoryJobPlan plan(record.request);
        outcome = plan.Execute(context);
      }
    }
    const double plan_s = Now() - start;
    if (!outcome.status.ok() || !outcome.verified) {
      r.errors.push_back("replayed plan of job " +
                         std::to_string(record.ticket) + " did not verify");
    }
    double tenant_index = 0;
    for (size_t i = 0; i < std::size(kTenants); ++i) {
      if (record.request.tenant == kTenants[i].name) {
        tenant_index = static_cast<double>(i);
      }
    }
    r.jobs.push_back({static_cast<double>(record.ticket), tenant_index,
                      is_extsort ? 1.0 : 0.0,
                      static_cast<double>(record.shard),
                      static_cast<double>(record.batch), plan_s,
                      static_cast<double>(record.attempts)});
  }
  RecordApproxCounts(cost, r);
  tracer.run = p.name + "/layers";
  ProbeApprox(engines.at("tenant-pcm")->memory(), kMaxN, p.seed, tracer,
              r);
}

// ------------------------------------------------------------------ main

void WriteResults(const Params& p, const Results& r, const Tracer& tracer,
                  std::FILE* out) {
  Json j;
  j.Open('{');
  j.Key("workload").Text(p.name);
  j.Key("seed").Num(static_cast<double>(p.seed));
  j.Key("trace").Num(p.trace ? 1 : 0);
  j.Key("threads").Num(kThreads);
  const auto nums = [&](const std::string& key,
                        const std::vector<double>& values) {
    j.Key(key).Open('[');
    for (const double v : values) j.Num(v);
    j.Close(']');
  };
  const auto texts = [&](const std::string& key,
                         const std::vector<std::string>& values) {
    j.Key(key).Open('[');
    for (const std::string& v : values) j.Text(v);
    j.Close(']');
  };
  nums("setup_s", r.setup_s);
  nums("calibration_s", r.calibration_s);
  j.Key("timed_s").Num(r.timed_s);
  j.Key("ops").Open('[');
  for (const Op& op : r.ops) {
    j.Open('[').Num(op.latency_s).Num(static_cast<double>(op.keys));
    j.Num(op.ok ? 1 : 0).Num(op.virtual_us).Close(']');
  }
  j.Close(']');
  texts("digests", r.digests);
  texts("traced_digests", r.traced_digests);
  nums("untraced_rep_s", r.untraced_rep_s);
  nums("traced_rep_s", r.traced_rep_s);
  j.Key("write_cost_ratio").Num(r.write_cost_ratio);
  j.Key("virtual_makespan_us").Num(r.virtual_makespan_us);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  j.Key("peak_rss_mb").Num(static_cast<double>(usage.ru_maxrss) / 1024.0);
  j.Key("layers").Open('{');
  for (const auto& [key, value] : r.layers) j.Key(key).Num(value);
  j.Close('}');
  texts("errors", r.errors);
  j.Key("jobs").Open('[');
  for (const auto& row : r.jobs) {
    j.Open('[');
    for (const double v : row) j.Num(v);
    j.Close(']');
  }
  j.Close(']');
  j.Key("spans").Open('[');
  for (const Span& span : tracer.spans()) {
    j.Open('[').Text(span.name).Num(span.start).Num(span.end);
    j.Num(span.parent).Text(span.run).Close(']');
  }
  j.Close(']');
  j.Close('}');
  std::fputs(j.str().c_str(), out);
  std::fputc('\n', out);
}

int Main(int argc, char** argv) {
  StatusOr<Flags> flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  Params p;
  p.name = flags->GetString("name", "");
  p.kind = flags->GetString("kind", "");
  p.seed = static_cast<uint64_t>(flags->GetInt("seed", 1));
  p.seconds = flags->GetDouble("seconds", 10.0);
  p.trace = flags->GetBool("trace", false);
  p.out = flags->GetString("out", "");
  p.n = static_cast<size_t>(flags->GetInt("n", 1 << 20));
  if (!ParseAlgorithm(flags->GetString("algo", "lsd6"), &p.algorithm) ||
      p.out.empty() || p.name.empty() || p.n == 0 || p.seconds <= 0.0) {
    std::fprintf(stderr, "perfbench_driver: bad arguments\n");
    return 2;
  }

  // glibc raises its mmap threshold as large blocks are freed, after which
  // where a block lands depends on which thread freed what first: peak RSS
  // of one seed then varied between 79 and 94 MB on an external sort of
  // n=2^21 records in 2 MiB. A fixed threshold makes it a function of the
  // live memory (76.8 MB there).
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  Tracer tracer;
  tracer.enabled = p.trace;
  Results r;
  if (p.kind == "sort") {
    RunSortWorkload(p, tracer, r);
  } else if (p.kind == "extsort") {
    RunExtsortWorkload(p, tracer, r);
  } else if (p.kind == "serve") {
    RunServeWorkload(p, tracer, r);
  } else {
    std::fprintf(stderr, "perfbench_driver: unknown --kind=%s\n",
                 p.kind.c_str());
    return 2;
  }
  std::FILE* out = std::fopen(p.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                 p.out.c_str());
    return 2;
  }
  WriteResults(p, r, tracer, out);
  return std::fclose(out) == 0 ? 0 : 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
