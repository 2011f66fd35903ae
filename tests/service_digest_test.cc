// Pinned end-to-end digests of one fixed SortService trace.
//
// The concurrency and endurance suites prove that digests match across
// thread counts; they cannot notice a change that moves every thread count
// the same way. This test pins the absolute values instead: a small fixed
// trace (three tenants on three technologies, one job in five out-of-core)
// runs on an aging, fault-injected two-shard service, and every tenant
// ledger Digest() and every shard's retirement TimelineDigest() must equal
// the captured constants below. A refactor that claims "same bytes" keeps
// this test green unchanged; a deliberate change to the modeled output
// recaptures the constants and says so.
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "mlc/calibration.h"
#include "service/sort_service.h"
#include "testing/fault_injection.h"

namespace approxmem {
namespace {

constexpr uint64_t kSeed = 29;
constexpr uint64_t kCalibrationTrials = 5000;
/// The mlc-pcm backend's sweet-spot knob, which the "pcm" tenant runs at
/// until its shard ages.
constexpr double kPcmDefaultKnob = 0.055;

service::ServiceOptions PinnedOptions() {
  service::ServiceOptions options;
  options.shards = 2;
  options.threads = 2;
  options.seed = kSeed;
  options.calibration_trials = kCalibrationTrials;
  options.shared_calibration = std::make_shared<mlc::CalibrationCache>(
      mlc::MlcConfig{}, kCalibrationTrials, kSeed ^ 0xca11b7a7e5eedULL);
  options.admission.queue_capacity = 256;
  options.wear.banks = 2;
  options.endurance.enabled = true;
  options.endurance.age_multiplier = 4.0;
  options.endurance.bank_budget_pv = 5.0e6;
  options.fault_hook_factory =
      [](int shard) -> std::unique_ptr<approx::MemoryFaultHook> {
    return std::make_unique<testing::FaultInjector>(
        testing::FaultPlan::ApproxStorm(
            kSeed ^ (0x5eedULL + static_cast<uint64_t>(shard))));
  };
  return options;
}

service::RequestTrace PinnedTrace() {
  service::TraceGenOptions gen;
  gen.seed = kSeed;
  gen.tenants = {"pcm", "banked", "spin"};
  gen.bursts = 16;
  gen.max_burst_jobs = 6;
  gen.min_n = 32;
  gen.max_n = 256;
  gen.extsort_fraction = 0.2;
  return service::MakeRandomTrace(gen);
}

TEST(ServiceDigestPin, LedgerAndTimelineDigestsMatchCapture) {
  service::SortService sort_service(PinnedOptions());
  const std::pair<const char*, const char*> profiles[] = {
      {"pcm", "mlc-pcm"}, {"banked", "mlc-pcm-banked"},
      {"spin", "spintronic"}};
  for (const auto& [name, backend] : profiles) {
    service::TenantSpec tenant;
    tenant.name = name;
    tenant.backend = backend;
    ASSERT_TRUE(sort_service.RegisterTenant(tenant).ok());
  }
  const service::RequestTrace trace = PinnedTrace();
  const service::ServiceStats stats = sort_service.Run(trace);

  // The trace must reach every path the pinned values are meant to cover:
  // out-of-core jobs, canary quarantines, resilience cooldown, aging-driven
  // knob tightening, bank retirement and exhaustion sheds.
  size_t extsort_jobs = 0;
  size_t tightened = 0;
  for (const service::JobRecord& record : sort_service.jobs()) {
    if (record.request.job_class == core::JobClass::kExtSort) ++extsort_jobs;
    if (record.state == service::JobState::kCompleted &&
        record.request.tenant == "pcm" &&
        record.effective_knob < kPcmDefaultKnob) {
      ++tightened;
    }
  }
  EXPECT_EQ(trace.TotalJobs(), 57u);
  EXPECT_EQ(extsort_jobs, 18u);
  EXPECT_EQ(stats.jobs_completed, 42u);
  EXPECT_EQ(stats.jobs_failed, 0u);
  EXPECT_EQ(stats.jobs_shed_exhausted, 15u);
  EXPECT_EQ(stats.banks_retired, 4u);
  EXPECT_EQ(stats.quarantined_regions, 1u);
  EXPECT_EQ(stats.cooldown_batches, 1u);
  EXPECT_EQ(tightened, 8u);

  const std::map<std::string, uint64_t> expected_ledgers = {
      {"banked", 0x4c5fd138795381cbULL},
      {"pcm", 0x16a1f25dd73ca2e5ULL},
      {"spin", 0x6205971dbf5bb389ULL},
  };
  for (const auto& [name, digest] : expected_ledgers) {
    EXPECT_EQ(sort_service.tenant_ledger(name).Digest(), digest)
        << "tenant " << name;
  }
  const uint64_t expected_timelines[] = {0x08d01a0ac9d062a8ULL,
                                         0x8a035b2dfd8bd15fULL};
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(sort_service.shard_endurance(s)->TimelineDigest(),
              expected_timelines[s])
        << "shard " << s;
  }
}

}  // namespace
}  // namespace approxmem
