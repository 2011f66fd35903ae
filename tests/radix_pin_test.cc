// Pinned outputs and approx-stage ledgers of the two striped LSD radix
// sorts.
//
// The golden figure CSVs print write reductions to 0.1% and never run the
// histogram LSD, and the thread-matrix suite only proves that every thread
// count agrees. This test pins absolute values instead: for the queue-bucket
// LSD and the histogram LSD at 3 and 6 bits (3-bit histogram LSD has 11
// passes, so it ends with the parity copy), on MLC PCM and spintronic
// memory, keys-only and keys+IDs, at one and four sort threads, the output
// digest and every approx-stage access counter must equal the captured
// constants below. Keys-only rows digest the SortApproxOnly snapshot, so
// every corrupted value counts; keys+IDs rows digest SortApproxRefine's
// final IDs. A refactor that claims "same bytes" keeps this test green
// unchanged; a deliberate change to the modeled output recaptures the
// constants (a failure prints the observed row) and says so.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/workload.h"
#include "sort/sort_common.h"
#include "testing/differential_oracle.h"

namespace approxmem {
namespace {

// Four stripes (8192 / 2048), so four sort threads really split the passes.
constexpr size_t kN = 8192;

struct Ledger {
  uint64_t word_writes;
  uint64_t word_reads;
  uint64_t corrupted_writes;
  uint64_t sequential_writes;
  double write_cost;
  double read_cost;
};

struct Pin {
  const char* backend;
  double knob;
  sort::SortKind kind;
  int bits;
  bool with_ids;
  /// FNV-1a of the approx snapshot (keys-only) or the final IDs (keys+IDs).
  uint64_t digest;
  /// Rem~ of the approx-stage <Key, ID> order (keys+IDs rows only). The
  /// final IDs are exactly sorted whatever the approx stage did, so this is
  /// what pins the approx-stage ID order.
  size_t rem_estimate;
  /// Approximate side of the approx stage.
  Ledger approx;
  /// Precise side of the approx stage (ID moves); zero for keys-only rows.
  Ledger precise;
};

Ledger ToLedger(const approx::MemoryStats& stats) {
  return Ledger{stats.word_writes,      stats.word_reads,
                stats.corrupted_writes, stats.sequential_writes,
                stats.write_cost,       stats.read_cost};
}

uint64_t Digest(const std::vector<uint32_t>& values) {
  return testing::Fnv1a64(values.data(), values.size() * sizeof(uint32_t));
}

std::string FormatLedger(const Ledger& l) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{%" PRIu64 "u, %" PRIu64 "u, %" PRIu64 "u, %" PRIu64
                "u, %a, %a}",
                l.word_writes, l.word_reads, l.corrupted_writes,
                l.sequential_writes, l.write_cost, l.read_cost);
  return buf;
}

void ExpectLedger(const Ledger& got, const Ledger& want) {
  EXPECT_EQ(got.word_writes, want.word_writes);
  EXPECT_EQ(got.word_reads, want.word_reads);
  EXPECT_EQ(got.corrupted_writes, want.corrupted_writes);
  EXPECT_EQ(got.sequential_writes, want.sequential_writes);
  EXPECT_EQ(got.write_cost, want.write_cost);
  EXPECT_EQ(got.read_cost, want.read_cost);
}

/// Runs `pin`'s configuration at `sort_threads` and compares it with the
/// captured constants.
void ExpectPinned(const Pin& pin, int sort_threads) {
  core::EngineOptions options;
  options.backend = pin.backend;
  options.seed = 77;
  options.calibration_trials = 5000;
  options.sort_threads = sort_threads;
  core::ApproxSortEngine engine(options);
  const std::vector<uint32_t> input =
      core::MakeKeys(core::WorkloadKind::kUniform, kN, 7);
  const sort::AlgorithmId algorithm{pin.kind, pin.bits};

  uint64_t digest = 0;
  size_t rem_estimate = 0;
  Ledger approx_side{};
  Ledger precise_side{};
  if (pin.with_ids) {
    std::vector<uint32_t> keys;
    std::vector<uint32_t> ids;
    const auto outcome =
        engine.SortApproxRefine(input, algorithm, pin.knob, &keys, &ids);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome->refine.verified());
    digest = Digest(ids);
    rem_estimate = outcome->refine.rem_estimate;
    approx_side = ToLedger(outcome->refine.sort_approx);
    precise_side = ToLedger(outcome->refine.sort_precise);
  } else {
    std::vector<uint32_t> snapshot;
    const auto result =
        engine.SortApproxOnly(input, algorithm, pin.knob, &snapshot);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    digest = Digest(snapshot);
    approx_side = ToLedger(result->approx_stats);
  }

  char digest_hex[24];
  std::snprintf(digest_hex, sizeof(digest_hex), "0x%016" PRIx64 "ULL",
                digest);
  SCOPED_TRACE("observed: " + std::string(digest_hex) + ", " +
               std::to_string(rem_estimate) + ", " +
               FormatLedger(approx_side) + ", " + FormatLedger(precise_side));
  // The operating points corrupt keys, so the pins are not vacuous.
  EXPECT_GT(approx_side.corrupted_writes, 0u);
  EXPECT_EQ(digest, pin.digest);
  EXPECT_EQ(rem_estimate, pin.rem_estimate);
  ExpectLedger(approx_side, pin.approx);
  ExpectLedger(precise_side, pin.precise);
}

constexpr sort::SortKind kLsd = sort::SortKind::kLsdRadix;
constexpr sort::SortKind kHist = sort::SortKind::kLsdHistogram;

// Captured before the two LSD sorts were folded onto one set of stripe
// helpers.
const Pin kPins[] = {
    {"mlc-pcm", 0.07, kLsd, 3, false, 0xdf756ae43af94283ULL, 0,
     {180224u, 180224u, 3617u, 102414u, 0x1.96ee8d447c59ep+26, 0x1.13p+23},
     {}},
    {"mlc-pcm", 0.07, kLsd, 6, false, 0x1f1678bf8c8a7f9eULL, 0,
     {98304u, 98304u, 1991u, 51817u, 0x1.bb9f8cace0f8bp+25, 0x1.2cp+22},
     {}},
    {"mlc-pcm", 0.07, kHist, 3, false, 0xb884638a1cc7c5ffULL, 0,
     {98304u, 98304u, 2022u, 20453u, 0x1.bb9f1f1e902fp+25, 0x1.2cp+22},
     {}},
    {"mlc-pcm", 0.07, kHist, 6, false, 0x8990ba11793af772ULL, 0,
     {49152u, 49152u, 1019u, 2706u, 0x1.bb705218f7aep+24, 0x1.2cp+21},
     {}},
    {"mlc-pcm", 0.07, kLsd, 3, true, 0xc05b425ca131f651ULL, 1867,
     {180224u, 180224u, 3598u, 102476u, 0x1.96ec4f7a20864p+26, 0x1.13p+23},
     {180224u, 180224u, 0u, 102476u, 0x1.57cp+27, 0x1.13p+23}},
    {"mlc-pcm", 0.07, kLsd, 6, true, 0xc05b425ca131f651ULL, 974,
     {98304u, 98304u, 1973u, 51858u, 0x1.bb9afb3be8194p+25, 0x1.2cp+22},
     {98304u, 98304u, 0u, 51858u, 0x1.77p+26, 0x1.2cp+22}},
    {"mlc-pcm", 0.07, kHist, 3, true, 0xc05b425ca131f651ULL, 1065,
     {98304u, 98304u, 1962u, 20547u, 0x1.bb9b2d69a62b6p+25, 0x1.2cp+22},
     {98304u, 98304u, 0u, 20547u, 0x1.77p+26, 0x1.2cp+22}},
    {"mlc-pcm", 0.07, kHist, 6, true, 0xc05b425ca131f651ULL, 602,
     {49152u, 49152u, 1026u, 2707u, 0x1.bb6edb397d058p+24, 0x1.2cp+21},
     {49152u, 49152u, 0u, 2707u, 0x1.77p+25, 0x1.2cp+21}},
    {"spintronic", 1e-5, kLsd, 3, false, 0x36afcf484ab19a47ULL, 0,
     {180224u, 180224u, 56u, 102395u, 0x1.d7ae147ae14bbp+16,
       0x1.19999999998e8p+13},
     {}},
    {"spintronic", 1e-5, kLsd, 6, false, 0xff141a19c652ed62ULL, 0,
     {98304u, 98304u, 35u, 51851u, 0x1.0147ae147ae37p+16, 0x1.333333333327p+12},
     {}},
    {"spintronic", 1e-5, kHist, 3, false, 0xe38bffe1ca966b3aULL, 0,
     {98304u, 98304u, 29u, 20519u, 0x1.0147ae147ae37p+16, 0x1.333333333327p+12},
     {}},
    {"spintronic", 1e-5, kHist, 6, false, 0xe83c1b2acf53c0eaULL, 0,
     {49152u, 49152u, 12u, 2722u, 0x1.0147ae147ae37p+15, 0x1.3333333333271p+11},
     {}},
    {"spintronic", 1e-5, kLsd, 3, true, 0xc05b425ca131f651ULL, 16,
     {180224u, 180224u, 58u, 102394u, 0x1.d7ae147ae14bbp+16,
       0x1.19999999998e8p+13},
     {180224u, 180224u, 0u, 102394u, 0x1.6p+17, 0x1.19999999998e8p+13}},
    {"spintronic", 1e-5, kLsd, 6, true, 0xc05b425ca131f651ULL, 6,
     {98304u, 98304u, 29u, 51849u, 0x1.0147ae147ae37p+16, 0x1.333333333327p+12},
     {98304u, 98304u, 0u, 51849u, 0x1.8p+16, 0x1.333333333327p+12}},
    {"spintronic", 1e-5, kHist, 3, true, 0xc05b425ca131f651ULL, 15,
     {98304u, 98304u, 28u, 20511u, 0x1.0147ae147ae37p+16, 0x1.333333333327p+12},
     {98304u, 98304u, 0u, 20511u, 0x1.8p+16, 0x1.333333333327p+12}},
    {"spintronic", 1e-5, kHist, 6, true, 0xc05b425ca131f651ULL, 4,
     {49152u, 49152u, 11u, 2721u, 0x1.0147ae147ae37p+15, 0x1.3333333333271p+11},
     {49152u, 49152u, 0u, 2721u, 0x1.8p+15, 0x1.3333333333271p+11}},
};

TEST(RadixPinTest, LsdFamiliesMatchCapture) {
  for (const Pin& pin : kPins) {
    for (const int threads : {1, 4}) {
      const sort::AlgorithmId algorithm{pin.kind, pin.bits};
      SCOPED_TRACE(std::string(pin.backend) + " " + algorithm.Name() +
                   (pin.with_ids ? " keys+ids" : " keys") +
                   " sort_threads=" + std::to_string(threads));
      ExpectPinned(pin, threads);
    }
  }
}

}  // namespace
}  // namespace approxmem
