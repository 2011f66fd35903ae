// Bit parity of the batched hot-loop kernels against their scalar
// counterparts: the span word codec, the calibrated batch error sampler's
// block-uniform first-error scan, and WriteModel::WriteBatch on the fast
// PCM and spintronic models. The batched paths exist purely for speed —
// every observable (outcomes, costs, RNG stream position) must be
// bit-identical to the per-word loops they replace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "approx/memory_backend.h"
#include "approx/write_model.h"
#include "common/random.h"
#include "mlc/calibration.h"
#include "mlc/mlc_config.h"
#include "mlc/word_codec.h"

namespace approxmem {
namespace {

std::vector<uint32_t> RandomWords(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> words(count);
  for (auto& word : words) word = rng.NextU32();
  // Make sure the degenerate patterns are always present.
  if (count > 3) {
    words[0] = 0;
    words[1] = 0xffffffffu;
    words[2] = 0x55555555u;
  }
  return words;
}

void ExpectCodecParity(const mlc::MlcConfig& config, size_t count) {
  const std::vector<uint32_t> words = RandomWords(count, 0xc0dec + count);
  const size_t cells = static_cast<size_t>(config.CellsPerWord());

  std::vector<uint8_t> batched(count * cells);
  mlc::EncodeWords(words.data(), count, config, batched.data());
  for (size_t w = 0; w < count; ++w) {
    const mlc::WordLevels scalar = mlc::EncodeWord(words[w], config);
    for (size_t c = 0; c < cells; ++c) {
      ASSERT_EQ(batched[w * cells + c], scalar[c])
          << "word " << w << " cell " << c;
    }
  }

  std::vector<uint32_t> decoded(count);
  mlc::DecodeWords(batched.data(), count, config, decoded.data());
  EXPECT_EQ(decoded, words);
}

TEST(WordCodecBatchTest, SpanCodecMatchesScalarOnEveryLayout) {
  // 2-bit MLC (the paper's layout, 16x2 fast path), 4-bit, and SLC. Odd
  // counts exercise the partial tail of any internal chunking.
  ExpectCodecParity(mlc::MlcConfig(), 1013);
  mlc::MlcConfig four_bit;
  four_bit.levels = 16;
  ExpectCodecParity(four_bit, 517);
  mlc::MlcConfig slc;
  slc.levels = 2;
  ExpectCodecParity(slc, 129);
}

TEST(BatchErrorSamplerTest, WordStatsMatchCalibrationTables) {
  const mlc::MlcConfig config = mlc::MlcConfig().WithT(0.07);
  const mlc::CellCalibration calibration =
      mlc::CellCalibration::Run(config, 20000, /*seed=*/5, nullptr);
  const mlc::BatchErrorSampler sampler(calibration);
  EXPECT_TRUE(sampler.fast_layout());

  const std::vector<uint32_t> words = RandomWords(512, 0x7ab1e);
  std::vector<mlc::BatchErrorSampler::WordStats> batch(words.size());
  sampler.StatsForWords(words.data(), words.size(), batch.data());
  for (size_t w = 0; w < words.size(); ++w) {
    // The batch call must equal the single-word entry point exactly...
    const auto single = sampler.StatsFor(words[w]);
    ASSERT_EQ(batch[w].pv_sum, single.pv_sum) << "word " << w;
    ASSERT_EQ(batch[w].no_error, single.no_error) << "word " << w;
    // ...and both must agree with a per-cell walk over the calibration's
    // public tables (to rounding, since the byte tables pre-fold partials).
    const mlc::WordLevels levels = mlc::EncodeWord(words[w], config);
    double pv = 0.0;
    double stay = 1.0;
    for (int c = 0; c < config.CellsPerWord(); ++c) {
      pv += calibration.AvgPvForLevel(levels[static_cast<size_t>(c)]);
      stay *= 1.0 - calibration.ErrorProbForLevel(
                        levels[static_cast<size_t>(c)]);
    }
    ASSERT_DOUBLE_EQ(batch[w].pv_sum, pv) << "word " << w;
    ASSERT_DOUBLE_EQ(batch[w].no_error, stay) << "word " << w;
  }
}

TEST(BatchErrorSamplerTest, FirstCorruptedMatchesScalarDrawSequence) {
  Rng gen(0xf17e);
  for (int round = 0; round < 64; ++round) {
    const size_t count = 1 + gen.UniformInt(200);
    std::vector<double> word_error(count);
    for (double& e : word_error) {
      const double kind = gen.UniformDouble();
      // Mix of non-drawing words, rare errors, and near-certain errors so
      // the scan ends both inside blocks and past the last block.
      e = kind < 0.3 ? 0.0
                     : (kind < 0.95 ? gen.UniformDouble() * 0.02 : 0.9);
    }
    const uint64_t seed = gen.Next64();
    Rng batched(seed);
    Rng scalar(seed);
    const size_t got = mlc::BatchErrorSampler::FirstCorrupted(
        word_error.data(), count, batched);

    size_t want = count;
    for (size_t i = 0; i < count; ++i) {
      if (word_error[i] <= 0.0) continue;
      if (scalar.UniformDouble() < word_error[i]) {
        want = i;
        break;
      }
    }
    ASSERT_EQ(got, want) << "round " << round;
    // The block refills must leave the stream exactly where the scalar
    // loop left it.
    for (int k = 0; k < 4; ++k) {
      ASSERT_EQ(batched.Next64(), scalar.Next64()) << "round " << round;
    }
  }
}

// Checks one side's outcomes word for word against the per-word Write()
// loop, then the final stream positions; returns the corrupted-word count.
size_t ExpectSameOutcomes(const std::vector<uint32_t>& words,
                          const std::vector<approx::WordWriteOutcome>& got,
                          const std::vector<approx::WordWriteOutcome>& want,
                          Rng got_rng, Rng want_rng) {
  size_t corrupted = 0;
  for (size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(got[i].stored, want[i].stored) << "word " << i;
    EXPECT_EQ(got[i].cost, want[i].cost) << "word " << i;
    EXPECT_EQ(got[i].pv_iterations, want[i].pv_iterations) << "word " << i;
    if (want[i].stored != words[i]) ++corrupted;
  }
  for (int k = 0; k < 4; ++k) EXPECT_EQ(got_rng.Next64(), want_rng.Next64());
  return corrupted;
}

// Compares two batched streams against a per-word Write() loop on the same
// seed: one WriteBatch over the whole span (64-word blocks internally; the
// odd count exercises the partial tail), and an interleaved stream that
// alternates single Write() calls with odd-sized WriteBatch() calls on one
// Rng, so a kernel that left the stream anywhere but where the per-word
// loop does would show up in the next call's draws.
void ExpectWriteBatchParity(const std::string& backend_name, double knob,
                            const mlc::MlcConfig& mlc = mlc::MlcConfig()) {
  approx::BackendContext context;
  context.mlc = mlc;
  context.calibration_trials = 5000;
  auto backend = approx::CreateMemoryBackend(backend_name, context);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  const size_t count = 2048 + 17;
  auto model = (*backend)->ModelFor(approx::AllocSpec::Approx(knob, count));
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  const std::vector<uint32_t> words = RandomWords(count, 0xba7c4);
  const uint64_t seed = 31337;
  Rng scalar_rng(seed);
  std::vector<approx::WordWriteOutcome> scalar(count);
  for (size_t i = 0; i < count; ++i) {
    scalar[i] = (*model)->Write(words[i], scalar_rng);
  }

  Rng batched_rng(seed);
  std::vector<approx::WordWriteOutcome> batched(count);
  (*model)->WriteBatch(words.data(), count, batched_rng, batched.data());
  // The operating point is hot enough that the parity is not vacuous.
  EXPECT_GT(
      ExpectSameOutcomes(words, batched, scalar, batched_rng, scalar_rng), 0u);

  Rng mixed_rng(seed);
  std::vector<approx::WordWriteOutcome> mixed(count);
  size_t done = 0;
  for (size_t batch = 1; done < count; batch += 2) {
    mixed[done] = (*model)->Write(words[done], mixed_rng);
    ++done;
    const size_t span = std::min(batch, count - done);
    (*model)->WriteBatch(words.data() + done, span, mixed_rng,
                         mixed.data() + done);
    done += span;
  }
  ExpectSameOutcomes(words, mixed, scalar, mixed_rng, scalar_rng);
}

TEST(WriteModelBatchTest, FastPcmWriteBatchMatchesScalarWrites) {
  ExpectWriteBatchParity(std::string(approx::kPcmBackendName), 0.08);
}

// 4-bit and SLC cells miss the 16x2-bit byte tables: the scalar kernel's
// StatsFor falls back to the batched codec plus the per-cell loop.
TEST(WriteModelBatchTest, FastPcmFourBitWriteBatchMatchesScalarWrites) {
  mlc::MlcConfig four_bit;
  four_bit.levels = 16;
  ExpectWriteBatchParity(std::string(approx::kPcmBackendName), 0.025,
                         four_bit);
}

TEST(WriteModelBatchTest, FastPcmSlcWriteBatchMatchesScalarWrites) {
  mlc::MlcConfig slc;
  slc.levels = 2;
  ExpectWriteBatchParity(std::string(approx::kPcmBackendName), 0.2, slc);
}

TEST(WriteModelBatchTest, SpintronicWriteBatchMatchesScalarWrites) {
  ExpectWriteBatchParity(std::string(approx::kSpintronicBackendName), 1e-4);
}

}  // namespace
}  // namespace approxmem
