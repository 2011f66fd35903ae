#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

namespace approxmem {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next64() == b.Next64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanIsHalf) {
  Rng rng(8);
  double sum = 0.0;
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(9);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.UniformInt(bound), bound);
    }
  }
}

TEST(RngTest, UniformIntCoversAllResidues) {
  Rng rng(10);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NormalMatchesMoments) {
  Rng rng(11);
  const int kSamples = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.Normal(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kSamples;
  const double var = sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.03);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.03);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(12);
  Rng child = parent.Split();
  // The child must not replay the parent's sequence.
  Rng parent_copy(12);
  parent_copy.Split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.Next64() == parent.Next64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// The first eight Next64() and UniformDouble() outputs of fresh generators,
// captured once and pinned: every seeded experiment, golden file and digest
// in the repository rests on this exact stream.
struct CapturedStream {
  uint64_t next64[8];
  double uniform[8];
};

void ExpectStream(Rng rng, const CapturedStream& want) {
  Rng uniform_rng = rng;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(rng.Next64(), want.next64[i]) << "draw " << i;
    EXPECT_EQ(uniform_rng.UniformDouble(), want.uniform[i]) << "draw " << i;
  }
}

TEST(RngTest, StreamMatchesCapture) {
  const CapturedStream seed_one = {
      {0xcfc5d07f6f03c29bULL, 0xbf424132963fe08dULL, 0x19a37d5757aaf520ULL,
       0xbf08119f05cd56d6ULL, 0x2f47184b86186fa4ULL, 0x97299fcae7202345ULL,
       0xfca3c79508f41507ULL, 0x85fea5c90363f221ULL},
      {0.81161215888188476, 0.74710471615821872, 0.10015090353378375,
       0.74621687061681041, 0.18467857211916938, 0.59047888473207921,
       0.98687407864140675, 0.52341686399030585}};
  const CapturedStream seed_deadbeef = {
      {0x0c520eb8fea98edeULL, 0x2b74a6338b80e0e2ULL, 0xbe238770c3795322ULL,
       0x5f235f98a244ea97ULL, 0xe004f0cc1514d858ULL, 0x436a209963ff9223ULL,
       0x8302e81b9685b6d4ULL, 0xa7eec00b77ec3019ULL},
      {0.048127098240604238, 0.16974867590352316, 0.74272963049904672,
       0.37163350559628194, 0.87507538778762084, 0.26333812470329421,
       0.51176310227903943, 0.65598678855887793}};
  const CapturedStream split_of_seed_one = {
      {0x25faf2f0b1e9fa8fULL, 0x16d8b03d2788bbceULL, 0xe022c87d81f0daffULL,
       0xea60241ba246e408ULL, 0x5845cd0851d7acccULL, 0x850997acdc189ec8ULL,
       0x2bb28bff5ff16d1cULL, 0xbfa05fa2acfcdcf0ULL},
      {0.14836042763082691, 0.089243903093605748, 0.875530748979091,
       0.91552949595122923, 0.34481507733457184, 0.5196776196499705,
       0.17069315895782255, 0.7485408565671493}};
  ExpectStream(Rng(1), seed_one);
  ExpectStream(Rng(0xdeadbeef), seed_deadbeef);
  Rng parent(1);
  ExpectStream(parent.Split(), split_of_seed_one);
}

TEST(WorkloadGeneratorsTest, UniformKeysHasFullRangeSpread) {
  Rng rng(13);
  const auto keys = UniformKeys(100000, rng);
  const auto [min_it, max_it] = std::minmax_element(keys.begin(), keys.end());
  EXPECT_LT(*min_it, 1u << 24);          // Something near the bottom.
  EXPECT_GT(*max_it, 0xFF000000u);       // Something near the top.
}

TEST(WorkloadGeneratorsTest, SkewedKeysHaveDuplicates) {
  Rng rng(14);
  const auto keys = SkewedKeys(10000, 0.5, rng);
  std::set<uint32_t> distinct(keys.begin(), keys.end());
  EXPECT_LT(distinct.size(), keys.size() / 2);
}

TEST(WorkloadGeneratorsTest, NearlySortedKeysAlmostSorted) {
  Rng rng(15);
  const auto keys = NearlySortedKeys(10000, 10, rng);
  size_t descents = 0;
  for (size_t i = 1; i < keys.size(); ++i) {
    if (keys[i] < keys[i - 1]) ++descents;
  }
  EXPECT_LE(descents, 20u);  // Each swap introduces at most 2 descents.
  EXPECT_GT(descents, 0u);
}

}  // namespace
}  // namespace approxmem
