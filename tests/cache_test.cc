#include "mem/cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"

namespace approxmem::mem {
namespace {

CacheConfig SmallCache() {
  CacheConfig config;
  config.capacity_bytes = 1024;  // 4 sets x 4 ways x 64B.
  config.ways = 4;
  config.line_bytes = 64;
  config.hit_latency_ns = 1.0;
  return config;
}

TEST(CacheConfigTest, ValidatesGeometry) {
  EXPECT_TRUE(SmallCache().Validate().ok());
  CacheConfig bad = SmallCache();
  bad.line_bytes = 48;  // Not a power of two.
  EXPECT_FALSE(bad.Validate().ok());
  bad = SmallCache();
  bad.ways = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = SmallCache();
  bad.capacity_bytes = 1000;  // Not a multiple of ways*line.
  EXPECT_FALSE(bad.Validate().ok());
  bad = SmallCache();
  bad.capacity_bytes = 768;  // 3 sets: not a power of two.
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(CacheTest, ColdMissThenHit) {
  Cache cache(SmallCache());
  EXPECT_FALSE(cache.AccessRead(0x0));
  EXPECT_TRUE(cache.AccessRead(0x0));
  EXPECT_TRUE(cache.AccessRead(0x3F));  // Same 64B line.
  EXPECT_FALSE(cache.AccessRead(0x40));  // Next line.
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(CacheTest, LruEvictionOrder) {
  Cache cache(SmallCache());  // 4 ways per set; set stride is 4*64 = 256B.
  // Fill one set with 4 lines.
  for (uint64_t i = 0; i < 4; ++i) cache.AccessRead(i * 256);
  // Touch line 0 so line 1 becomes LRU.
  EXPECT_TRUE(cache.AccessRead(0));
  // Install a 5th line in the same set; line 1 must be evicted.
  EXPECT_FALSE(cache.AccessRead(4 * 256));
  EXPECT_TRUE(cache.AccessRead(0));        // Still resident.
  EXPECT_FALSE(cache.AccessRead(1 * 256));  // Evicted.
}

TEST(CacheTest, WritesDoNotAllocate) {
  Cache cache(SmallCache());
  EXPECT_FALSE(cache.AccessWrite(0x0));
  EXPECT_FALSE(cache.AccessRead(0x0));  // Still a miss: no write-allocate.
}

TEST(CacheTest, WriteHitsUpdateRecency) {
  Cache cache(SmallCache());
  for (uint64_t i = 0; i < 4; ++i) cache.AccessRead(i * 256);
  EXPECT_TRUE(cache.AccessWrite(0));       // Write hit touches line 0.
  cache.AccessRead(4 * 256);               // Evicts line 1 (LRU), not 0.
  EXPECT_TRUE(cache.AccessRead(0));
}

TEST(CacheTest, FlushInvalidatesAll) {
  Cache cache(SmallCache());
  cache.AccessRead(0);
  cache.Flush();
  EXPECT_FALSE(cache.AccessRead(0));
}

TEST(CacheTest, ResetStatsKeepsContents) {
  Cache cache(SmallCache());
  cache.AccessRead(0);
  cache.ResetStats();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_TRUE(cache.AccessRead(0));  // Line still resident.
}

// Reference model: the clock-stamped LRU cache that the recency-ordered
// sets replaced. Each line holds a tag, a valid bit and the time of its
// last use; a read miss fills the first invalid way, else the way used
// least recently.
class ClockStampedLru {
 public:
  explicit ClockStampedLru(const CacheConfig& config)
      : ways_(config.ways),
        line_bytes_(config.line_bytes),
        sets_(config.capacity_bytes / (uint64_t{config.ways} *
                                       config.line_bytes)),
        lines_(sets_ * ways_) {}

  bool Access(uint64_t address, bool allocate) {
    const uint64_t line = address / line_bytes_;
    const uint64_t tag = line / sets_;
    Line* set = &lines_[(line % sets_) * ways_];
    for (uint32_t w = 0; w < ways_; ++w) {
      if (set[w].valid && set[w].tag == tag) {
        set[w].last_used = ++clock_;
        ++hits_;
        return true;
      }
    }
    ++misses_;
    if (!allocate) return false;
    uint32_t victim = 0;
    for (uint32_t w = 0; w < ways_; ++w) {
      if (!set[w].valid) {
        victim = w;
        break;
      }
      if (set[w].last_used < set[victim].last_used) victim = w;
    }
    set[victim] = Line{tag, ++clock_, true};
    return false;
  }

  void Flush() { lines_.assign(lines_.size(), Line{}); }
  void ResetStats() { hits_ = misses_ = 0; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Line {
    uint64_t tag = 0;
    uint64_t last_used = 0;
    bool valid = false;
  };

  uint32_t ways_;
  uint64_t line_bytes_;
  uint64_t sets_;
  std::vector<Line> lines_;
  uint64_t clock_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

TEST(CacheTest, MatchesClockStampedLruReference) {
  for (const uint32_t ways : {1u, 3u, 4u, 8u, 16u}) {
    SCOPED_TRACE(::testing::Message() << ways << " ways");
    CacheConfig config;
    config.ways = ways;
    config.line_bytes = 64;
    config.capacity_bytes = uint64_t{ways} * 64 * 16;  // 16 sets.
    Cache cache(config);
    ClockStampedLru reference(config);
    Rng rng(ways);
    for (int i = 0; i < 200000; ++i) {
      const uint64_t r = rng.Next64();
      // Half the accesses stay within twice the capacity, so sets hit and
      // evict; the rest spread over 64x the capacity.
      const uint64_t span = config.capacity_bytes * ((r & 1) ? 2 : 64);
      const uint64_t address = (r >> 16) % span;
      if ((r >> 1) % 5000 == 0) {
        cache.Flush();
        reference.Flush();
      } else if ((r >> 1) % 5000 == 1) {
        cache.ResetStats();
        reference.ResetStats();
      } else if ((r >> 1) & 1) {
        ASSERT_EQ(cache.AccessWrite(address), reference.Access(address, false))
            << "write " << i;
      } else {
        ASSERT_EQ(cache.AccessRead(address), reference.Access(address, true))
            << "read " << i;
      }
    }
    EXPECT_EQ(cache.hits(), reference.hits());
    EXPECT_EQ(cache.misses(), reference.misses());
    EXPECT_GT(cache.hits(), 0u);
  }
}

TEST(CacheHierarchyTest, PaperDefaultGeometry) {
  CacheHierarchy hierarchy = CacheHierarchy::PaperDefault();
  EXPECT_EQ(hierarchy.l1().config().capacity_bytes, 32u * 1024);
  EXPECT_EQ(hierarchy.l2().config().capacity_bytes, 2u * 1024 * 1024);
  EXPECT_EQ(hierarchy.l2().config().ways, 4u);
  EXPECT_EQ(hierarchy.l3().config().capacity_bytes, 32ull * 1024 * 1024);
  EXPECT_EQ(hierarchy.l3().config().ways, 8u);
  EXPECT_DOUBLE_EQ(hierarchy.l3().config().hit_latency_ns, 10.0);
}

TEST(CacheHierarchyTest, ReadFillsAllLevels) {
  CacheHierarchy hierarchy = CacheHierarchy::PaperDefault();
  EXPECT_EQ(hierarchy.Read(0x1234), HitLevel::kMemory);
  EXPECT_EQ(hierarchy.Read(0x1234), HitLevel::kL1);
}

TEST(CacheHierarchyTest, L1EvictionFallsBackToL2) {
  CacheHierarchy hierarchy = CacheHierarchy::PaperDefault();
  hierarchy.Read(0);
  // Stream enough lines through the same L1 set to evict address 0 from L1
  // but not from the much larger L2. L1: 32KB/8way/64B = 64 sets, so lines
  // 64*64B = 4KB apart share a set.
  for (uint64_t i = 1; i <= 8; ++i) hierarchy.Read(i * 4096);
  EXPECT_EQ(hierarchy.Read(0), HitLevel::kL2);
}

TEST(CacheHierarchyTest, LatencyPerLevel) {
  CacheHierarchy hierarchy = CacheHierarchy::PaperDefault();
  EXPECT_GT(hierarchy.LatencyNs(HitLevel::kL2),
            hierarchy.LatencyNs(HitLevel::kL1));
  EXPECT_GT(hierarchy.LatencyNs(HitLevel::kL3),
            hierarchy.LatencyNs(HitLevel::kL2));
  EXPECT_DOUBLE_EQ(hierarchy.LatencyNs(HitLevel::kMemory), 0.0);
}

}  // namespace
}  // namespace approxmem::mem
