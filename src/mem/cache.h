// Set-associative LRU caches (Table 1's L1/L2/L3).
//
// All levels are write-through (the paper assumes write-through so that
// every data write reaches main memory); writes do not allocate lines.
//
// Each way holds one 8-byte entry, `tag + 1` (0 marks an invalid way), and
// each set keeps its ways in recency order, most recent first: a hit
// rotates its entry to the front and a read miss shifts the set down one
// way, dropping the least recent entry. That is exact LRU with no clock.
#ifndef APPROXMEM_MEM_CACHE_H_
#define APPROXMEM_MEM_CACHE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace approxmem::mem {

/// Geometry and timing of one cache level.
struct CacheConfig {
  uint64_t capacity_bytes = 32 * 1024;
  uint32_t ways = 8;
  uint32_t line_bytes = 64;
  double hit_latency_ns = 1.0;

  Status Validate() const;
};

/// One set-associative, write-through, no-write-allocate LRU cache level.
class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Looks up `address`; on a read miss the line is installed. Returns true
  /// on hit. Writes update recency when present but never allocate.
  bool AccessRead(uint64_t address);
  bool AccessWrite(uint64_t address);

  const CacheConfig& config() const { return config_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint32_t num_sets() const { return num_sets_; }

  void ResetStats();
  /// Invalidates all lines (used between experiment phases).
  void Flush();

 private:
  // The ways of the set `address` maps to, and the entry its line would
  // hold there.
  uint64_t* SetOf(uint64_t address, uint64_t* entry);
  // On a hit moves `entry` to the front of `set` and returns true.
  bool Promote(uint64_t* set, uint64_t entry);

  CacheConfig config_;
  uint32_t num_sets_;
  uint32_t line_shift_ = 0;  // log2(line_bytes)
  uint32_t set_shift_ = 0;   // log2(num_sets_)
  std::vector<uint64_t> ways_;  // num_sets_ * ways, row-major by set.
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// Result of a hierarchy lookup: which level satisfied the read.
enum class HitLevel { kL1 = 1, kL2 = 2, kL3 = 3, kMemory = 4 };

/// The paper's three-level write-through hierarchy. Reads probe L1->L2->L3
/// and install in all levels on the way back; writes are passed through all
/// levels to memory.
class CacheHierarchy {
 public:
  /// Builds the Table 1 configuration: L1 32KB LRU, L2 2MB 4-way,
  /// L3 32MB 8-way 10ns, 64-byte lines.
  static CacheHierarchy PaperDefault();

  CacheHierarchy(const CacheConfig& l1, const CacheConfig& l2,
                 const CacheConfig& l3);

  /// Probes the hierarchy for a read and returns the level that hit.
  HitLevel Read(uint64_t address);

  /// Propagates a write through all levels (write-through).
  void Write(uint64_t address);

  /// Hit latency of `level` in ns (memory returns 0; the PCM model owns it).
  double LatencyNs(HitLevel level) const;

  const Cache& l1() const { return l1_; }
  const Cache& l2() const { return l2_; }
  const Cache& l3() const { return l3_; }

  void ResetStats();
  void Flush();

 private:
  Cache l1_;
  Cache l2_;
  Cache l3_;
};

}  // namespace approxmem::mem

#endif  // APPROXMEM_MEM_CACHE_H_
