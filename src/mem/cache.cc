#include "mem/cache.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace approxmem::mem {
namespace {

bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

}  // namespace

Status CacheConfig::Validate() const {
  if (!IsPowerOfTwo(line_bytes)) {
    return Status::InvalidArgument("line_bytes must be a power of two");
  }
  if (ways == 0) return Status::InvalidArgument("ways must be positive");
  if (capacity_bytes % (static_cast<uint64_t>(ways) * line_bytes) != 0) {
    return Status::InvalidArgument(
        "capacity must be a multiple of ways * line_bytes");
  }
  const uint64_t sets = capacity_bytes / (static_cast<uint64_t>(ways) *
                                          line_bytes);
  if (!IsPowerOfTwo(sets)) {
    return Status::InvalidArgument("number of sets must be a power of two");
  }
  if (hit_latency_ns < 0.0) {
    return Status::InvalidArgument("hit_latency_ns must be non-negative");
  }
  return Status::Ok();
}

Cache::Cache(const CacheConfig& config) : config_(config) {
  APPROXMEM_CHECK_OK(config.Validate());
  num_sets_ = static_cast<uint32_t>(
      config.capacity_bytes /
      (static_cast<uint64_t>(config.ways) * config.line_bytes));
  line_shift_ = static_cast<uint32_t>(std::countr_zero(config.line_bytes));
  set_shift_ = static_cast<uint32_t>(std::countr_zero(num_sets_));
  ways_.assign(static_cast<size_t>(num_sets_) * config.ways, 0);
}

uint64_t* Cache::SetOf(uint64_t address, uint64_t* entry) {
  const uint64_t line = address >> line_shift_;
  *entry = (line >> set_shift_) + 1;
  return &ways_[static_cast<size_t>(line & (num_sets_ - 1)) * config_.ways];
}

bool Cache::Promote(uint64_t* set, uint64_t entry) {
  for (uint32_t w = 0; w < config_.ways; ++w) {
    if (set[w] == entry) {
      std::copy_backward(set, set + w, set + w + 1);
      set[0] = entry;
      return true;
    }
    // Valid entries are packed at the front; the rest of the set is empty.
    if (set[w] == 0) return false;
  }
  return false;
}

bool Cache::AccessRead(uint64_t address) {
  uint64_t entry;
  uint64_t* set = SetOf(address, &entry);
  if (Promote(set, entry)) {
    ++hits_;
    return true;
  }
  ++misses_;
  std::copy_backward(set, set + config_.ways - 1, set + config_.ways);
  set[0] = entry;
  return false;
}

bool Cache::AccessWrite(uint64_t address) {
  uint64_t entry;
  uint64_t* set = SetOf(address, &entry);
  if (Promote(set, entry)) {
    ++hits_;
    return true;
  }
  // Write-through, no-write-allocate: a miss just passes through.
  ++misses_;
  return false;
}

void Cache::ResetStats() {
  hits_ = 0;
  misses_ = 0;
}

void Cache::Flush() { std::fill(ways_.begin(), ways_.end(), 0); }

CacheHierarchy CacheHierarchy::PaperDefault() {
  CacheConfig l1;
  l1.capacity_bytes = 32 * 1024;
  l1.ways = 8;
  l1.line_bytes = 64;
  l1.hit_latency_ns = 1.0;
  CacheConfig l2;
  l2.capacity_bytes = 2 * 1024 * 1024;
  l2.ways = 4;
  l2.line_bytes = 64;
  l2.hit_latency_ns = 4.0;
  CacheConfig l3;
  l3.capacity_bytes = 32ull * 1024 * 1024;
  l3.ways = 8;
  l3.line_bytes = 64;
  l3.hit_latency_ns = 10.0;  // Table 1: 10ns L3 access latency.
  return CacheHierarchy(l1, l2, l3);
}

CacheHierarchy::CacheHierarchy(const CacheConfig& l1, const CacheConfig& l2,
                               const CacheConfig& l3)
    : l1_(l1), l2_(l2), l3_(l3) {}

HitLevel CacheHierarchy::Read(uint64_t address) {
  if (l1_.AccessRead(address)) return HitLevel::kL1;
  if (l2_.AccessRead(address)) return HitLevel::kL2;
  if (l3_.AccessRead(address)) return HitLevel::kL3;
  return HitLevel::kMemory;
}

void CacheHierarchy::Write(uint64_t address) {
  l1_.AccessWrite(address);
  l2_.AccessWrite(address);
  l3_.AccessWrite(address);
}

double CacheHierarchy::LatencyNs(HitLevel level) const {
  switch (level) {
    case HitLevel::kL1:
      return l1_.config().hit_latency_ns;
    case HitLevel::kL2:
      return l2_.config().hit_latency_ns;
    case HitLevel::kL3:
      return l3_.config().hit_latency_ns;
    case HitLevel::kMemory:
      return 0.0;
  }
  return 0.0;
}

void CacheHierarchy::ResetStats() {
  l1_.ResetStats();
  l2_.ResetStats();
  l3_.ResetStats();
}

void CacheHierarchy::Flush() {
  l1_.Flush();
  l2_.Flush();
  l3_.Flush();
}

}  // namespace approxmem::mem
