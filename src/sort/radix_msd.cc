#include "sort/radix_msd.h"

#include <utility>
#include <vector>

#include "sort/quicksort.h"
#include "sort/radix_common.h"

namespace approxmem::sort {
namespace {

struct Segment {
  size_t lo;
  size_t hi;  // Exclusive.
  int shift;  // Right-shift of the digit to partition by; < 0 means done.
};

}  // namespace

Status MsdRadixSort(SortSpec& spec, const RadixOptions& options) {
  Status status = ValidateRadix(spec, options);
  if (!status.ok()) return status;
  const size_t n = spec.keys->size();
  if (n < 2) return Status::Ok();

  const RadixPlan plan = RadixPlan::ForBits(options.bits);
  ScratchArrays scratch(spec, n);
  const KeyIdArrays arena = scratch.arrays();

  std::vector<Segment> stack;
  stack.push_back(Segment{0, n, plan.TopShift()});

  while (!stack.empty()) {
    const Segment seg = stack.back();
    stack.pop_back();
    const size_t len = seg.hi - seg.lo;
    if (len < 2) continue;
    if (len <= kMsdInsertionCutoff || seg.shift < 0) {
      InsertionSortRange(spec, seg.lo, seg.hi - 1);
      continue;
    }

    // Partition [lo, hi) by the digit at seg.shift through bucket queues
    // backed by the arena region [lo, hi).
    BucketQueues queues(plan.buckets, arena.keys, arena.ids, seg.lo);
    for (size_t i = seg.lo; i < seg.hi; ++i) {
      const uint32_t key = spec.keys->Get(i);
      const uint32_t id = spec.ids != nullptr ? spec.ids->Get(i) : 0;
      queues.Push((key >> seg.shift) & plan.mask, key, id);
    }
    queues.DrainTo(*spec.keys, spec.ids, seg.lo);

    size_t offset = seg.lo;
    for (uint32_t b = 0; b < plan.buckets; ++b) {
      const size_t size = queues.BucketSize(b);
      if (size > 1) {
        stack.push_back(Segment{offset, offset + size,
                                seg.shift - plan.bits});
      }
      offset += size;
    }
  }
  return Status::Ok();
}

}  // namespace approxmem::sort
