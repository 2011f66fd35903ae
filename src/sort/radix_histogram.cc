#include "sort/radix_histogram.h"

#include <utility>
#include <vector>

#include "sort/quicksort.h"
#include "sort/radix_common.h"

namespace approxmem::sort {
namespace {

// Copies [lo, hi) from src to dst (read + write per element).
void CopyRange(const KeyIdArrays& src, const KeyIdArrays& dst, size_t lo,
               size_t hi) {
  for (size_t i = lo; i < hi; ++i) {
    dst.keys->Set(i, src.keys->Get(i));
    if (src.ids != nullptr) dst.ids->Set(i, src.ids->Get(i));
  }
}

// Counts digit occurrences of src[lo, hi) at `shift` (reads only).
std::vector<size_t> CountDigits(const KeyIdArrays& src, size_t lo, size_t hi,
                                int shift, const RadixPlan& plan) {
  std::vector<size_t> counts(plan.buckets, 0);
  for (size_t i = lo; i < hi; ++i) {
    ++counts[(src.keys->Get(i) >> shift) & plan.mask];
  }
  return counts;
}

// Scatters src[lo, hi) into dst by digit; one write per element. Bucket
// start offsets come from `counts` (exclusive prefix sums built here).
//
// Because an element's observed digit can change between the counting read
// and the scatter read (read disturbance / injected transient faults), a
// cursor can run past its bucket into slots that another cursor also
// claims. A collision must not drop the element: keys and IDs move
// together, and a lost or doubled ID breaks the permutation contract the
// refine stage depends on. Colliding elements are diverted to the slots
// left unclaimed at the end of the pass, so the scatter is a permutation
// of [lo, hi) under any corruption. Fault-free passes never divert, and
// read/write counts are identical either way.
void Scatter(const KeyIdArrays& src, const KeyIdArrays& dst, size_t lo,
             size_t hi, int shift, const RadixPlan& plan,
             const std::vector<size_t>& counts,
             std::vector<size_t>* bucket_starts) {
  std::vector<size_t> cursor(plan.buckets);
  size_t offset = lo;
  for (uint32_t b = 0; b < plan.buckets; ++b) {
    cursor[b] = offset;
    if (bucket_starts != nullptr) (*bucket_starts)[b] = offset;
    offset += counts[b];
  }
  std::vector<bool> claimed(hi - lo, false);
  std::vector<std::pair<uint32_t, uint32_t>> diverted;  // (key, id value)
  for (size_t i = lo; i < hi; ++i) {
    const uint32_t key = src.keys->Get(i);
    const uint32_t digit = (key >> shift) & plan.mask;
    const size_t pos = cursor[digit]++;
    if (pos >= hi || claimed[pos - lo]) {
      diverted.emplace_back(key,
                            src.ids != nullptr ? src.ids->Get(i) : 0u);
      continue;
    }
    claimed[pos - lo] = true;
    dst.keys->Set(pos, key);
    if (src.ids != nullptr) dst.ids->Set(pos, src.ids->Get(i));
  }
  size_t slot = lo;
  for (const auto& [key, id_value] : diverted) {
    while (claimed[slot - lo]) ++slot;
    claimed[slot - lo] = true;
    dst.keys->Set(slot, key);
    if (src.ids != nullptr) dst.ids->Set(slot, id_value);
  }
}

}  // namespace

Status LsdHistogramSort(SortSpec& spec, const RadixOptions& options) {
  Status status = ValidateRadix(spec, options);
  if (!status.ok()) return status;
  const size_t n = spec.keys->size();
  if (n < 2) return Status::Ok();

  const RadixPlan plan = RadixPlan::ForBits(options.bits);
  const KeyIdArrays primary{spec.keys, spec.ids};
  ScratchArrays scratch(spec, n);
  StripedPass striped(plan, primary, scratch.arrays(), options.pool);

  KeyIdArrays src = primary;
  KeyIdArrays dst = scratch.arrays();
  for (int pass = 0; pass < plan.passes; ++pass) {
    StripeShards from(src, striped.stripes());
    StripeShards to(dst, striped.stripes());
    // Straight to the final slot: exactly one write per element.
    striped.Scatter(from, to, plan.bits * pass);
    from.Merge();
    to.Merge();
    std::swap(src, dst);
  }

  if (src.keys != primary.keys) {
    // Odd pass count: parity copy back.
    StripeShards from(src, striped.stripes());
    StripeShards to(primary, striped.stripes());
    striped.Copy(from, to);
    from.Merge();
    to.Merge();
  }
  return Status::Ok();
}

Status MsdHistogramSort(SortSpec& spec, const RadixOptions& options) {
  Status status = ValidateRadix(spec, options);
  if (!status.ok()) return status;
  const size_t n = spec.keys->size();
  if (n < 2) return Status::Ok();

  const RadixPlan plan = RadixPlan::ForBits(options.bits);
  ScratchArrays scratch_arrays(spec, n);
  const KeyIdArrays primary{spec.keys, spec.ids};
  const KeyIdArrays scratch = scratch_arrays.arrays();

  struct Segment {
    size_t lo;
    size_t hi;     // Exclusive.
    int shift;     // < 0 means digits exhausted.
    bool in_primary;  // Which buffer currently holds the segment.
  };
  std::vector<Segment> stack;
  stack.push_back(Segment{0, n, plan.TopShift(), true});

  while (!stack.empty()) {
    const Segment seg = stack.back();
    stack.pop_back();
    const size_t len = seg.hi - seg.lo;
    if (len == 0) continue;
    const KeyIdArrays src = seg.in_primary ? primary : scratch;
    const KeyIdArrays dst = seg.in_primary ? scratch : primary;

    if (len < 2 || len <= kMsdInsertionCutoff || seg.shift < 0) {
      // Leaf: make sure the data is back in the primary buffer, then finish
      // with insertion sort (through the instrumented primary arrays).
      if (!seg.in_primary) CopyRange(src, primary, seg.lo, seg.hi);
      if (len >= 2) InsertionSortRange(spec, seg.lo, seg.hi - 1);
      continue;
    }

    const std::vector<size_t> counts =
        CountDigits(src, seg.lo, seg.hi, seg.shift, plan);
    std::vector<size_t> starts(plan.buckets);
    Scatter(src, dst, seg.lo, seg.hi, seg.shift, plan, counts, &starts);
    for (uint32_t b = 0; b < plan.buckets; ++b) {
      const size_t bucket_lo = starts[b];
      const size_t bucket_hi = bucket_lo + counts[b];
      stack.push_back(Segment{bucket_lo, bucket_hi, seg.shift - plan.bits,
                              !seg.in_primary});
    }
  }
  return Status::Ok();
}

}  // namespace approxmem::sort
