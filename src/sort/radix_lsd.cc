#include "sort/radix_lsd.h"

namespace approxmem::sort {

Status LsdRadixSort(SortSpec& spec, const RadixOptions& options) {
  Status status = ValidateRadix(spec, options);
  if (!status.ok()) return status;
  const size_t n = spec.keys->size();
  if (n < 2) return Status::Ok();

  const RadixPlan plan = RadixPlan::ForBits(options.bits);
  const KeyIdArrays primary{spec.keys, spec.ids};
  ScratchArrays scratch(spec, n);
  const KeyIdArrays arena = scratch.arrays();
  StripedPass striped(plan, primary, arena, options.pool);

  for (int pass = 0; pass < plan.passes; ++pass) {
    StripeShards keys(primary, striped.stripes());
    StripeShards buckets(arena, striped.stripes());
    striped.Scatter(keys, buckets, plan.bits * pass);
    // The arena already holds the pass's order, so blocks copy back
    // independently; corrupted arena values propagate, as a queue drain
    // would.
    striped.Copy(buckets, keys);
    keys.Merge();
    buckets.Merge();
  }
  return Status::Ok();
}

}  // namespace approxmem::sort
