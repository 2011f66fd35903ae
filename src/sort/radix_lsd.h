// Least-significant-digit radix sort with queue buckets (Section 3.1).
//
// Each pass is the striped counting pass of radix_common.h: every element
// moves into its bucket window of an n-word arena (one write) and is then
// copied back in order (one write), so simulated access counts match the
// classic queue formulation: two reads and two writes per element per
// pass. The stripe plan depends on n alone, and every stripe draws from its
// own RNG substream, so output, write counts, and cost ledgers are
// identical at any thread count.
#ifndef APPROXMEM_SORT_RADIX_LSD_H_
#define APPROXMEM_SORT_RADIX_LSD_H_

#include "common/status.h"
#include "sort/radix_common.h"
#include "sort/sort_common.h"

namespace approxmem::sort {

/// Sorts spec.keys (and spec.ids) ascending by key. ceil(32/bits) stable
/// passes from the least significant digit; each pass moves every element
/// into its bucket window (one write) and back (one write). Requires
/// spec.alloc_key_buffer (and alloc_id_buffer when ids are set).
Status LsdRadixSort(SortSpec& spec, const RadixOptions& options);

}  // namespace approxmem::sort

#endif  // APPROXMEM_SORT_RADIX_LSD_H_
