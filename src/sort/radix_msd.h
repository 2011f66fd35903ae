// Most-significant-digit radix sort with queue buckets (Section 3.1).
#ifndef APPROXMEM_SORT_RADIX_MSD_H_
#define APPROXMEM_SORT_RADIX_MSD_H_

#include "common/status.h"
#include "sort/radix_common.h"
#include "sort/sort_common.h"

namespace approxmem::sort {

/// Sorts spec.keys (and spec.ids) ascending by key. Recursively partitions
/// from the most significant digit using bucket queues; like quicksort,
/// later levels touch ever-smaller ranges, which localizes the damage of
/// earlier corrupted writes (Section 3.5). Requires spec.alloc_key_buffer
/// (and alloc_id_buffer when ids are set). Serial.
Status MsdRadixSort(SortSpec& spec, const RadixOptions& options);

}  // namespace approxmem::sort

#endif  // APPROXMEM_SORT_RADIX_MSD_H_
