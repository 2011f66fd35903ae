// Shared machinery of the radix-sort family: digit plans, scratch buffers,
// the striped counting pass both LSD sorts are built from, and queue-bucket
// storage (Section 3.1 implements LSD/MSD "using queues as buckets").
#ifndef APPROXMEM_SORT_RADIX_COMMON_H_
#define APPROXMEM_SORT_RADIX_COMMON_H_

#include <cstdint>
#include <vector>

#include "approx/approx_array.h"
#include "common/status.h"
#include "sort/sort_common.h"

namespace approxmem {
class ThreadPool;
}

namespace approxmem::sort {

/// Options of every radix sort (queue-bucket and histogram, LSD and MSD).
struct RadixOptions {
  /// Digit width in bits; the paper evaluates 3, 4, 5, and 6.
  int bits = 6;
  /// Worker pool for the striped LSD passes (null means serial; the MSD
  /// sorts always run serially). Results never depend on the thread count.
  ThreadPool* pool = nullptr;
};

/// Checks the spec (radix sorts need scratch allocators) and the digit
/// width, which must be in [1, 16].
Status ValidateRadix(const SortSpec& spec, const RadixOptions& options);

/// Pass layout for a given digit width over 32-bit keys.
struct RadixPlan {
  int bits = 6;             // 3..6 in the paper (8..64 buckets).
  int passes = 6;           // ceil(32 / bits).
  uint32_t mask = 63;       // (1 << bits) - 1.
  uint32_t buckets = 64;    // 1 << bits.

  static RadixPlan ForBits(int bits);
  /// Digit of `key` for `pass` counted from the least significant digit.
  uint32_t DigitLsd(uint32_t key, int pass) const;
  /// Right-shift amount of the most significant digit.
  int TopShift() const { return bits * (passes - 1); }
};

/// MSD sorts (queue-bucket and histogram): buckets at or below this size
/// finish with insertion sort.
inline constexpr size_t kMsdInsertionCutoff = 32;

/// Fixed decomposition of [0, n) into contiguous stripes for the parallel
/// radix passes. The stripe count is a function of n alone — never of the
/// thread count — so per-stripe RNG substreams, digit histograms, and
/// scatter windows are identical no matter how stripes are scheduled.
struct StripePlan {
  size_t n = 0;
  size_t count = 1;

  /// Stripes hold at least this many elements (tiny inputs stay serial);
  /// the count is capped so per-stripe state stays small.
  static constexpr size_t kMinStripeElements = 2048;
  static constexpr size_t kMaxStripes = 64;

  static StripePlan ForN(size_t n);
  size_t Begin(size_t stripe) const { return stripe * n / count; }
  size_t End(size_t stripe) const { return (stripe + 1) * n / count; }
};

/// A key array plus its co-moving ID array (null when IDs are not tracked).
struct KeyIdArrays {
  approx::ApproxArrayU32* keys = nullptr;
  approx::ApproxArrayU32* ids = nullptr;
};

/// An n-word scratch buffer for `spec`: keys from alloc_key_buffer, then
/// IDs from alloc_id_buffer when the spec tracks IDs.
class ScratchArrays {
 public:
  ScratchArrays(SortSpec& spec, size_t n);
  KeyIdArrays arrays() { return {&keys_, has_ids_ ? &ids_ : nullptr}; }

 private:
  bool has_ids_;
  approx::ApproxArrayU32 keys_;
  approx::ApproxArrayU32 ids_;
};

/// One pass's per-stripe shards of a KeyIdArrays. Construction splits one
/// RNG substream per stripe off each array in stripe order; Merge folds
/// the ledgers back in stripe order.
struct StripeShards {
  StripeShards(const KeyIdArrays& arrays, size_t stripes);
  void Merge();

  KeyIdArrays arrays;
  std::vector<approx::ApproxArrayU32::Shard> keys;
  std::vector<approx::ApproxArrayU32::Shard> ids;  // Empty without IDs.
};

/// The striped counting pass both LSD sorts are made of. Buffers `a` and
/// `b` are the two the sort moves elements between; stripes run on `pool`
/// only when every array allows concurrent shards, and serially in stripe
/// order otherwise, with bit-identical results either way. The stash,
/// histograms, and windows live in DRAM: they are queue metadata (pointers
/// in a real implementation), not simulated accesses.
class StripedPass {
 public:
  StripedPass(const RadixPlan& plan, const KeyIdArrays& a,
              const KeyIdArrays& b, ThreadPool* pool);

  size_t stripes() const { return stripes_.count; }

  /// Moves src to dst, stable by the digit at `shift`. Each stripe reads
  /// its slice of src once, stashing the observed values and counting
  /// digits (so a corrupted read fixes the digit once); a serial
  /// bucket-major prefix sum lays out disjoint per-(bucket, stripe)
  /// windows in the serial queue order; then each stripe writes its
  /// elements once, straight into its windows of dst.
  void Scatter(StripeShards& src, StripeShards& dst, int shift);

  /// Copies src to dst in contiguous 64-word blocks per stripe: one read
  /// and one write per element, corrupted values propagating as stored.
  void Copy(StripeShards& src, StripeShards& dst);

 private:
  template <typename Fn>
  void ForEachStripe(const Fn& fn);

  RadixPlan plan_;
  StripePlan stripes_;
  ThreadPool* pool_;
  bool concurrent_;
  bool with_ids_;
  std::vector<uint32_t> stash_keys_;
  std::vector<uint32_t> stash_ids_;
  std::vector<size_t> hist_;    // Stripe-major: hist_[s * buckets + b].
  std::vector<size_t> window_;  // Bucket-major: window_[b * stripes + s].
};

/// Queue-bucket storage backed by instrumented scratch arrays.
///
/// Pushing appends the key (and id) to a bump arena — one simulated data
/// write each, in the arena's precision domain — and records the slot in a
/// per-bucket position list. The position lists are queue metadata
/// (pointers in a real implementation) and are not counted as data writes.
/// Draining replays buckets in order back into the destination arrays, one
/// read + one write per element.
class BucketQueues {
 public:
  /// `key_arena` must have capacity for every pushed element starting at
  /// `arena_base`; `id_arena` may be null when no ids are tracked.
  BucketQueues(uint32_t num_buckets, approx::ApproxArrayU32* key_arena,
               approx::ApproxArrayU32* id_arena, size_t arena_base = 0);

  /// Appends (key, id) to `bucket`. Ignores `id` when ids are not tracked.
  void Push(uint32_t bucket, uint32_t key, uint32_t id);

  /// Writes all buckets, in bucket order, into keys[out_base...] (and ids).
  /// Returns the number of elements drained.
  size_t DrainTo(approx::ApproxArrayU32& keys, approx::ApproxArrayU32* ids,
                 size_t out_base);

  size_t BucketSize(uint32_t bucket) const {
    return positions_[bucket].size();
  }
  size_t TotalPushed() const { return next_ - arena_base_; }

  /// Clears all queues and resets the bump pointer (arena reuse per pass).
  void Reset();

 private:
  approx::ApproxArrayU32* key_arena_;
  approx::ApproxArrayU32* id_arena_;
  size_t arena_base_;
  size_t next_;
  std::vector<std::vector<uint32_t>> positions_;
};

}  // namespace approxmem::sort

#endif  // APPROXMEM_SORT_RADIX_COMMON_H_
