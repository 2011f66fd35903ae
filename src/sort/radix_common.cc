#include "sort/radix_common.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"

namespace approxmem::sort {

Status ValidateRadix(const SortSpec& spec, const RadixOptions& options) {
  Status status = ValidateSpec(spec, /*needs_buffers=*/true);
  if (!status.ok()) return status;
  if (options.bits < 1 || options.bits > 16) {
    return Status::InvalidArgument("radix bits must be in [1, 16]");
  }
  return Status::Ok();
}

StripePlan StripePlan::ForN(size_t n) {
  StripePlan plan;
  plan.n = n;
  plan.count =
      std::clamp<size_t>(n / kMinStripeElements, 1, kMaxStripes);
  return plan;
}

RadixPlan RadixPlan::ForBits(int bits) {
  APPROXMEM_CHECK(bits >= 1 && bits <= 16);
  RadixPlan plan;
  plan.bits = bits;
  plan.passes = (32 + bits - 1) / bits;
  plan.mask = (1u << bits) - 1u;
  plan.buckets = 1u << bits;
  return plan;
}

uint32_t RadixPlan::DigitLsd(uint32_t key, int pass) const {
  return (key >> (bits * pass)) & mask;
}

ScratchArrays::ScratchArrays(SortSpec& spec, size_t n)
    : has_ids_(spec.ids != nullptr),
      keys_(spec.alloc_key_buffer(n)),
      ids_(has_ids_ ? spec.alloc_id_buffer(n)
                    : approx::ApproxArrayU32(0, nullptr, Rng(0))) {}

StripeShards::StripeShards(const KeyIdArrays& arrays, size_t stripes)
    : arrays(arrays), keys(arrays.keys->MakeShards(stripes)) {
  if (arrays.ids != nullptr) ids = arrays.ids->MakeShards(stripes);
}

void StripeShards::Merge() {
  arrays.keys->MergeShards(keys);
  if (arrays.ids != nullptr) arrays.ids->MergeShards(ids);
}

StripedPass::StripedPass(const RadixPlan& plan, const KeyIdArrays& a,
                         const KeyIdArrays& b, ThreadPool* pool)
    : plan_(plan),
      stripes_(StripePlan::ForN(a.keys->size())),
      pool_(pool),
      with_ids_(a.ids != nullptr),
      stash_keys_(stripes_.n),
      stash_ids_(with_ids_ ? stripes_.n : 0),
      hist_(stripes_.count * plan.buckets),
      window_(stripes_.count * plan.buckets) {
  concurrent_ = pool != nullptr && pool->thread_count() > 1 &&
                stripes_.count > 1;
  for (const KeyIdArrays& arrays : {a, b}) {
    concurrent_ = concurrent_ && arrays.keys->ConcurrentShardSafe() &&
                  (arrays.ids == nullptr || arrays.ids->ConcurrentShardSafe());
  }
}

template <typename Fn>
void StripedPass::ForEachStripe(const Fn& fn) {
  if (concurrent_) {
    pool_->ParallelFor(0, stripes_.count, fn);
  } else {
    for (size_t s = 0; s < stripes_.count; ++s) fn(s);
  }
}

void StripedPass::Scatter(StripeShards& src, StripeShards& dst, int shift) {
  const uint32_t buckets = plan_.buckets;
  const uint32_t mask = plan_.mask;
  const size_t count = stripes_.count;
  std::fill(hist_.begin(), hist_.end(), 0);

  ForEachStripe([&](size_t s) {
    size_t* h = hist_.data() + s * buckets;
    for (size_t i = stripes_.Begin(s), end = stripes_.End(s); i < end; ++i) {
      const uint32_t key = src.keys[s].Get(i);
      stash_keys_[i] = key;
      if (with_ids_) stash_ids_[i] = src.ids[s].Get(i);
      ++h[(key >> shift) & mask];
    }
  });

  size_t total = 0;
  for (uint32_t b = 0; b < buckets; ++b) {
    for (size_t s = 0; s < count; ++s) {
      window_[b * count + s] = total;
      total += hist_[s * buckets + b];
    }
  }
  APPROXMEM_CHECK(total == stripes_.n);

  ForEachStripe([&](size_t s) {
    std::vector<size_t> cursor(buckets);
    for (uint32_t b = 0; b < buckets; ++b) cursor[b] = window_[b * count + s];
    for (size_t i = stripes_.Begin(s), end = stripes_.End(s); i < end; ++i) {
      const size_t pos = cursor[(stash_keys_[i] >> shift) & mask]++;
      dst.keys[s].Set(pos, stash_keys_[i]);
      if (with_ids_) dst.ids[s].Set(pos, stash_ids_[i]);
    }
  });
}

void StripedPass::Copy(StripeShards& src, StripeShards& dst) {
  ForEachStripe([&](size_t s) {
    constexpr size_t kBlock = 64;
    uint32_t buf[kBlock];
    for (size_t i = stripes_.Begin(s), end = stripes_.End(s); i < end;) {
      const size_t m = std::min(kBlock, end - i);
      src.keys[s].GetRange(i, buf, m);
      dst.keys[s].SetRange(i, buf, m);
      if (with_ids_) {
        src.ids[s].GetRange(i, buf, m);
        dst.ids[s].SetRange(i, buf, m);
      }
      i += m;
    }
  });
}

BucketQueues::BucketQueues(uint32_t num_buckets,
                           approx::ApproxArrayU32* key_arena,
                           approx::ApproxArrayU32* id_arena, size_t arena_base)
    : key_arena_(key_arena),
      id_arena_(id_arena),
      arena_base_(arena_base),
      next_(arena_base),
      positions_(num_buckets) {
  APPROXMEM_CHECK(key_arena != nullptr);
}

void BucketQueues::Push(uint32_t bucket, uint32_t key, uint32_t id) {
  APPROXMEM_CHECK(bucket < positions_.size());
  APPROXMEM_CHECK(next_ < key_arena_->size());
  key_arena_->Set(next_, key);
  if (id_arena_ != nullptr) id_arena_->Set(next_, id);
  positions_[bucket].push_back(static_cast<uint32_t>(next_));
  ++next_;
}

size_t BucketQueues::DrainTo(approx::ApproxArrayU32& keys,
                             approx::ApproxArrayU32* ids, size_t out_base) {
  size_t out = out_base;
  for (const auto& bucket : positions_) {
    for (const uint32_t pos : bucket) {
      keys.Set(out, key_arena_->Get(pos));
      if (ids != nullptr && id_arena_ != nullptr) {
        ids->Set(out, id_arena_->Get(pos));
      }
      ++out;
    }
  }
  return out - out_base;
}

void BucketQueues::Reset() {
  for (auto& bucket : positions_) bucket.clear();
  next_ = arena_base_;
}

}  // namespace approxmem::sort
