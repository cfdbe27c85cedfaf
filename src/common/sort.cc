#include "common/sort.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/logging.h"

namespace m3r::sortkit {

namespace {

/// One sort element: the cached key prefix plus the key's input index. The
/// index both addresses the full key for tie-breaks and makes every
/// comparator a total order (stability by construction).
struct Entry {
  uint64_t prefix;
  uint32_t index;
};

struct BytesLess {
  const std::string_view* keys;

  bool operator()(const Entry& a, const Entry& b) const {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    const std::string_view ka = keys[a.index];
    const std::string_view kb = keys[b.index];
    // Equal prefixes mean the first min(8, size) bytes already matched, so
    // the tie-break can skip them; keys that both fit in the prefix are
    // decided entirely by length (then input order).
    if (ka.size() > 8 && kb.size() > 8) {
      const size_t n = (ka.size() < kb.size() ? ka.size() : kb.size()) - 8;
      const int c = std::memcmp(ka.data() + 8, kb.data() + 8, n);
      if (c != 0) return c < 0;
    }
    if (ka.size() != kb.size()) return ka.size() < kb.size();
    return a.index < b.index;
  }
};

struct CustomLess {
  const std::string_view* keys;
  const RawCompareFn* cmp;

  bool operator()(const Entry& a, const Entry& b) const {
    const int c = (*cmp)(keys[a.index], keys[b.index]);
    if (c != 0) return c < 0;
    return a.index < b.index;
  }
};

template <typename Less>
std::vector<uint32_t> SortEntries(std::vector<Entry> entries,
                                  const Less& less,
                                  const SortOptions& options,
                                  SortStats* stats) {
  const size_t n = entries.size();
  const bool parallel = options.executor != nullptr &&
                        options.max_workers > 1 &&
                        n >= options.parallel_threshold && n >= 2;
  if (!parallel) {
    std::sort(entries.begin(), entries.end(), less);
  } else {
    // Split into contiguous runs, sort them in parallel, then merge with
    // pairwise passes. Runs cover contiguous index ranges, so the
    // index-tagged comparator keeps the merged result globally stable.
    size_t runs = std::min<size_t>(static_cast<size_t>(options.max_workers),
                                   std::min<size_t>(n / 2, 64));
    runs = std::max<size_t>(runs, 2);
    stats->parallel_runs = runs;
    std::vector<size_t> bounds(runs + 1);
    for (size_t r = 0; r <= runs; ++r) bounds[r] = n * r / runs;

    options.executor->ParallelFor(
        runs,
        [&](size_t r) {
          std::sort(entries.begin() + static_cast<ptrdiff_t>(bounds[r]),
                    entries.begin() + static_cast<ptrdiff_t>(bounds[r + 1]),
                    less);
        },
        options.max_workers);

    std::vector<Entry> scratch(n);
    std::vector<Entry>* src = &entries;
    std::vector<Entry>* dst = &scratch;
    while (bounds.size() > 2) {
      const size_t pairs = (bounds.size() - 1) / 2;
      auto merge_pair = [&](size_t j) {
        const size_t lo = bounds[2 * j];
        const size_t mid = bounds[2 * j + 1];
        const size_t hi = bounds[2 * j + 2];
        std::merge(src->begin() + static_cast<ptrdiff_t>(lo),
                   src->begin() + static_cast<ptrdiff_t>(mid),
                   src->begin() + static_cast<ptrdiff_t>(mid),
                   src->begin() + static_cast<ptrdiff_t>(hi),
                   dst->begin() + static_cast<ptrdiff_t>(lo), less);
      };
      if (pairs > 1) {
        options.executor->ParallelFor(pairs, merge_pair,
                                      options.max_workers);
      } else {
        merge_pair(0);
      }
      // An odd trailing run has no partner this pass; carry it over.
      if ((bounds.size() - 1) % 2 != 0) {
        std::copy(src->begin() + static_cast<ptrdiff_t>(bounds[bounds.size() - 2]),
                  src->begin() + static_cast<ptrdiff_t>(bounds.back()),
                  dst->begin() + static_cast<ptrdiff_t>(bounds[bounds.size() - 2]));
      }
      std::vector<size_t> next;
      next.reserve(pairs + 2);
      for (size_t b = 0; b < bounds.size(); b += 2) next.push_back(bounds[b]);
      if (next.back() != n) next.push_back(n);
      bounds = std::move(next);
      std::swap(src, dst);
    }
    if (src != &entries) entries = std::move(*src);
  }

  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = entries[i].index;
  return perm;
}

}  // namespace

std::vector<uint32_t> StableSortPermutation(
    const std::vector<std::string_view>& keys, const SortOptions& options,
    SortStats* stats) {
  SortStats local;
  const size_t n = keys.size();
  M3R_CHECK(n <= std::numeric_limits<uint32_t>::max())
      << "too many keys for one sort: " << n;

  const bool bytes_order = options.comparator == nullptr;
  local.used_prefix = bytes_order;
  std::vector<Entry> entries(n);
  if (bytes_order) {
    for (size_t i = 0; i < n; ++i) {
      entries[i] = Entry{KeyPrefix(keys[i]), static_cast<uint32_t>(i)};
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      entries[i] = Entry{0, static_cast<uint32_t>(i)};
    }
  }

  std::vector<uint32_t> perm;
  if (bytes_order) {
    perm = SortEntries(std::move(entries), BytesLess{keys.data()}, options,
                       &local);
  } else {
    perm = SortEntries(std::move(entries),
                       CustomLess{keys.data(), options.comparator}, options,
                       &local);
  }
  if (stats != nullptr) *stats = local;
  return perm;
}

bool RunMerger::Greater(const Head& a, const Head& b) const {
  if (comparator_ == nullptr) {
    // Equal prefixes mean the first min(8, size) bytes matched, so the
    // byte tie-break can skip straight to offset 8; shorter keys are
    // fully consumed by the prefix and length alone decides.
    if (a.prefix != b.prefix) return a.prefix > b.prefix;
    if (a.key.size() > 8 && b.key.size() > 8) {
      const size_t n =
          (a.key.size() < b.key.size() ? a.key.size() : b.key.size()) - 8;
      const int c = std::memcmp(a.key.data() + 8, b.key.data() + 8, n);
      if (c != 0) return c > 0;
    }
    if (a.key.size() != b.key.size()) return a.key.size() > b.key.size();
  } else {
    const int c = (*comparator_)(a.key, b.key);
    if (c != 0) return c > 0;
  }
  if (a.ordinal != b.ordinal) return a.ordinal > b.ordinal;
  return a.run > b.run;  // total order even under duplicate ordinals
}

void RunMerger::Push(Head h) {
  heap_.push_back(h);
  std::push_heap(heap_.begin(), heap_.end(),
                 [this](const Head& a, const Head& b) { return Greater(a, b); });
}

void RunMerger::Refill(size_t run) {
  Head h;
  h.run = run;
  h.ordinal = ordinals_[run];
  if (!cursors_[run](&h.key, &h.value)) return;
  h.prefix = comparator_ == nullptr ? KeyPrefix(h.key) : 0;
  Push(h);
}

void RunMerger::AddRun(RunCursor next, uint64_t ordinal) {
  cursors_.push_back(std::move(next));
  ordinals_.push_back(ordinal);
  Refill(cursors_.size() - 1);
}

bool RunMerger::Next(std::string_view* key, std::string_view* value,
                     uint64_t* run_ordinal) {
  if (pending_ != kNone) {
    const size_t run = pending_;
    pending_ = kNone;
    Refill(run);
  }
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(),
                [this](const Head& a, const Head& b) { return Greater(a, b); });
  const Head h = heap_.back();
  heap_.pop_back();
  *key = h.key;
  *value = h.value;
  if (run_ordinal != nullptr) *run_ordinal = h.ordinal;
  pending_ = h.run;
  ++records_;
  return true;
}

}  // namespace m3r::sortkit
