#ifndef M3R_COMMON_SORT_H_
#define M3R_COMMON_SORT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/executor.h"

namespace m3r::sortkit {

/// First 8 key bytes packed big-endian into one integer, zero-padded on the
/// right. Because the padding byte (0x00) is the minimum byte value, strict
/// inequality of two prefixes implies the same strict lexicographic order
/// of the full keys; only *equal* prefixes need a byte-level tie-break.
inline uint64_t KeyPrefix(std::string_view key) {
  uint64_t p = 0;
  const size_t n = key.size() < 8 ? key.size() : 8;
  for (size_t i = 0; i < n; ++i) {
    p |= static_cast<uint64_t>(static_cast<uint8_t>(key[i]))
         << (56 - 8 * static_cast<int>(i));
  }
  return p;
}

/// Full comparison callback for jobs that override the byte-order default
/// (returns <0/0/>0 like RawComparator::Compare).
using RawCompareFn = std::function<int(std::string_view, std::string_view)>;

/// Below this many keys the executor-parallel path is never taken; sorting
/// runs and merging them only pays off once there is real work per strand.
inline constexpr size_t kDefaultParallelThreshold = size_t{1} << 15;

struct SortOptions {
  /// Non-null only when the job overrides the default byte order: every
  /// comparison then goes through this callback (the prefix cache cannot
  /// stand in for an arbitrary comparator). Null selects the branch-light
  /// prefix/memcmp path.
  const RawCompareFn* comparator = nullptr;
  /// Executor for the parallel path; null forces the serial path.
  Executor* executor = nullptr;
  /// Strand cap for the parallel path (<=1 forces the serial path).
  int max_workers = 1;
  size_t parallel_threshold = kDefaultParallelThreshold;
};

/// How one sort ran.
struct SortStats {
  /// Sorted runs used by the parallel path (1 = serial).
  size_t parallel_runs = 1;
  /// False when the virtual-comparator fallback was taken.
  bool used_prefix = false;
};

/// Returns the stable ascending order of `keys` as an index permutation:
/// perm[i] is the position in `keys` of the i-th smallest key, with equal
/// keys kept in input order. Stability costs nothing extra here: every
/// comparison tie-breaks on the index tag, which yields a total order and
/// lets both the serial path and the contiguous parallel runs use plain
/// std::sort instead of std::stable_sort.
std::vector<uint32_t> StableSortPermutation(
    const std::vector<std::string_view>& keys, const SortOptions& options,
    SortStats* stats = nullptr);

/// One source of a k-way merge: yields (key, value) records in
/// non-descending key order, returning false once exhausted. The views a
/// cursor yields must stay valid until the cursor is advanced again (the
/// merger never advances a cursor while its previous record is still
/// outstanding).
using RunCursor =
    std::function<bool(std::string_view* key, std::string_view* value)>;

/// Incremental k-way merge over independently sorted runs — the heap the
/// Hadoop spill/merge path and the pipelined shuffle share. Runs can be
/// added at any time before the first record they should contribute is
/// popped; `ordinal` is the stability tie-break: among equal keys, records
/// from lower-ordinal runs drain first and records within one run keep
/// their order, so callers encode emission order into ordinals to
/// reproduce a stable sort's output exactly.
class RunMerger {
 public:
  /// Null comparator selects the branch-light prefix/memcmp byte order;
  /// non-null routes every comparison through the callback (which must
  /// outlive the merger).
  explicit RunMerger(const RawCompareFn* comparator = nullptr)
      : comparator_(comparator) {}

  void AddRun(RunCursor next, uint64_t ordinal);

  /// Pops the globally smallest record. The returned views stay valid until
  /// the next call to Next(). `run_ordinal` (optional) reports which run
  /// the record came from.
  bool Next(std::string_view* key, std::string_view* value,
            uint64_t* run_ordinal = nullptr);

  size_t runs() const { return cursors_.size(); }
  /// Records popped so far.
  uint64_t records() const { return records_; }

 private:
  struct Head {
    uint64_t prefix;  // big-endian first 8 key bytes; 0 under custom orders
    std::string_view key;
    std::string_view value;
    uint64_t ordinal;
    size_t run;
  };
  bool Greater(const Head& a, const Head& b) const;
  void Push(Head h);
  void Refill(size_t run);

  static constexpr size_t kNone = static_cast<size_t>(-1);
  const RawCompareFn* comparator_;
  std::vector<RunCursor> cursors_;
  std::vector<uint64_t> ordinals_;
  std::vector<Head> heap_;
  /// Run whose popped record is still outstanding; advanced lazily on the
  /// next Next() so yielded views are never invalidated under the caller.
  size_t pending_ = kNone;
  uint64_t records_ = 0;
};

}  // namespace m3r::sortkit

#endif  // M3R_COMMON_SORT_H_
