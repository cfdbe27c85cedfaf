#ifndef M3R_COMMON_INTEGRITY_H_
#define M3R_COMMON_INTEGRITY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/fault_injector.h"
#include "common/status.h"

namespace m3r {

/// End-to-end integrity policy, from `m3r.integrity.mode`:
///  - kOff:    no checksums computed or verified; injected corruption
///             escapes silently (the pre-integrity behavior).
///  - kDetect: every boundary verifies; a mismatch surfaces as
///             Status::DataLoss and nothing wrong is ever committed.
///  - kRepair: like detect, but each boundary first retries its surviving
///             source (another DFS replica, the sender's frame buffer, the
///             file under the cache, the mapper's spill) and only surfaces
///             DataLoss when no intact copy exists.
enum class IntegrityMode { kOff, kDetect, kRepair };

const char* IntegrityModeName(IntegrityMode mode);

/// Per-job tallies of integrity work. `bytes_checksummed` feeds the sim
/// cost model (checksumming is CPU the real system would burn); detected /
/// repaired are surfaced as job metrics.
struct IntegrityCounters {
  std::atomic<int64_t> detected{0};
  std::atomic<int64_t> repaired{0};
  std::atomic<int64_t> bytes_checksummed{0};
};

/// Per-job integrity context, installed on the boundary layers (DFS,
/// cache, shuffle, task runners) for the duration of a submission the same
/// way a FaultInjector is. `fault` carries the corrupt.* sites; it may be
/// null (verification without injection) and `counters` is always non-null
/// once constructed.
struct IntegrityContext {
  IntegrityMode mode = IntegrityMode::kOff;
  std::shared_ptr<IntegrityCounters> counters =
      std::make_shared<IntegrityCounters>();
  std::shared_ptr<FaultInjector> fault;

  bool enabled() const { return mode != IntegrityMode::kOff; }
  bool repair() const { return mode == IntegrityMode::kRepair; }

  /// The job's context for `mode` (the `m3r.integrity.mode` knob), sharing
  /// the job's fault injector. Null when the mode is off and `fault` arms
  /// no corrupt.* site, so the common case stays free.
  static std::shared_ptr<IntegrityContext> ForJob(
      IntegrityMode mode, std::shared_ptr<FaultInjector> fault);
};

/// Producer-side stamp: Crc32c of `payload`, with the bytes charged to
/// `ctx`'s counters. Returns 0 without computing when `ctx` is off —
/// paired consumers skip verification then too, so the sentinel is never
/// compared.
uint32_t StampCrc(const IntegrityContext* ctx, const std::string& payload);

/// Consumer side of one checksummed hop of an in-memory payload (shuffle
/// frame, spill segment, checkpoint wire). The producer stamped `crc`;
/// the corruption site may flip a seeded bit in the received copy (built
/// in `*scratch`; no copy is made unless the site fires). On OK return
/// `*served` points at the bytes to decode:
///  - the pristine payload (nothing fired, or mode off with no hit);
///  - the corrupted scratch copy (mode off: corruption escapes);
///  - the pristine payload after a counted repair (mode repair: the
///    producer's in-memory copy is the surviving replica a re-fetch
///    would return).
/// Mode detect returns DataLoss on mismatch. Verification happens before
/// any decode, so corrupted bytes never reach DataInput.
Status ReceiveChecked(const IntegrityContext* ctx, const std::string& site,
                      const std::string& key, uint32_t crc,
                      const std::string& payload, std::string* scratch,
                      const std::string** served);

/// Names of the corruption injection sites (configured through the usual
/// m3r.fault.<site>.{prob,nth,limit} keys).
inline constexpr char kCorruptDfsBlock[] = "corrupt.dfs.block";
inline constexpr char kCorruptChannelFrame[] = "corrupt.channel.frame";
inline constexpr char kCorruptCacheBlock[] = "corrupt.cache.block";
inline constexpr char kCorruptSpill[] = "corrupt.spill";

}  // namespace m3r

#endif  // M3R_COMMON_INTEGRITY_H_
