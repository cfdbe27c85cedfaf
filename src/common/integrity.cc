#include "common/integrity.h"

#include "common/crc32c.h"

namespace m3r {

const char* IntegrityModeName(IntegrityMode mode) {
  switch (mode) {
    case IntegrityMode::kOff:
      return "off";
    case IntegrityMode::kDetect:
      return "detect";
    case IntegrityMode::kRepair:
      return "repair";
  }
  return "off";
}

std::shared_ptr<IntegrityContext> IntegrityContext::ForJob(
    IntegrityMode mode, std::shared_ptr<FaultInjector> fault) {
  // A context is also needed with the mode off when corrupt.* sites are
  // armed: the bit flips must still be applied (and escape) so that
  // mode=off honestly reproduces the unprotected behavior.
  bool corrupt_armed = false;
  if (fault != nullptr) {
    for (const char* site : {kCorruptDfsBlock, kCorruptChannelFrame,
                             kCorruptCacheBlock, kCorruptSpill}) {
      corrupt_armed = corrupt_armed || fault->SiteArmed(site);
    }
  }
  if (mode == IntegrityMode::kOff && !corrupt_armed) return nullptr;
  auto ctx = std::make_shared<IntegrityContext>();
  ctx->mode = mode;
  ctx->fault = std::move(fault);
  return ctx;
}

uint32_t StampCrc(const IntegrityContext* ctx, const std::string& payload) {
  if (ctx == nullptr || !ctx->enabled()) return 0;
  ctx->counters->bytes_checksummed.fetch_add(
      static_cast<int64_t>(payload.size()), std::memory_order_relaxed);
  return crc32c::Crc32c(payload);
}

Status ReceiveChecked(const IntegrityContext* ctx, const std::string& site,
                      const std::string& key, uint32_t crc,
                      const std::string& payload, std::string* scratch,
                      const std::string** served) {
  *served = &payload;
  if (ctx == nullptr) return Status::OK();
  if (ctx->fault != nullptr &&
      ctx->fault->MaybeCorruptCopy(site, key, payload, scratch)) {
    *served = scratch;
  }
  if (!ctx->enabled()) return Status::OK();  // corruption (if any) escapes
  ctx->counters->bytes_checksummed.fetch_add(
      static_cast<int64_t>((*served)->size()), std::memory_order_relaxed);
  if (crc32c::Crc32c(**served) == crc) return Status::OK();
  ctx->counters->detected.fetch_add(1, std::memory_order_relaxed);
  if (ctx->repair()) {
    // Re-fetch from the producer, whose in-memory copy is the surviving
    // replica (a re-read of the mapper's disk / the sender's buffer).
    *served = &payload;
    ctx->counters->repaired.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  return Status::DataLoss("checksum mismatch at " + site + " [" + key + "]");
}

}  // namespace m3r
