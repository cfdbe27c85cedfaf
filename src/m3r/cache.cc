#include "m3r/cache.h"

#include "api/extensions.h"
#include "api/knobs.h"
#include "common/crc32c.h"
#include "common/path.h"
#include "serialize/io.h"

namespace m3r::engine {

void Cache::SetIntegrity(std::shared_ptr<IntegrityContext> integrity) {
  std::lock_guard<std::mutex> lock(integrity_mu_);
  integrity_ = std::move(integrity);
}

std::shared_ptr<IntegrityContext> Cache::integrity_snapshot() {
  std::lock_guard<std::mutex> lock(integrity_mu_);
  return integrity_;
}

uint32_t Cache::ContentCrc(const kvstore::KVSeq& pairs,
                           uint64_t* serialized_bytes) {
  serialize::DataOutput out;
  uint32_t crc = 0;
  uint64_t total = 0;
  for (const auto& [k, v] : pairs) {
    out.Clear();
    k->Write(out);
    v->Write(out);
    crc = crc32c::Extend(crc, out.buffer().data(), out.buffer().size());
    total += out.buffer().size();
  }
  if (serialized_bytes != nullptr) *serialized_bytes = total;
  return crc;
}

Status Cache::PutBlock(const std::string& path, const std::string& block_name,
                       int place, kvstore::KVSeq pairs, uint64_t bytes,
                       double fill_seconds, bool droppable, bool whole_file) {
  memgov::CacheManager* mgr = manager();
  // Bracket the whole admit→publish window: while the fill is open the
  // file's epoch is unsealed and the evictor cannot claim it, so a
  // partially published file never becomes a victim mid-fill (not even of
  // this fill's own synchronous EvictUntilFits).
  if (mgr != nullptr) mgr->BeginFill(path);
  struct FillGuard {
    memgov::CacheManager* mgr;
    const std::string& path;
    ~FillGuard() {
      if (mgr != nullptr) mgr->EndFill(path);
    }
  } fill_guard{mgr, path};
  if (mgr != nullptr && !mgr->AdmitFill(path, bytes, /*required=*/!droppable)) {
    // Rejected: the block stays out of L1 and a future job re-reads it
    // from the DFS. Only droppable fills land here. A tiered engine's
    // overflow sink may still capture the block into its L2 home shard
    // (DESIGN.md §16.2) — best effort, failures change nothing.
    OverflowSink sink;
    {
      std::lock_guard<std::mutex> lock(overflow_mu_);
      sink = overflow_sink_;
    }
    if (sink) sink(path, block_name, place, pairs, bytes, whole_file);
    return Status::OK();
  }
  kvstore::BlockInfo info;
  info.name = block_name;
  info.place = place;
  info.bytes = bytes;
  info.whole_file = whole_file;
  auto ctx = integrity_snapshot();
  if (ctx != nullptr && ctx->enabled()) {
    uint64_t stamped_bytes = 0;
    info.crc = ContentCrc(pairs, &stamped_bytes);
    info.has_crc = true;
    ctx->counters->bytes_checksummed.fetch_add(
        static_cast<int64_t>(stamped_bytes), std::memory_order_relaxed);
  }
  M3R_ASSIGN_OR_RETURN(std::unique_ptr<kvstore::KVStore::Writer> writer,
                       store_.CreateWriter(path, std::move(info)));
  writer->AppendSeq(pairs);
  M3R_RETURN_NOT_OK(writer->Close());
  if (mgr != nullptr) mgr->OnFill(path, bytes, fill_seconds);
  return Status::OK();
}

Status Cache::CheckBlock(const std::string& path, const Block& block) {
  auto ctx = integrity_snapshot();
  if (ctx == nullptr || !ctx->enabled() || !block.info.has_crc) {
    return Status::OK();
  }
  const std::string key = path + "#" + block.info.name;
  // Serialize the served copy, apply any injected bit flip to it, and
  // verify the fill-time fingerprint — corruption hits the bytes a reader
  // would consume, not a Status channel.
  serialize::DataOutput out;
  for (const auto& [k, v] : *block.pairs) {
    k->Write(out);
    v->Write(out);
  }
  std::string bytes = out.Take();
  ctx->counters->bytes_checksummed.fetch_add(
      static_cast<int64_t>(bytes.size()), std::memory_order_relaxed);
  if (ctx->fault != nullptr) {
    ctx->fault->MaybeCorrupt(kCorruptCacheBlock, key, &bytes);
  }
  if (crc32c::Crc32c(bytes) == block.info.crc) return Status::OK();
  ctx->counters->detected.fetch_add(1, std::memory_order_relaxed);
  if (ctx->repair()) {
    // Re-read the stored pairs — the cache's own copy is the surviving
    // source for a transient bad serve. (A recompute that *still*
    // mismatches means the cached objects themselves changed since fill,
    // e.g. a mutated ImmutableOutput promise; that copy is unusable.)
    uint64_t reread_bytes = 0;
    uint32_t recomputed = ContentCrc(*block.pairs, &reread_bytes);
    ctx->counters->bytes_checksummed.fetch_add(
        static_cast<int64_t>(reread_bytes), std::memory_order_relaxed);
    if (recomputed == block.info.crc) {
      ctx->counters->repaired.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
  }
  // No intact copy (or detect mode): evict the whole cached path so the
  // bad copy can never be served again. Job-level retry re-reads the
  // backing file from the DFS.
  (void)store_.DeleteRecursive(path);
  if (memgov::CacheManager* mgr = manager()) mgr->OnDelete(path);
  return Status::DataLoss("cache block checksum mismatch: " + key);
}

memgov::CacheManager::ReadLease Cache::LeaseRead(const std::string& path) {
  if (memgov::CacheManager* mgr = manager()) return mgr->AcquireRead(path);
  return memgov::CacheManager::ReadLease();
}

std::optional<Cache::Block> Cache::GetBlock(const std::string& path,
                                            const std::string& block_name) {
  // Lease before touching the store: an in-flight eviction of `path` is
  // waited out, so the read sees either the whole file or a clean miss —
  // never a half-deleted one.
  memgov::CacheManager::ReadLease lease = LeaseRead(path);
  auto info_or = store_.GetInfo(path);
  if (!info_or.ok()) return std::nullopt;
  for (const kvstore::BlockInfo& bi : info_or->blocks) {
    if (bi.name == block_name) {
      auto seq_or = store_.CreateReader(path, bi);
      if (!seq_or.ok()) return std::nullopt;
      Block b;
      b.info = bi;
      b.pairs = seq_or.take();
      b.bytes = bi.bytes;
      if (memgov::CacheManager* mgr = manager()) mgr->OnAccess(path);
      return b;
    }
  }
  return std::nullopt;
}

Result<std::vector<Cache::Block>> Cache::GetFileBlocks(
    const std::string& path) {
  memgov::CacheManager::ReadLease lease = LeaseRead(path);
  M3R_ASSIGN_OR_RETURN(auto blocks, store_.ReadAll(path));
  std::vector<Block> out;
  for (auto& [info, seq] : blocks) {
    Block b;
    b.info = info;
    b.pairs = std::move(seq);
    b.bytes = info.bytes;
    out.push_back(std::move(b));
  }
  if (!out.empty()) {
    if (memgov::CacheManager* mgr = manager()) mgr->OnAccess(path);
  }
  return out;
}

Status Cache::Delete(const std::string& path) {
  Status s = store_.DeleteRecursive(path);
  if (s.ok()) {
    ForgetManifests(path);
    if (memgov::CacheManager* mgr = manager()) mgr->OnDelete(path);
  }
  return s;
}

Status Cache::Evict(const std::string& path) {
  Status s = store_.DeleteRecursive(path);
  if (s.ok()) {
    if (memgov::CacheManager* mgr = manager()) mgr->OnDelete(path);
  }
  return s;
}

Status Cache::Rename(const std::string& src, const std::string& dst) {
  Status s = store_.Rename(src, dst);
  if (s.ok()) {
    ForgetManifests(src);
    ForgetManifests(dst);
    if (memgov::CacheManager* mgr = manager()) mgr->OnRename(src, dst);
  }
  return s;
}

bool Cache::ContainsFile(const std::string& path) {
  auto info_or = store_.GetInfo(path);
  return info_or.ok() && !info_or->is_directory && !info_or->blocks.empty();
}

uint64_t Cache::FileBytes(const std::string& path) {
  auto info_or = store_.GetInfo(path);
  if (!info_or.ok()) return 0;
  uint64_t total = 0;
  for (const auto& bi : info_or->blocks) total += bi.bytes;
  return total;
}

std::vector<std::string> Cache::FilesUnder(const std::string& dir) {
  auto list_or = store_.List(dir);
  std::vector<std::string> out;
  if (!list_or.ok()) return out;
  for (const auto& info : *list_or) {
    if (!info.is_directory && !info.blocks.empty()) out.push_back(info.path);
  }
  return out;
}

void Cache::RecordManifest(const std::string& dir) {
  std::map<std::string, uint64_t> files;
  for (const std::string& f : FilesUnder(dir)) files[f] = FileBytes(f);
  std::lock_guard<std::mutex> lock(manifest_mu_);
  if (files.empty()) {
    manifests_.erase(dir);
  } else {
    manifests_[dir] = std::move(files);
  }
}

std::vector<std::string> Cache::ManifestMissing(const std::string& dir) {
  std::map<std::string, uint64_t> recorded;
  {
    std::lock_guard<std::mutex> lock(manifest_mu_);
    auto it = manifests_.find(dir);
    if (it == manifests_.end()) return {};
    recorded = it->second;
  }
  std::vector<std::string> missing;
  for (const auto& [file, bytes] : recorded) {
    uint64_t have = FileBytes(file);
    if (have < bytes) {
      missing.push_back(file + " (have " + std::to_string(have) + " of " +
                        std::to_string(bytes) + " bytes)");
    }
  }
  return missing;
}

void Cache::ForgetManifests(const std::string& path) {
  std::lock_guard<std::mutex> lock(manifest_mu_);
  for (auto it = manifests_.begin(); it != manifests_.end();) {
    if (it->first == path || path::IsUnder(it->first, path)) {
      it = manifests_.erase(it);
      continue;
    }
    it->second.erase(path);
    ++it;
  }
}

uint64_t Cache::TotalBytes() {
  uint64_t total = 0;
  auto walk = [&](auto&& self, const std::string& dir) -> void {
    auto list = store_.List(dir);
    if (!list.ok()) return;
    for (const auto& info : *list) {
      if (info.is_directory) {
        self(self, info.path);
      } else {
        for (const auto& bi : info.blocks) total += bi.bytes;
      }
    }
  };
  walk(walk, "/");
  return total;
}

std::optional<std::string> Cache::NameForSplit(const api::InputSplit& split) {
  if (const auto* named = dynamic_cast<const api::NamedSplit*>(&split)) {
    return named->GetName();
  }
  if (const auto* delegating =
          dynamic_cast<const api::DelegatingSplit*>(&split)) {
    return NameForSplit(delegating->GetBaseSplit());
  }
  if (const auto* file = dynamic_cast<const api::FileSplit*>(&split)) {
    return path::Canonicalize(file->Path());
  }
  return std::nullopt;
}

std::string Cache::BlockNameForSplit(const api::InputSplit& split) {
  if (const auto* delegating =
          dynamic_cast<const api::DelegatingSplit*>(&split)) {
    return BlockNameForSplit(delegating->GetBaseSplit());
  }
  if (const auto* file = dynamic_cast<const api::FileSplit*>(&split)) {
    return std::to_string(file->Start());
  }
  return "0";
}

bool Cache::IsTemporary(const api::JobConf& conf,
                        const std::string& output_path) {
  std::string canonical = path::Canonicalize(output_path);
  std::string base = path::BaseName(canonical);
  std::string prefix = api::knobs::String(conf, api::conf::kTempPrefix);
  if (!prefix.empty() && base.compare(0, prefix.size(), prefix) == 0) {
    return true;
  }
  for (const std::string& p : api::knobs::List(conf, api::conf::kTempPaths)) {
    if (path::Canonicalize(p) == canonical) return true;
  }
  return false;
}

}  // namespace m3r::engine
