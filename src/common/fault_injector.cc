#include "common/fault_injector.h"

namespace m3r {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashString(const std::string& s) {
  // FNV-1a, folded through SplitMix64 for avalanche.
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return SplitMix64(h);
}

// Flips one bit of `data`, chosen as a pure function of (seed, site, key)
// from a stream independent of the fire/no-fire coin (extra SplitMix64
// round with a different additive constant).
void FlipSeededBit(uint64_t seed, const std::string& site,
                   const std::string& key, std::string* data) {
  uint64_t h = SplitMix64(
      SplitMix64(seed ^ HashString(site) ^
                 (HashString(key) * 0x9e3779b97f4a7c15ULL)) +
      0xd1b54a32d192ed03ULL);
  size_t bit = static_cast<size_t>(h % (data->size() * 8));
  (*data)[bit / 8] ^= static_cast<char>(1u << (bit % 8));
}

}  // namespace

void FaultInjector::Configure(const std::string& site, SiteConfig config) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_[site].config = config;
}

bool FaultInjector::Armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !sites_.empty();
}

bool FaultInjector::ShouldFail(const std::string& site,
                               const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return false;
  SiteState& state = it->second;
  ++state.evaluations;
  if (state.config.limit >= 0 && state.injected >= state.config.limit) {
    return false;
  }
  bool fire = false;
  if (state.config.nth > 0 && state.evaluations == state.config.nth) {
    fire = true;
  }
  if (!fire && state.config.probability > 0) {
    // Keyed deterministic coin: independent of evaluation order, so
    // concurrent task attempts always draw the same verdict.
    uint64_t h = SplitMix64(seed_ ^ HashString(site) ^
                            (HashString(key) * 0x9e3779b97f4a7c15ULL));
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    fire = u < state.config.probability;
  }
  if (fire) ++state.injected;
  return fire;
}

Status FaultInjector::Check(const std::string& site, const std::string& key) {
  if (!ShouldFail(site, key)) return Status::OK();
  return Status::Unavailable("injected fault at " + site + " [" + key + "]");
}

bool FaultInjector::MaybeCorrupt(const std::string& site,
                                 const std::string& key, std::string* data) {
  if (data == nullptr || data->empty()) return false;
  if (!ShouldFail(site, key)) return false;
  FlipSeededBit(seed_, site, key, data);
  return true;
}

bool FaultInjector::MaybeCorruptCopy(const std::string& site,
                                     const std::string& key,
                                     std::string_view in, std::string* out) {
  if (in.empty()) return false;
  if (!ShouldFail(site, key)) return false;
  out->assign(in.data(), in.size());
  FlipSeededBit(seed_, site, key, out);
  return true;
}

bool FaultInjector::SiteArmed(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sites_.count(site) > 0;
}

int64_t FaultInjector::InjectedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [site, state] : sites_) total += state.injected;
  return total;
}

int64_t FaultInjector::InjectedCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.injected;
}

std::shared_ptr<FaultInjector> FaultInjector::FromSites(
    uint64_t seed, const std::map<std::string, SiteConfig>& sites) {
  if (sites.empty()) return nullptr;
  auto injector = std::make_shared<FaultInjector>(seed);
  for (const auto& [site, config] : sites) injector->Configure(site, config);
  return injector;
}

}  // namespace m3r
