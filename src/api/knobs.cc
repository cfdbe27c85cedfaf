#include "api/knobs.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "api/job_conf.h"
#include "common/fault_injector.h"
#include "common/logging.h"

namespace m3r::api::knobs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Each default is written here and nowhere else. Ranges are the domains
/// the consumers clamp to; enum values are in the consumer's enum order
/// (CheckpointPolicy, IntegrityMode, memgov::EvictionPolicy).
constexpr Knob kTable[] = {
    {conf::kForceHadoopEngine, Type::kBool, "false"},
    {conf::kTempPrefix, Type::kString, "temp"},
    {conf::kTempPaths, Type::kList, ""},
    // 0 defers to M3REngineOptions::workers_per_place.
    {conf::kPlaceWorkers, Type::kInt, "0", 0, kInf},
    {conf::kMapHashCombine, Type::kBool, "false"},
    {conf::kMapHashCombineMemoryMb, Type::kDouble, "64", 0, kInf},
    {conf::kSortParallelThreshold, Type::kInt, "32768", 0, kInf},
    {conf::kShuffleFlushBytes, Type::kInt, "262144", 0, kInf},
    {conf::kShufflePartitionBudgetMb, Type::kInt, "0", 0, kInf},
    {conf::kShufflePipeline, Type::kRetired, "", 0, 0, "on",
     "m3r.shuffle.flush.bytes (0 = barrier exchange)"},
    {conf::kCacheCheckpoint, Type::kEnum, "off", 0, 0, "off|tempout|all"},
    {conf::kPlaceRecoveryMaxCrashes, Type::kInt, "2", 0, kInf},
    {"m3r.place.recovery", Type::kRetired, "", 0, 0, "replay",
     "m3r.place.recovery.max.crashes (0 = recovery off)"},
    {conf::kPlaceCrashAt, Type::kCrashScript, ""},
    {conf::kJobMaxAttempts, Type::kInt, "1", 1, kInf},
    {conf::kJobRetryBackoffMs, Type::kInt, "10", 0, kInf},
    {conf::kIntegrityMode, Type::kEnum, "off", 0, 0, "off|detect|repair"},
    {conf::kMemoryBudgetMb, Type::kInt, "0", 0, kInf},
    {conf::kMemoryShareCache, Type::kDouble, "1", 0, 1},
    {conf::kMemoryHighWatermark, Type::kDouble, "0.90", 0, 1},
    {conf::kMemoryLowWatermark, Type::kDouble, "0.75", 0, 1},
    {conf::kCachePolicy, Type::kEnum, "lru", 0, 0, "lru|lfu|cost"},
    {conf::kCacheL2Share, Type::kDouble, "0", 0, 1},
    {conf::kCacheL2VNodes, Type::kInt, "16", 1, kInf},
    {conf::kCacheReuse, Type::kEnum, "off", 0, 0, "off|exact"},
    {conf::kFaultSeed, Type::kUint64, "1"},
    // <site> is one of kFaultSites.
    {conf::kFaultProb, Type::kDouble, "0", 0, 1},
    {conf::kFaultNth, Type::kInt, "0", 0, kInf},
    {conf::kFaultLimit, Type::kInt, "-1", -1, kInf},
    {conf::kSubmissionTenant, Type::kString, "default"},
    {conf::kSubmissionPriority, Type::kInt, "0", -1000, 1000},
    {conf::kSubmissionDeadlineHint, Type::kDouble, "0", 0, kInf},
    {conf::kJobTimeoutSec, Type::kDouble, "0", 0, kInf},
    {conf::kJobHeartbeatStallSec, Type::kDouble, "0", 0, kInf},
};

constexpr std::string_view kSite = "<site>";

bool Parse(std::string_view s, bool* out) {
  *out = s == "true" || s == "1";
  return *out || s == "false" || s == "0";
}

/// Numbers parse whole: no blanks, suffixes, hex, NaN or infinity.
template <typename T>
bool Parse(std::string_view s, T* out) {
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return !s.empty() && ec == std::errc() && end == s.data() + s.size() &&
         std::isfinite(static_cast<double>(*out));
}

/// "P:N[,P:N...]" with P, N >= 0; empty entries are skipped.
bool Parse(std::string_view s, std::map<int, int>* out) {
  for (size_t pos = 0; pos <= s.size();) {
    const std::string_view item = s.substr(pos, s.find(',', pos) - pos);
    pos += item.size() + 1;
    if (item.empty()) continue;
    const size_t colon = item.find(':');
    int p = -1;
    int n = -1;
    if (colon == std::string_view::npos || !Parse(item.substr(0, colon), &p) ||
        !Parse(item.substr(colon + 1), &n) || p < 0 || n < 0) {
      return false;
    }
    (*out)[p] = n;
  }
  return true;
}

/// Index of `s` among the '|'-separated `values`, or -1.
int IndexOf(std::string_view values, std::string_view s) {
  for (int i = 0;; ++i) {
    const size_t bar = values.find('|');
    if (values.substr(0, bar) == s) return i;
    if (bar == std::string_view::npos) return -1;
    values.remove_prefix(bar + 1);
  }
}

/// One parse per type, shared by the validator and the getters.
bool Valid(const Knob& row, std::string_view s) {
  bool b = false;
  int64_t i = 0;
  uint64_t u = 0;
  double d = 0;
  std::map<int, int> script;
  switch (row.type) {
    case Type::kBool: return Parse(s, &b);
    case Type::kInt: return Parse(s, &i) && i >= row.lo && i <= row.hi;
    case Type::kUint64: return Parse(s, &u);
    case Type::kDouble: return Parse(s, &d) && d >= row.lo && d <= row.hi;
    case Type::kEnum: return IndexOf(row.values, s) >= 0;
    case Type::kCrashScript: return Parse(s, &script);
    case Type::kRetired: return s == row.values;
    default: return true;
  }
}

/// The row declaring `key`; a family member also yields its site.
const Knob* Find(std::string_view key, std::string_view* site) {
  for (const Knob& row : kTable) {
    const std::string_view pattern = row.key;
    const size_t at = pattern.find(kSite);
    if (at == std::string_view::npos) {
      if (key == pattern) return &row;
      continue;
    }
    const std::string_view head = pattern.substr(0, at);
    const std::string_view tail = pattern.substr(at + kSite.size());
    if (key.size() > head.size() + tail.size() && key.starts_with(head) &&
        key.ends_with(tail)) {
      *site = key.substr(head.size(), key.size() - head.size() - tail.size());
      return &row;
    }
  }
  return nullptr;
}

bool IsFaultSite(std::string_view site) {
  return std::find(std::begin(kFaultSites), std::end(kFaultSites), site) !=
         std::end(kFaultSites);
}

template <typename Names>
std::string Nearest(std::string_view s, const Names& names) {
  std::string_view best;
  size_t best_distance = std::numeric_limits<size_t>::max();
  for (std::string_view name : names) {
    std::vector<size_t> d(name.size() + 1);  // Levenshtein, one row
    for (size_t j = 0; j < d.size(); ++j) d[j] = j;
    for (char c : s) {
      size_t diagonal = d[0]++;
      for (size_t j = 1; j < d.size(); ++j) {
        const size_t up = d[j];
        d[j] = std::min({d[j] + 1, d[j - 1] + 1,
                         diagonal + (c == name[j - 1] ? 0 : 1)});
        diagonal = up;
      }
    }
    if (d.back() < best_distance) {
      best = name;
      best_distance = d.back();
    }
  }
  return std::string(best);
}

Status CheckKey(const std::string& key, const std::string& value) {
  std::string_view site;
  const Knob* row = Find(key, &site);
  if (row == nullptr) {
    std::vector<std::string_view> live;
    for (const Knob& r : kTable) {
      if (r.type != Type::kRetired) live.push_back(r.key);
    }
    return Status::InvalidArgument("unknown conf key " + key +
                                   "; nearest declared key: " +
                                   Nearest(key, live));
  }
  if (!site.empty() && !IsFaultSite(site)) {
    return Status::InvalidArgument(key + " names no fault site; nearest: " +
                                   Nearest(site, kFaultSites));
  }
  if (Valid(*row, value)) return Status::OK();
  if (row->type == Type::kRetired) {
    return Status::InvalidArgument(key + "=" + value +
                                   " is no longer supported; use " +
                                   row->replacement);
  }
  constexpr const char* kWant[] = {"true|false", "an integer", "a uint64",
                                   "a number", "", "", "", "P:N[,P:N...]"};
  char range[48] = "";
  if (row->lo != row->hi) {
    std::snprintf(range, sizeof(range), " in [%g, %g]", row->lo, row->hi);
  }
  return Status::InvalidArgument(
      "bad " + key + "=" + value + " (want " +
      (row->values != nullptr ? row->values
                              : kWant[static_cast<int>(row->type)]) +
      range + ")");
}

/// The conf's value when valid, else the row's default. A conf that fails
/// ValidateKnobs never runs, so the fallback only reaches readers that run
/// ahead of validation (Submission::FromConf).
std::string_view Text(const Configuration& conf, const char* key, Type type,
                      const Knob** found = nullptr) {
  std::string_view site;
  const Knob* row = Find(key, &site);
  M3R_CHECK(row != nullptr && site.empty() &&
            (row->type == type ||
             (type == Type::kString && row->type == Type::kEnum)))
      << "not a declared knob of this type: " << key;
  if (found != nullptr) *found = row;
  auto it = conf.raw().find(key);
  if (it != conf.raw().end() && Valid(*row, it->second)) return it->second;
  return row->def;
}

template <typename T>
T Read(const Configuration& conf, const char* key, Type type) {
  T value{};
  Parse(Text(conf, key, type), &value);
  return value;
}

}  // namespace

std::span<const Knob> Table() { return kTable; }

Status ValidateKnobs(const Configuration& conf) {
  for (const auto& [key, value] : conf.raw()) {
    if (key.starts_with("m3r.")) M3R_RETURN_NOT_OK(CheckKey(key, value));
  }
  return Status::OK();
}

bool Bool(const Configuration& conf, const char* key) {
  return Read<bool>(conf, key, Type::kBool);
}
int64_t Int(const Configuration& conf, const char* key) {
  return Read<int64_t>(conf, key, Type::kInt);
}
uint64_t Uint64(const Configuration& conf, const char* key) {
  return Read<uint64_t>(conf, key, Type::kUint64);
}
double Double(const Configuration& conf, const char* key) {
  return Read<double>(conf, key, Type::kDouble);
}
std::map<int, int> CrashScript(const Configuration& conf, const char* key) {
  return Read<std::map<int, int>>(conf, key, Type::kCrashScript);
}
int Choice(const Configuration& conf, const char* key) {
  const Knob* row = nullptr;
  const std::string_view value = Text(conf, key, Type::kEnum, &row);
  return IndexOf(row->values, value);
}
std::string String(const Configuration& conf, const char* key) {
  return std::string(Text(conf, key, Type::kString));
}
std::vector<std::string> List(const Configuration& conf, const char* key) {
  Configuration one;
  one.Set(key, std::string(Text(conf, key, Type::kList)));
  return one.GetStrings(key);
}

std::map<std::string, FaultInjector::SiteConfig> FaultSites(
    const Configuration& conf) {
  std::map<std::string, FaultInjector::SiteConfig> sites;
  for (const auto& [key, value] : conf.raw()) {
    std::string_view site;
    const Knob* row = Find(key, &site);
    if (row == nullptr || site.empty() || !IsFaultSite(site)) continue;
    const std::string_view text =
        Valid(*row, value) ? std::string_view(value) : row->def;
    FaultInjector::SiteConfig& config = sites[std::string(site)];
    const std::string_view family = row->key;
    if (family == api::conf::kFaultProb) {
      Parse(text, &config.probability);
    } else if (family == api::conf::kFaultNth) {
      Parse(text, &config.nth);
    } else {
      Parse(text, &config.limit);
    }
  }
  return sites;
}

}  // namespace m3r::api::knobs
