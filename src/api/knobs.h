#ifndef M3R_API_KNOBS_H_
#define M3R_API_KNOBS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "api/configuration.h"
#include "common/fault_injector.h"
#include "common/status.h"

/// The one declared table of `m3r.*` knobs (DESIGN.md §17). Each key, or
/// key family (`m3r.fault.<site>.{prob,nth,limit}`), is a row holding its
/// type, its default and its range or allowed values, so every default is
/// written once and every reader sees the same knob on either engine.
namespace m3r::api::knobs {

enum class Type {
  kBool, kInt, kUint64, kDouble, kEnum, kString, kList,
  kCrashScript,  ///< "P:N[,P:N...]" (m3r.place.crash.at)
  kRetired,      ///< accepts only `values`; `replacement` replaced it
};

struct Knob {
  const char* key;  ///< an api::conf constant, or a "<site>" family pattern
  Type type;
  const char* def;  ///< the default, in the row's value syntax
  double lo = 0;    ///< inclusive range of kInt and kDouble rows
  double hi = 0;
  const char* values = nullptr;  ///< kEnum: "a|b|c"; kRetired: the one value
  const char* replacement = nullptr;
};

std::span<const Knob> Table();

/// InvalidArgument naming the key for any `m3r.*` key that is not a row
/// (naming the nearest one) or names no fault site, and for a value that
/// does not parse whole as the row's type or lies outside its range.
/// `mapred.*` and application keys are not checked.
Status ValidateKnobs(const Configuration& conf);

// Typed getters: the conf's value, or the row's default when the key is
// unset or its value is one ValidateKnobs rejects. No caller passes a
// default; `key` must be a non-family row of the getter's type.
bool Bool(const Configuration& conf, const char* key);
int64_t Int(const Configuration& conf, const char* key);
uint64_t Uint64(const Configuration& conf, const char* key);
double Double(const Configuration& conf, const char* key);
/// kEnum: the value's index in the row's `values`.
int Choice(const Configuration& conf, const char* key);
/// kString or kEnum.
std::string String(const Configuration& conf, const char* key);
std::vector<std::string> List(const Configuration& conf, const char* key);
/// Place -> map tasks it starts before it crashes.
std::map<int, int> CrashScript(const Configuration& conf, const char* key);

/// The m3r.fault.<site>.{prob,nth,limit} family rows: every fault site the
/// conf sets a member of, with all three values (an unset member, or one
/// ValidateKnobs rejects, reads as its row's default). Empty when no site
/// is set.
std::map<std::string, FaultInjector::SiteConfig> FaultSites(
    const Configuration& conf);

}  // namespace m3r::api::knobs

#endif  // M3R_API_KNOBS_H_
