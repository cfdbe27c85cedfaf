#include "api/counters.h"

#include <sstream>

namespace m3r::api {

Counters::Counters(const Counters& other) { values_ = other.Snapshot(); }

Counters& Counters::operator=(const Counters& other) {
  if (this != &other) {
    auto snapshot = other.Snapshot();
    std::lock_guard<std::mutex> lock(mu_);
    values_ = std::move(snapshot);
  }
  return *this;
}

void Counters::Increment(std::string_view group, std::string_view name,
                         int64_t delta) {
  const std::pair<std::string_view, std::string_view> key(group, name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = values_.lower_bound(key);
  if (it == values_.end() || KeyLess()(key, it->first)) {
    it = values_.emplace_hint(
        it, std::pair<std::string, std::string>(group, name), 0);
  }
  it->second += delta;
}

int64_t Counters::Get(std::string_view group, std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = values_.find(std::pair<std::string_view, std::string_view>(
      group, name));
  return it == values_.end() ? 0 : it->second;
}

void Counters::MergeFrom(const Counters& other) {
  auto snapshot = other.Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [k, v] : snapshot) values_[k] += v;
}

Counters::Map Counters::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return values_;
}

std::string Counters::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  std::string last_group;
  for (const auto& [key, v] : values_) {
    if (key.first != last_group) {
      os << key.first << ":\n";
      last_group = key.first;
    }
    os << "  " << key.second << "=" << v << "\n";
  }
  return os.str();
}

}  // namespace m3r::api
