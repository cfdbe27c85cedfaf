#ifndef M3R_COMMON_STOPWATCH_H_
#define M3R_COMMON_STOPWATCH_H_

#include <chrono>

namespace m3r {

/// Wall-clock stopwatch (job-level timing).
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  void Restart() { start_ = std::chrono::steady_clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace m3r

#endif  // M3R_COMMON_STOPWATCH_H_
