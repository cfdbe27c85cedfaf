#ifndef M3R_BENCH_EXPERIMENTS_H_
#define M3R_BENCH_EXPERIMENTS_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace m3r::bench {

/// `smoke` rows are small, write the BENCH_*.json trajectory and run as a
/// ctest; `paper` rows are the figures and ablations of PAPER.md §6.
enum class Scale { kSmoke, kPaper };

/// One line of a row's table: an arm at one sweep point.
struct Line {
  std::string arm;
  double x = 0;
  std::vector<std::pair<std::string, double>> values;
  /// The run's output records, sorted. Every line of a row that sets it
  /// must match the row's first such line, record for record.
  std::vector<std::string> output;

  void Set(const std::string& column, double value);  // once per column
  /// The named value; aborts naming the column when the line has none.
  double operator[](const std::string& column) const;
};

/// Every line a row measured, in measuring order.
struct Sheet {
  std::vector<Line> lines;

  const Line& At(const std::string& arm, double x = 0) const;
  /// `column` of every line of `arm`, in sweep order.
  std::vector<double> Series(const std::string& arm,
                             const std::string& column) const;
  /// The sweep points `arm` was measured at.
  std::vector<double> Xs(const std::string& arm) const;
};

/// A shape claim of the paper, as a predicate over a row's sheet, expected
/// to hold on the counted ledger unless it names a `deviation`: the reason
/// it is known to fail.
struct Claim {
  std::string text;
  std::function<bool(const Sheet&)> test;
  std::string deviation = {};
};

/// One configuration a row measures: an engine and the switches that
/// already exist on it.
struct Arm {
  std::string name = {};
  bool m3r = true;
  /// M3REngineOptions switches (the ablations).
  bool enable_cache = true;
  bool partition_stability = true;
  bool respect_immutable = true;
  serialize::DedupMode dedup = serialize::DedupMode::kFull;
  /// The workload's mapper keeps the ImmutableOutput contract; false picks
  /// its object-reusing flavour where it has one.
  bool immutable_mapper = true;
  /// Job knobs set on the arm's measured jobs.
  std::vector<std::pair<std::string, std::string>> knobs = {};
};

/// Measures `arm` at sweep point `x` into `line`, appending the run's
/// trajectory records to `records` when the row writes a BENCH file.
using Measure = std::function<void(const Arm& arm, double x, Line* line,
                                   std::vector<Record>* records)>;

/// One experiment: a paper section, its arms over an optional sweep, the
/// workload that measures them, and the claims its table must bear out.
/// Every member has a default, so a table row names only what it sets.
struct Row {
  std::string id = {};       // names the row in a failure
  std::string section = {};  // paper section and setup, the heading
  Scale scale = Scale::kPaper;
  std::string json = {};  // smoke rows: the BENCH_<json>.json they extend
  std::vector<Arm> arms = {};
  std::string x_name = {};  // sweep column; empty for a single point
  std::vector<double> xs = {0};
  Measure measure = {};
  std::vector<Claim> claims = {};
};

/// The driver: `--scale smoke|paper [--out-dir DIR] [--suffix S]`. Runs
/// the rows of the scale, prints each as a markdown table with a ✓/✗ line
/// per claim, and writes DIR/BENCH_<json><S>.json. Returns non-zero when a
/// claim's outcome differs from its expectation (naming row and claim on
/// stderr) or a file cannot be written; differing outputs abort.
int ExperimentsMain(const std::vector<Row>& rows, int argc,
                    const char* const* argv);

}  // namespace m3r::bench

#endif  // M3R_BENCH_EXPERIMENTS_H_
