#include "experiments.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>

#include "common/logging.h"

namespace m3r::bench {

void Line::Set(const std::string& column, double value) {
  values.emplace_back(column, value);
}

double Line::operator[](const std::string& column) const {
  for (const auto& [name, v] : values) {
    if (name == column) return v;
  }
  M3R_CHECK(false) << arm << " @ " << x << " has no column " << column;
  return 0;
}

const Line& Sheet::At(const std::string& arm, double x) const {
  for (const Line& line : lines) {
    if (line.arm == arm && line.x == x) return line;
  }
  M3R_CHECK(false) << "no line for arm " << arm << " @ " << x;
  return lines.front();
}

std::vector<double> Sheet::Series(const std::string& arm,
                                  const std::string& column) const {
  std::vector<double> out;
  for (const Line& line : lines) {
    if (line.arm == arm) out.push_back(line[column]);
  }
  M3R_CHECK(!out.empty()) << "no lines for arm " << arm;
  return out;
}

std::vector<double> Sheet::Xs(const std::string& arm) const {
  std::vector<double> out;
  for (const Line& line : lines) {
    if (line.arm == arm) out.push_back(line.x);
  }
  M3R_CHECK(!out.empty()) << "no lines for arm " << arm;
  return out;
}

namespace {

/// Counts print whole; everything else (seconds, ratios) to two places,
/// the precision the figure tables have always printed.
std::string Cell(double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", v);
  }
  return buf;
}

void PrintTable(const Row& row, const Sheet& sheet, std::ostream& out) {
  std::vector<std::string> columns;  // union, in first-measured order
  for (const Line& line : sheet.lines) {
    for (const auto& [name, v] : line.values) {
      if (std::find(columns.begin(), columns.end(), name) == columns.end()) {
        columns.push_back(name);
      }
    }
  }
  const bool sweep = !row.x_name.empty();
  out << "| arm |" << (sweep ? " " + row.x_name + " |" : "");
  for (const std::string& c : columns) out << " " << c << " |";
  out << "\n|---|" << (sweep ? "---:|" : "");
  for (size_t i = 0; i < columns.size(); ++i) out << "---:|";
  out << "\n";
  for (const Line& line : sheet.lines) {
    out << "| " << line.arm << " |" << (sweep ? " " + Cell(line.x) + " |" : "");
    for (const std::string& c : columns) {
      std::string cell = "—";
      for (const auto& [name, v] : line.values) {
        if (name == c) cell = Cell(v);
      }
      out << " " << cell << " |";
    }
    out << "\n";
  }
}

/// Minimal structural validation of emitted JSON: balanced
/// brackets/braces outside strings and `expect_records` top-level objects.
bool ValidJson(const std::string& text, size_t expect_records) {
  int depth = 0;
  bool in_string = false;
  size_t objects = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '[' || c == '{') ++depth;
    if (c == ']' || c == '}') {
      if (--depth < 0) return false;
    }
    if (c == '{' && depth == 2) ++objects;  // top-level records only
  }
  return depth == 0 && !in_string && objects == expect_records;
}

}  // namespace

int ExperimentsMain(const std::vector<Row>& rows, int argc,
                    const char* const* argv) {
  std::string scale_name;
  std::string out_dir = ".";
  std::string suffix;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale" && i + 1 < argc) {
      scale_name = argv[++i];
    } else if (arg == "--out-dir" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--suffix" && i + 1 < argc) {
      suffix = argv[++i];
    } else {
      scale_name.clear();
      break;
    }
  }
  if (scale_name != "smoke" && scale_name != "paper") {
    std::cerr << "usage: " << argv[0]
              << " --scale smoke|paper [--out-dir DIR] [--suffix S]\n";
    return 2;
  }
  const Scale scale = scale_name == "smoke" ? Scale::kSmoke : Scale::kPaper;

  int mismatches = 0;
  std::map<std::string, std::vector<Record>> files;  // json name -> records
  for (const Row& row : rows) {
    if (row.scale != scale) continue;
    std::cout << "\n### " << row.id << ": " << row.section << "\n\n"
              << std::flush;
    Sheet sheet;
    std::vector<Record>* records = row.json.empty() ? nullptr
                                                    : &files[row.json];
    const std::vector<std::string>* reference = nullptr;
    for (const Arm& arm : row.arms) {
      for (double x : row.xs) {
        Line line{arm.name, x, {}, {}};
        row.measure(arm, x, &line, records);
        sheet.lines.push_back(std::move(line));
      }
    }
    for (const Line& line : sheet.lines) {
      if (line.output.empty()) continue;
      if (reference == nullptr) reference = &line.output;
      M3R_CHECK(line.output == *reference)
          << row.id << ": " << line.arm << "'s output differs from the "
          << "row's first arm";
    }
    PrintTable(row, sheet, std::cout);
    std::cout << "\n";
    for (const Claim& claim : row.claims) {
      const bool held = claim.test(sheet);
      const bool expected = claim.deviation.empty();
      std::cout << "- " << (held ? "✓ " : "✗ ") << claim.text;
      if (!expected) std::cout << " — deviation: " << claim.deviation;
      if (held != expected) {
        ++mismatches;
        std::cout << " — **UNEXPECTED**";
        std::cerr << row.id << ": claim \"" << claim.text << "\" "
                  << (held ? "holds, but is declared a deviation ("
                           : "fails, but is declared to hold")
                  << (held ? claim.deviation + ")" : "") << "\n";
      }
      std::cout << "\n";
    }
  }

  for (const auto& [name, records] : files) {
    const std::string path = out_dir + "/BENCH_" + name + suffix + ".json";
    const std::string json = ToJson(records);
    std::ofstream out(path);
    out << json;
    out.close();
    if (!out || !ValidJson(json, records.size())) {
      std::cerr << "cannot write valid JSON to " << path << "\n";
      return 1;
    }
    std::cout << "\nwrote " << path << " (" << records.size()
              << " records)\n";
  }
  if (mismatches > 0) {
    std::cerr << mismatches
              << " claim(s) differ from their declared expectation\n";
    return 1;
  }
  return 0;
}

}  // namespace m3r::bench
