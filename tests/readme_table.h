#ifndef M3R_TESTS_README_TABLE_H_
#define M3R_TESTS_README_TABLE_H_

// The README.md tables that the catalogue tests (knobs, metrics, phases)
// hold to their declared rows. The including target defines
// M3R_SOURCE_DIR.

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

namespace m3r::readme {

/// Every row of each README.md table whose header line starts with
/// `header`, as its cells trimmed of spaces and backquotes. Only rows whose
/// first cell is backquoted are rows (the separator line is not).
inline std::vector<std::vector<std::string>> TableRows(
    const std::string& header) {
  std::ifstream in(std::string(M3R_SOURCE_DIR) + "/README.md");
  EXPECT_TRUE(in.good()) << "cannot read README.md";
  std::vector<std::vector<std::string>> rows;
  bool in_table = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(header, 0) == 0) {
      in_table = true;
      continue;
    }
    if (line.rfind("|", 0) != 0) {
      in_table = false;
      continue;
    }
    if (!in_table || line.rfind("| `", 0) != 0) continue;
    std::vector<std::string> cells;
    for (size_t pos = 1; pos < line.size();) {
      const size_t end = line.find('|', pos);
      if (end == std::string::npos) break;
      const std::string cell = line.substr(pos, end - pos);
      const size_t b = cell.find_first_not_of(" `");
      const size_t e = cell.find_last_not_of(" `");
      cells.push_back(b == std::string::npos ? "" : cell.substr(b, e - b + 1));
      pos = end + 1;
    }
    EXPECT_FALSE(cells.empty()) << "not a table row: " << line;
    if (!cells.empty()) rows.push_back(std::move(cells));
  }
  return rows;
}

}  // namespace m3r::readme

#endif  // M3R_TESTS_README_TABLE_H_
