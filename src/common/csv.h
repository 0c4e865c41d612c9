// CSV writer for bench results (machine-readable companion to the ASCII
// tables; docs/BENCHMARKS.md describes these files).
#pragma once

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"

namespace fcc {

class CsvWriter {
 public:
  CsvWriter(const std::string& path, std::vector<std::string> headers)
      : out_(path), width_(headers.size()) {
    FCC_CHECK_MSG(out_.good(), "cannot open csv file " << path);
    write_row_impl(headers);
  }

  void write_row(const std::vector<std::string>& cells) {
    FCC_CHECK(cells.size() == width_);
    write_row_impl(cells);
  }

  template <typename... Ts>
  void row(const Ts&... vals) {
    std::vector<std::string> cells;
    (cells.push_back(to_cell(vals)), ...);
    write_row(cells);
  }

 private:
  template <typename T>
  static std::string to_cell(const T& v) {
    std::ostringstream os;
    os << v;
    return os.str();
  }

  void write_row_impl(const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) out_ << ",";
      out_ << cells[i];
    }
    out_ << "\n";
  }

  std::ofstream out_;
  std::size_t width_;
};

}  // namespace fcc
