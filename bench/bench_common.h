// Shared helpers for the figure-reproduction benches.
//
// Every bench prints a paper-style ASCII table and writes a CSV twin into
// ./bench_results/ (format in docs/BENCHMARKS.md).
#pragma once

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/table.h"
#include "common/types.h"

namespace fccbench {

/// Results directory; FCC_BENCH_OUT overrides the default ./bench_results
/// so CI can redirect output to a scratch path.
inline std::string out_dir() {
  const char* env = std::getenv("FCC_BENCH_OUT");
  const std::string dir = (env != nullptr && *env != '\0') ? env
                                                           : "bench_results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

struct NormRow {
  std::string label;
  fcc::TimeNs baseline = 0;
  fcc::TimeNs fused = 0;
};

/// Prints the canonical "normalized execution time" table (fused/baseline,
/// baseline == 1.0) and the mean/max reduction summary the paper quotes.
/// Rows with a zero baseline print (and record) "n/a" instead of NaN/inf
/// and are excluded from the mean/max; an empty sweep prints "n/a" for the
/// summary rather than dividing by zero.
inline void print_normalized(const std::string& title,
                             const std::vector<NormRow>& rows,
                             const std::string& csv_name) {
  fcc::AsciiTable t({"config", "baseline (us)", "fused (us)", "normalized",
                     "reduction %"});
  fcc::CsvWriter csv(out_dir() + "/" + csv_name,
                     {"config", "baseline_ns", "fused_ns", "normalized"});
  double sum_reduction = 0, max_reduction = 0;
  std::size_t valid_rows = 0;
  for (const auto& r : rows) {
    if (r.baseline == 0) {
      t.add_row({r.label, fcc::AsciiTable::fmt(fcc::ns_to_us(r.baseline), 1),
                 fcc::AsciiTable::fmt(fcc::ns_to_us(r.fused), 1), "n/a",
                 "n/a"});
      csv.row(r.label, r.baseline, r.fused, "n/a");
      continue;
    }
    const double norm =
        static_cast<double>(r.fused) / static_cast<double>(r.baseline);
    const double red = 100.0 * (1.0 - norm);
    sum_reduction += red;
    max_reduction = std::max(max_reduction, red);
    ++valid_rows;
    t.add_row({r.label, fcc::AsciiTable::fmt(fcc::ns_to_us(r.baseline), 1),
               fcc::AsciiTable::fmt(fcc::ns_to_us(r.fused), 1),
               fcc::AsciiTable::fmt(norm, 3), fcc::AsciiTable::fmt(red, 1)});
    csv.row(r.label, r.baseline, r.fused, norm);
  }
  std::cout << title << "\n";
  t.print(std::cout);
  if (valid_rows == 0) {
    std::cout << "mean reduction: n/a   max reduction: n/a\n\n";
  } else {
    std::cout << "mean reduction: "
              << fcc::AsciiTable::fmt(
                     sum_reduction / static_cast<double>(valid_rows), 1)
              << "%   max reduction: "
              << fcc::AsciiTable::fmt(max_reduction, 1) << "%\n\n";
  }
}

}  // namespace fccbench
