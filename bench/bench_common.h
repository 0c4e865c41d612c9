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

#include "common/check.h"
#include "common/csv.h"
#include "common/table.h"
#include "common/types.h"
#include "dlrm/model.h"
#include "framework/op_registry.h"
#include "gpu/machine.h"
#include "hw/topology.h"
#include "serve/catalog.h"
#include "shmem/world.h"

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

/// The near-square 2D torus for `nodes` one-GPU nodes (16x8 for 128):
/// dim_y is the largest divisor of `nodes` no greater than its square root.
inline fcc::hw::TorusSpec torus_for_nodes(int nodes) {
  FCC_CHECK(nodes >= 1);
  fcc::hw::TorusSpec t;
  for (int y = 1; y * y <= nodes; ++y) {
    if (nodes % y == 0) t.dim_y = y;
  }
  t.dim_x = nodes / t.dim_y;
  return t;
}

/// Table II's DLRM on `nodes` one-GPU nodes: 8 tables per node, dim 92,
/// pooling 70, 64 samples per node, and 43 MLP layers of mean width 682
/// (bottom 713, 713, 92 on 92 dense features; top 39 x 713, then 1). The
/// top MLP's input width is DlrmConfig::interaction_dim().
inline fcc::dlrm::DlrmConfig table2_dlrm(int nodes) {
  fcc::dlrm::DlrmConfig cfg;
  cfg.emb.map.num_pes = nodes;
  cfg.emb.map.tables_per_pe = 8;
  cfg.emb.map.global_batch = 64 * nodes;
  cfg.emb.map.dim = 92;
  cfg.emb.pooling = 70;
  cfg.dense_dim = 92;
  cfg.bottom_mlp = {713, 713, 92};
  cfg.top_mlp = std::vector<int>(39, 713);
  cfg.top_mlp.push_back(1);
  return cfg;
}

/// Weighted mean batch service time (ns) of the serve catalog on a healthy
/// `mc` machine: one warm run per chain stage (cold allocations out of the
/// measurement). The serve and degraded-fabric benches size their offered
/// load from it.
inline double calibrate_service_ns(const fcc::gpu::Machine::Config& mc) {
  fcc::gpu::Machine machine(mc);
  fcc::shmem::World world(machine);
  const auto catalog = fcc::serve::default_catalog(machine.num_pes());
  const fcc::fw::OpRegistry& registry = fcc::fw::OpRegistry::global();
  double weight_sum = 0.0, service_sum = 0.0;
  for (const fcc::serve::ServeClass& c : catalog) {
    fcc::TimeNs chain_ns = 0;
    for (const fcc::fw::OpSpec& spec : c.chain) {
      auto op = registry.at(spec.name).make(world, spec,
                                            fcc::fw::Backend::kFused);
      op->run_to_completion();  // warm: first run takes the allocations
      const auto res = op->run_to_completion();
      chain_ns += res.end - res.start;
    }
    weight_sum += c.weight;
    service_sum += c.weight * static_cast<double>(chain_ns);
  }
  return service_sum / weight_sum;
}

}  // namespace fccbench
