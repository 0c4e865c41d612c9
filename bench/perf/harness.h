// Shared pieces of the perf benchmark: options, metrics, outside-in host
// spans, verification counters, and the Workload interface main.cc runs.
//
// The benchmark measures every layer from outside: it times calls into the
// public API of src/ and reads public counters. Nothing here reaches into a
// layer's internals, so the benchmark runs unchanged against any commit
// that keeps those entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "fused/result.h"
#include "gpu/machine.h"
#include "sim/sharded_engine.h"

namespace perf {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // timed-pass budget
  bool trace = false;
  std::string trace_out;  // Chrome JSON path of the traced run
  bool smoke = false;     // ~1/20-size inputs, for the ctest smoke run
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in insertion order; set() on an existing name replaces its value.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return items_; }
  const Metric* find(const std::string& name) const;

 private:
  std::vector<Metric> items_;
};

/// Benchmark-side host spans around calls into the public API of a layer,
/// nested on one track, with the layer name as category. Disabled, a span
/// costs one branch; enabled, spans stay in memory until write_chrome_json.
class Tracer {
 public:
  class Span {
   public:
    Span(Tracer* tracer, const char* layer, std::string name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;  // null when tracing is off
  };

  void set_enabled(bool on) { enabled_ = on; }

  [[nodiscard]] Span span(const char* layer, std::string name) {
    return Span(enabled_ ? this : nullptr, layer, std::move(name));
  }

  /// Writes every closed span through sim::Trace::write_chrome_json.
  void write_chrome_json(const std::string& path) const;

  /// Per (layer, name): calls, total self time, and share of all self time.
  /// Self time is a span's duration minus the time its child spans cover.
  void print_self_times(std::ostream& os) const;

 private:
  struct Closed {
    std::string layer;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t self_ns = 0;
  };
  struct Open {
    std::string layer;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
  };

  std::int64_t now_ns() const;
  void open(const char* layer, std::string name);
  void close();

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Open> stack_;
  std::vector<Closed> closed_;
};

/// Pass/fail bookkeeping of checked operations; `failed` feeds the result's
/// failure count and a failed check prints what diverged.
struct Verify {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool mismatch = false;  // an output check failed (not a load-shed request)

  /// One checked operation.
  void check(bool ok, const std::string& what);
  /// Operations that ran without a separate output check, plus how many of
  /// them failed under load (rejected, timed out, shed).
  void count(std::int64_t ops, std::int64_t failed_ops);
};

/// Summed engine breakdown over several run_all() calls.
struct RunStatsSum {
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t barrier_wall_ns = 0;
  std::uint64_t window_wall_ns = 0;
  std::uint64_t critical_wall_ns = 0;

  void add(const fcc::sim::ShardedEngine::RunStats& s);
};

/// Simulated occupancy of a set of machines, from public counters: device
/// busy time over (PEs x workgroup slots x elapsed), and the busiest
/// fault-site link's busy share of elapsed time.
struct Occupancy {
  double busy_ns = 0;
  double pe_span_ns = 0;
  double link_busy_frac_max = 0;

  void add(fcc::gpu::Machine& machine);
  double gpu_busy_frac() const {
    return pe_span_ns > 0 ? busy_ns / pe_span_ns : 0.0;
  }
};

/// sim.* metrics of one pass from its summed engine breakdown.
void engine_layers(Metrics& m, const RunStatsSum& s, double pass_wall_s);

/// gpu.busy_frac and hw.link_busy_frac_max.
void occupancy_layers(Metrics& m, const Occupancy& occ);

/// One benchmark workload. main.cc calls setup() repeatedly (setup_s is
/// the time per call, median over rounds), warm_up() once, pass()
/// repeatedly for the timed budget (the median is wall_s), in the traced
/// run more traced passes, then verify() and end_to_end(), and in the
/// traced run layers().
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the fixture the timed passes reuse, replacing any previous one.
  virtual void setup() = 0;
  /// Untimed work between setup and the first timed pass.
  virtual void warm_up() {}
  /// One timed pass; records what verify() and the metrics read.
  virtual void pass() = 0;
  /// Output checks; not timed.
  virtual void verify(Verify& v) = 0;
  /// The simulated end-to-end metrics (sim_us, sim_ratio).
  virtual void end_to_end(Metrics& m) = 0;
  /// Per-layer metrics of the last pass; `pass_wall_s` is the untraced
  /// median pass wall.
  virtual void layers(Metrics& m, double pass_wall_s) = 0;
  /// Host threads the passes run on.
  virtual unsigned threads(unsigned /*nproc*/) const { return 1; }
};

std::unique_ptr<Workload> make_paper_ops(const Options& o, Tracer& t);
std::unique_ptr<Workload> make_serve_2x4(const Options& o, Tracer& t);
std::unique_ptr<Workload> make_torus_flagship(const Options& o, Tracer& t);
std::unique_ptr<Workload> make_plan_grid(const Options& o, Tracer& t);

/// Layer microbenchmarks shared by every traced run (engine, fabrics, puts,
/// collectives, operators, framework, batcher, sketch).
void run_microbenches(const Options& o, Tracer& t, Metrics& m);

/// Seed stream for a workload input, so inputs differ per --seed but not
/// between two runs with the same seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// MoeDispatchConfig::routing_seed of the MoE operators of paper_ops and
/// plan_grid (serve_2x4 keeps the catalog's fixed routing).
inline std::uint64_t moe_routing_seed(std::uint64_t seed) {
  return derive_seed(seed, 0x60e);
}

/// `r` with every time taken relative to its start: a warm machine starts
/// each run later, so only relative stamps repeat across runs.
fcc::fused::OperatorResult relative(fcc::fused::OperatorResult r);

/// Geometric mean of positive values (1.0 for an empty set).
double geomean(const std::vector<double>& xs);

/// Median of the values (0 for an empty set).
double median(std::vector<double> xs);

}  // namespace perf
