#include "harness.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "hw/topology.h"
#include "sim/trace.h"

namespace perf {

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back(Metric{name, value, unit});
}

const Metric* Metrics::find(const std::string& name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

Tracer::Span::Span(Tracer* tracer, const char* layer, std::string name)
    : tracer_(tracer) {
  if (tracer_ != nullptr) tracer_->open(layer, std::move(name));
}

Tracer::Span::~Span() {
  if (tracer_ != nullptr) tracer_->close();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void Tracer::open(const char* layer, std::string name) {
  stack_.push_back(Open{layer, std::move(name), now_ns(), 0});
}

void Tracer::close() {
  FCC_CHECK(!stack_.empty());
  Open o = std::move(stack_.back());
  stack_.pop_back();
  const std::int64_t end = now_ns();
  const std::int64_t dur = end - o.start_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  closed_.push_back(Closed{std::move(o.layer), std::move(o.name), o.start_ns,
                           end, dur - o.child_ns});
}

void Tracer::write_chrome_json(const std::string& path) const {
  fcc::sim::Trace trace;
  for (const Closed& c : closed_) {
    trace.add_span(fcc::sim::TraceSpan{c.name, c.layer, 0, 0, c.start_ns,
                                       c.end_ns});
  }
  std::ofstream os(path);
  FCC_CHECK_MSG(os.good(), "cannot write trace to " << path);
  trace.write_chrome_json(os);
}

void Tracer::print_self_times(std::ostream& os) const {
  struct Agg {
    std::int64_t calls = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::pair<std::string, std::string>, Agg> agg;
  std::int64_t total = 0;
  for (const Closed& c : closed_) {
    Agg& a = agg[{c.layer, c.name}];
    ++a.calls;
    a.self_ns += c.self_ns;
    total += c.self_ns;
  }
  std::vector<std::pair<std::pair<std::string, std::string>, Agg>> rows(
      agg.begin(), agg.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  os << "span self time (layer  span  calls  self_ms  share):\n";
  for (const auto& [key, a] : rows) {
    os << "  " << std::left << std::setw(10) << key.first << std::setw(44)
       << key.second << std::right << std::setw(8) << a.calls
       << std::setw(12) << std::fixed << std::setprecision(3)
       << static_cast<double>(a.self_ns) * 1e-6 << std::setw(8)
       << std::setprecision(3)
       << (total > 0 ? static_cast<double>(a.self_ns) / total : 0.0) << "\n";
  }
  os << std::defaultfloat;
}

void Verify::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  mismatch = true;
  std::cerr << "verify failed: " << what << "\n";
}

void Verify::count(std::int64_t ops, std::int64_t failed_ops) {
  attempted += ops;
  failed += failed_ops;
}

void RunStatsSum::add(const fcc::sim::ShardedEngine::RunStats& s) {
  events += s.events;
  windows += s.windows;
  barrier_wall_ns += s.barrier_wall_ns;
  window_wall_ns += s.window_wall_ns;
  critical_wall_ns += s.critical_wall_ns;
}

void Occupancy::add(fcc::gpu::Machine& machine) {
  const double elapsed = static_cast<double>(machine.engine().now());
  if (elapsed <= 0) return;
  for (fcc::PeId pe = 0; pe < machine.num_pes(); ++pe) {
    busy_ns += static_cast<double>(machine.device(pe).busy_ns());
  }
  // Device::busy_ns sums over workgroup slots.
  pe_span_ns += elapsed * machine.num_pes() *
                machine.config().gpu.max_wg_slots();
  for (const fcc::hw::FaultSite& site : machine.topology().fault_sites()) {
    const fcc::TimeNs busy = site.link != nullptr ? site.link->busy_ns()
                             : site.nic != nullptr
                                 ? site.nic->wire().busy_ns()
                                 : 0;
    link_busy_frac_max =
        std::max(link_busy_frac_max, static_cast<double>(busy) / elapsed);
  }
}

void engine_layers(Metrics& m, const RunStatsSum& s, double pass_wall_s) {
  const double events = static_cast<double>(s.events);
  m.set("sim.events", events, "count");
  m.set("sim.host_ns_per_event", events > 0 ? pass_wall_s * 1e9 / events : 0,
        "ns");
  m.set("sim.windows", static_cast<double>(s.windows), "count");
  m.set("sim.barrier_frac",
        pass_wall_s > 0 ? static_cast<double>(s.barrier_wall_ns) * 1e-9 /
                              pass_wall_s
                        : 0,
        "ratio");
  m.set("sim.critical_frac",
        s.window_wall_ns > 0 ? static_cast<double>(s.critical_wall_ns) /
                                   static_cast<double>(s.window_wall_ns)
                             : 0,
        "ratio");
}

void occupancy_layers(Metrics& m, const Occupancy& occ) {
  m.set("gpu.busy_frac", occ.gpu_busy_frac(), "ratio");
  m.set("hw.link_busy_frac_max", occ.link_busy_frac_max, "ratio");
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  fcc::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ULL + salt);
  return sm.next();
}

fcc::fused::OperatorResult relative(fcc::fused::OperatorResult r) {
  for (fcc::TimeNs& t : r.pe_end) t -= r.start;
  r.end -= r.start;
  r.start = 0;
  return r;
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double log_sum = 0;
  for (double x : xs) {
    FCC_CHECK_MSG(x > 0, "geomean of a non-positive value " << x);
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

}  // namespace perf
