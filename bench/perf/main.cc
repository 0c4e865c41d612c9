// fcc_perf — the repository's performance benchmark.
//
//   fcc_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--trace-out PATH] [--commit SHA] [--smoke]
//
// One workload, one process, three phases: setup (repeated in rounds; the
// median round is setup_s), timed passes for --seconds (the median pass is
// wall_s), and an untimed verify phase. With --trace 1 it also runs traced
// passes with
// benchmark-side host spans and the layer microbenchmarks, writes the spans
// as Chrome/Perfetto JSON, and reports the per-layer metrics instead of the
// end-to-end ones. Every metric prints as "name = value unit"; the last
// stdout line is one JSON object {correct, attempted, failed, metrics}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

#ifndef FCC_PERF_BUILD_TYPE
#define FCC_PERF_BUILD_TYPE "unknown"
#endif
#ifndef FCC_PERF_COMPILER
#define FCC_PERF_COMPILER "unknown"
#endif

namespace perf {
namespace {

/// Every per-layer metric the traced run reports, in report order. A
/// metric reads 0 on a workload that does not exercise its layer.
const std::vector<std::pair<std::string, std::string>>& layer_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> c = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"sim.events", "count"},
        {"sim.host_ns_per_event", "ns"},
        {"sim.schedule_run_ns", "ns"},
        {"sim.resume_ns", "ns"},
        {"sim.windows", "count"},
        {"sim.barrier_frac", "ratio"},
        {"sim.critical_frac", "ratio"},
        {"sim.speedup_measured", "x"},
        {"sim.speedup_attainable", "x"},
        {"hw.write_time_ns.fc", "ns"},
        {"hw.write_time_ns.switched", "ns"},
        {"hw.write_time_ns.multirail", "ns"},
        {"hw.write_time_ns.torus", "ns"},
        {"hw.link_busy_frac_max", "ratio"},
        {"gpu.busy_frac", "ratio"},
        {"shmem.puts", "count"},
        {"shmem.put_ns", "ns"},
    };
    for (const char* algo : {"direct", "ring", "hierarchical"}) {
      v.emplace_back(std::string("ccl.allreduce_host_us.") + algo, "us");
    }
    for (const char* algo : {"direct", "ring", "hierarchical"}) {
      v.emplace_back(std::string("ccl.allreduce_sim_us.") + algo, "sim_us");
    }
    for (const char* op :
         {"embedding_a2a", "gemv_allreduce", "gemm_a2a", "moe_dispatch"}) {
      for (const char* b : {"fused", "baseline"}) {
        v.emplace_back(std::string("fused.run_host_ms.") + op + "." + b,
                       "ms");
        v.emplace_back(std::string("fused.sim_us.") + op + "." + b,
                       "sim_us");
      }
    }
    for (const char* fig : {"fig08", "fig09", "fig10", "fig12"}) {
      v.emplace_back(std::string("fused.paper_err_pts.") + fig, "pts");
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"framework.fingerprint_us", "us"},
        {"framework.exec_overhead_us", "us"},
        {"plan.cold_us", "us"},
        {"plan.warm_us", "us"},
        {"plan.hit_rate", "ratio"},
        {"plan.anchor_over_best", "ratio"},
        {"plan.heldout_over_best", "ratio"},
        {"plan.violations", "count"},
        {"plan.baseline_stages", "count"},
        {"serve.batches", "count"},
        {"serve.mean_batch", "count"},
        {"serve.queue_p99_us", "sim_us"},
        {"serve.service_p99_us", "sim_us"},
        {"serve.rejects", "count"},
        {"serve.host_us_per_batch", "us"},
        {"serve.batcher_step_ns", "ns"},
        {"serve.p50_us", "sim_us"},
        {"serve.p99_light_us", "sim_us"},
        {"serve.slo_goodput", "ratio"},
        {"serve.max_rps", "req/s"},
        {"common.sketch_add_ns", "ns"},
        {"trace_overhead_frac", "ratio"},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return c;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "fcc_perf: " << why << "\n"
            << "usage: fcc_perf --workload "
               "paper_ops|serve_2x4|torus_flagship|plan_grid [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out PATH] "
               "[--commit SHA] [--smoke]\n";
  std::exit(2);
}

struct Cli {
  Options opts;
  std::string commit = "unknown";
};

Cli parse(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      cli.opts.workload = value();
    } else if (a == "--seed") {
      cli.opts.seed = std::stoull(value());
    } else if (a == "--seconds") {
      cli.opts.seconds = std::stod(value());
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      cli.opts.trace = v == "1";
    } else if (a == "--trace-out") {
      cli.opts.trace_out = value();
    } else if (a == "--commit") {
      cli.commit = value();
    } else if (a == "--smoke") {
      cli.opts.smoke = true;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (cli.opts.workload.empty()) usage("--workload is required");
  if (!(cli.opts.seconds > 0)) usage("--seconds must be positive");
  if (cli.opts.trace_out.empty()) {
    // Next to the binary, i.e. inside the build directory.
    const std::string self = argv[0];
    const auto slash = self.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : self.substr(0, slash);
    cli.opts.trace_out = dir + "/trace-" + cli.opts.workload + ".json";
  }
  return cli;
}

std::unique_ptr<Workload> make_workload(const Options& o, Tracer& t) {
  if (o.workload == "paper_ops") return make_paper_ops(o, t);
  if (o.workload == "serve_2x4") return make_serve_2x4(o, t);
  if (o.workload == "torus_flagship") return make_torus_flagship(o, t);
  if (o.workload == "plan_grid") return make_plan_grid(o, t);
  usage("unknown workload '" + o.workload + "'");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::cout << m.name << " = " << std::setprecision(6) << m.value << " "
              << m.unit << "\n";
  }
}

/// Fills in the catalogue entries the workload and microbenchmarks left
/// unset, and rejects names outside the catalogue.
std::vector<Metric> layer_report(const Metrics& measured) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : layer_catalogue()) {
    const Metric* m = measured.find(name);
    if (m != nullptr && m->unit != unit) {
      throw std::logic_error("metric " + name + " has unit " + m->unit +
                             ", catalogue says " + unit);
    }
    out.push_back(m != nullptr ? *m : Metric{name, 0.0, unit});
  }
  for (const Metric& m : measured.all()) {
    const bool known = std::any_of(
        layer_catalogue().begin(), layer_catalogue().end(),
        [&](const auto& c) { return c.first == m.name; });
    if (!known) throw std::logic_error("metric " + m.name + " not catalogued");
  }
  return out;
}

int run(const Cli& cli) {
  const Options& o = cli.opts;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  if (!o.smoke && std::strcmp(FCC_PERF_BUILD_TYPE, "Release") != 0) {
    std::cerr << "fcc_perf: refusing to measure a '" << FCC_PERF_BUILD_TYPE
              << "' build; reconfigure build/perf with "
                 "-DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }

  Tracer tracer;
  auto wl = make_workload(o, tracer);
  std::cout << "fingerprint {\"workload\": \"" << o.workload
            << "\", \"seed\": " << o.seed << ", \"nproc\": " << nproc
            << ", \"threads\": " << wl->threads(nproc)
            << ", \"compiler\": \"" << json_escape(FCC_PERF_COMPILER)
            << "\", \"build_type\": \"" << FCC_PERF_BUILD_TYPE
            << "\", \"commit\": \"" << json_escape(cli.commit)
            << "\", \"smoke\": " << (o.smoke ? "true" : "false") << "}\n";

  // Setup, in rounds, so that set-up work moved out of the passes shows. One
  // fixture build takes well under a millisecond on some workloads, which is
  // mostly timer and scheduler jitter, so a round repeats the build until
  // it has taken 50 ms and yields the mean time per build; setup_s is the
  // median round.
  constexpr int kSetupRounds = 11;
  const double setup_round_s = o.smoke ? 0.002 : 0.05;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRounds; ++i) {
    int builds = 0;
    const auto t0 = Clock::now();
    do {
      wl->setup();
      ++builds;
    } while (seconds_since(t0) < setup_round_s);
    setups.push_back(seconds_since(t0) / builds);
  }
  wl->warm_up();

  const std::size_t min_passes = o.smoke ? 1 : 3;
  std::vector<double> walls;
  const auto timed0 = Clock::now();
  while (walls.size() < min_passes || seconds_since(timed0) < o.seconds) {
    const auto t0 = Clock::now();
    wl->pass();
    walls.push_back(seconds_since(t0));
  }
  const double wall_s = median(walls);
  const double rss_mb = peak_rss_mb();
  std::cout << "timed passes: " << walls.size() << " (min "
            << *std::min_element(walls.begin(), walls.end()) << " s, max "
            << *std::max_element(walls.begin(), walls.end()) << " s)\n";

  // Traced passes for a quarter of the budget (at least one); their median
  // against the untraced median is the tracing overhead.
  std::vector<double> traced;
  if (o.trace) {
    tracer.set_enabled(true);
    const auto traced0 = Clock::now();
    while (traced.empty() || seconds_since(traced0) < o.seconds / 4) {
      const auto t0 = Clock::now();
      wl->pass();
      traced.push_back(seconds_since(t0));
    }
  }

  Verify v;
  wl->verify(v);

  Metrics e2e;
  e2e.set("wall_s", wall_s, "s");
  e2e.set("setup_s", median(setups), "s");
  e2e.set("peak_rss_mb", rss_mb, "MB");
  wl->end_to_end(e2e);
  std::cout << "fail_frac = "
            << static_cast<double>(v.failed) /
                   static_cast<double>(std::max<std::int64_t>(1, v.attempted))
            << " ratio (" << v.failed << " of " << v.attempted
            << " operations)\n";
  print_metrics(e2e.all());

  std::vector<Metric> reported = e2e.all();
  if (o.trace) {
    Metrics layers;
    wl->layers(layers, wall_s);
    run_microbenches(o, tracer, layers);
    layers.set("trace_overhead_frac", median(traced) / wall_s - 1.0, "ratio");
    tracer.set_enabled(false);
    tracer.write_chrome_json(o.trace_out);
    std::cout << "trace written to " << o.trace_out << "\n";
    tracer.print_self_times(std::cout);
    reported = layer_report(layers);
    print_metrics(reported);
  }

  for (const Metric& m : reported) {
    if (!std::isfinite(m.value)) {
      throw std::logic_error("metric " + m.name + " is not finite");
    }
  }
  std::ostringstream js;
  js << std::setprecision(std::numeric_limits<double>::max_digits10);
  js << "{\"correct\": " << (v.mismatch ? "false" : "true")
     << ", \"attempted\": " << v.attempted << ", \"failed\": " << v.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    js << (i > 0 ? ", " : "") << "\"" << reported[i].name
       << "\": {\"value\": " << reported[i].value << ", \"unit\": \""
       << reported[i].unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  try {
    return perf::run(perf::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "fcc_perf: " << e.what() << "\n";
    return 1;
  }
}
