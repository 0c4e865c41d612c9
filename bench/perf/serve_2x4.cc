// serve_2x4: open-loop Poisson streams of the 3-class serving catalog on
// 2 nodes x 4 GPUs, planner on with a shared PlanCache. A pass serves a
// light stream and a knee stream on the warm simulator. Arrivals are
// injected at their exact simulated times, so generator lag is zero by
// construction. The only workload where batching, concurrent lanes, warm
// spawn() churn and plan decisions set the result. The traced run also
// bisects the offered rate for the highest one that meets the latency
// limit with zero rejects.
//
// The inputs are fixed; the run's seed does not change them. Every stream
// comes from one Poisson draw, scaled to its rate. With 1000 requests at
// 30k req/s, p99 moves by 3-6% and the mean by 2% from one arrival draw to
// another, and permuted stratified gaps or periodic arrivals with a drawn
// class order do not steady it. Seeding the MoE class's routing changes
// its per-expert token counts: on 3 of 10 seeds p99 moved by up to 1.3%
// and peak RSS went from 9.7 to 13.1 MB. Either would leave no bound that
// still catches a 1% change in the model.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "gpu/machine.h"
#include "harness.h"
#include "plan/plan_cache.h"
#include "serve/arrivals.h"
#include "serve/catalog.h"
#include "serve/simulator.h"
#include "shmem/world.h"

namespace perf {
namespace {

using namespace fcc;

constexpr double kLightRps = 10'000;
constexpr double kKneeRps = 30'000;
constexpr double kProbeLoRps = 20'000;
constexpr double kProbeHiRps = 60'000;
constexpr int kProbes = 5;
constexpr TimeNs kP99LimitNs = 1'500'000;  // serve.max_rps latency limit
constexpr std::uint64_t kArrivalSeed = 0x5e12f00d;

gpu::Machine::Config two_by_four() {
  gpu::Machine::Config mc;
  mc.num_nodes = 2;
  mc.gpus_per_node = 4;
  return mc;
}

/// A machine, its world, and a planned simulator over them.
struct Server {
  std::unique_ptr<gpu::Machine> machine;
  std::unique_ptr<shmem::World> world;
  std::unique_ptr<serve::Simulator> sim;
};

std::int64_t unserved(const serve::ServeReport& r) {
  return r.overall.rejected + r.overall.timeouts + r.overall.shed;
}

TimeNs p(const PercentileSketch& s, double pct) {
  return s.empty() ? 0 : s.percentile(pct);
}

/// Total latencies of the served requests, ns, ascending.
std::vector<double> served_totals(const serve::ServeReport& r) {
  std::vector<double> t;
  for (const serve::RequestRecord& rec : r.records) {
    if (rec.rejected || rec.shed || rec.timed_out) continue;
    t.push_back(static_cast<double>(rec.total_ns()));
  }
  std::sort(t.begin(), t.end());
  return t;
}

/// Exact nearest-rank percentile of the served total latencies, us. The
/// report's sketches bucket at a few percent, coarser than a 1% bound.
double total_percentile_us(const serve::ServeReport& r, double pct) {
  const std::vector<double> t = served_totals(r);
  if (t.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(t.size())));
  return t[std::clamp<std::size_t>(rank, 1, t.size()) - 1] * 1e-3;
}

/// Mean total latency of the served requests, ns.
double mean_total(const serve::ServeReport& r) {
  const std::vector<double> t = served_totals(r);
  double sum = 0;
  for (const double x : t) sum += x;
  return t.empty() ? 0.0 : sum / static_cast<double>(t.size());
}

class Serve2x4 final : public Workload {
 public:
  Serve2x4(const Options& o, Tracer& t)
      : opts_(o),
        tracer_(t),
        requests_(o.smoke ? 50 : 1000),
        catalog_(serve::default_catalog(8)),
        weights_(serve::class_weights(catalog_)) {}

  void setup() override {
    server_.reset();
    cache_ = std::make_unique<plan::PlanCache>();
    server_ = build(*cache_);
    light_ = stream(kLightRps);
    knee_ = stream(kKneeRps);
    first_knee_.clear();
    knee_mismatches_ = 0;
    served_ = 0;
    unserved_ = 0;
    accounted_ = true;
  }

  void pass() override {
    stats_ = {};
    const std::int64_t puts0 = server_->world->puts_issued();
    light_report_ = run(light_, "light");
    const auto knee0 = Clock::now();
    knee_report_ = run(knee_, "knee");
    knee_host_s_ = seconds_since(knee0);
    puts_ = server_->world->puts_issued() - puts0;

    if (first_knee_.empty()) {
      first_knee_ = knee_report_.records;
    } else if (knee_report_.records != first_knee_) {
      ++knee_mismatches_;
    }
    for (const serve::ServeReport* r : {&light_report_, &knee_report_}) {
      served_ += static_cast<std::int64_t>(r->records.size());
      unserved_ += unserved(*r);
      accounted_ &= r->overall.completed + unserved(*r) ==
                    static_cast<std::int64_t>(r->records.size());
    }
  }

  void verify(Verify& v) override {
    v.count(served_, unserved_);
    v.check(accounted_,
            "serve_2x4: completed + rejected + timed-out + shed != attempted");
    v.check(knee_mismatches_ == 0,
            "serve_2x4: a warm rerun of the knee trace changed its records");

    // Warm planning: a second server on the now-warm cache must hit for
    // every chain, re-run no pass, and serve the knee trace identically.
    const auto warm = build(*cache_);
    warm_summary_ = warm->sim->plan_summary();
    v.check(warm_summary_.cache_hits == warm_summary_.chains_planned &&
                warm_summary_.passes_run == 0,
            "serve_2x4: warm PlanCache did not replay every chain");
    v.check(warm->sim->run(knee_).records == first_knee_,
            "serve_2x4: warm-planned server diverged on the knee trace");
  }

  /// Tail latency at the knee rate, and how much the mean latency grows
  /// from the light to the knee rate.
  void end_to_end(Metrics& m) override {
    m.set("sim_us", total_percentile_us(knee_report_, 99), "sim_us");
    m.set("sim_ratio", mean_total(knee_report_) / mean_total(light_report_),
          "ratio");
  }

  void layers(Metrics& m, double pass_wall_s) override {
    Occupancy occ;
    occ.add(*server_->machine);
    engine_layers(m, stats_, pass_wall_s);
    occupancy_layers(m, occ);
    m.set("shmem.puts", static_cast<double>(puts_), "count");

    const serve::PlanSummary& cold = server_->sim->plan_summary();
    const double chains = std::max(1, cold.chains_planned);
    m.set("plan.cold_us", cold.planning_host_ns * 1e-3 / chains, "us");
    const serve::PlanSummary& warm = warm_summary_;
    m.set("plan.warm_us", warm.planning_host_ns * 1e-3 / chains, "us");
    const double lookups =
        static_cast<double>(warm.cache_hits + warm.cache_misses);
    m.set("plan.hit_rate",
          lookups > 0 ? static_cast<double>(warm.cache_hits) / lookups : 0.0,
          "ratio");
    m.set("plan.baseline_stages", cold.baseline_stages, "count");

    const serve::ServeReport& k = knee_report_;
    double batches = 0;
    for (const serve::RequestRecord& r : k.records) {
      if (r.batch_size > 0) batches += 1.0 / r.batch_size;
    }
    const double attempted = static_cast<double>(k.records.size());
    m.set("serve.batches", batches, "count");
    m.set("serve.mean_batch",
          batches > 0 ? static_cast<double>(k.overall.completed) / batches : 0,
          "count");
    m.set("serve.queue_p99_us",
          static_cast<double>(p(k.overall.queue, 99)) * 1e-3, "sim_us");
    m.set("serve.service_p99_us",
          static_cast<double>(p(k.overall.service, 99)) * 1e-3, "sim_us");
    m.set("serve.rejects", static_cast<double>(k.overall.rejected), "count");
    m.set("serve.host_us_per_batch",
          batches > 0 ? knee_host_s_ * 1e6 / batches : 0, "us");
    m.set("serve.p50_us", total_percentile_us(k, 50), "sim_us");
    m.set("serve.p99_light_us", total_percentile_us(light_report_, 99),
          "sim_us");
    m.set("serve.slo_goodput",
          attempted > 0 ? static_cast<double>(k.overall.completed -
                                              k.overall.slo_violations) /
                              attempted
                        : 0,
          "ratio");
    m.set("serve.max_rps", max_rps(), "req/s");
  }

 private:
  std::unique_ptr<Server> build(plan::PlanCache& cache) {
    auto s = std::make_unique<Server>();
    {
      auto span = tracer_.span("gpu", "Machine::Machine");
      s->machine = std::make_unique<gpu::Machine>(two_by_four());
    }
    {
      auto span = tracer_.span("shmem", "World::World");
      s->world = std::make_unique<shmem::World>(*s->machine);
    }
    serve::ServeConfig cfg;
    cfg.planner = true;
    cfg.plan_cache = &cache;
    auto span = tracer_.span("serve", "Simulator::Simulator (plans chains)");
    s->sim = std::make_unique<serve::Simulator>(*s->machine, *s->world,
                                                catalog_, cfg);
    return s;
  }

  /// Bisection over the offered rate for the highest one with p99 within
  /// the limit and no request refused.
  double max_rps() {
    double lo = kProbeLoRps, hi = kProbeHiRps;
    for (int i = 0; i < (opts_.smoke ? 2 : kProbes); ++i) {
      const double mid = 0.5 * (lo + hi);
      const serve::ServeReport r = run(stream(mid), "probe");
      const bool ok = unserved(r) == 0 &&
                      total_percentile_us(r, 99) * 1e3 <= kP99LimitNs;
      (ok ? lo : hi) = mid;
    }
    return lo;
  }

  /// The fixed Poisson stream at `rps`: the same draw at every rate, so
  /// the streams differ only in how far apart the arrivals are.
  std::vector<serve::Arrival> stream(double rps) const {
    return serve::poisson_trace(rps, requests_, kArrivalSeed, weights_);
  }

  serve::ServeReport run(const std::vector<serve::Arrival>& trace,
                         const char* what) {
    auto span = tracer_.span("serve", std::string("Simulator::run ") + what);
    serve::ServeReport r = server_->sim->run(trace);
    stats_.add(server_->machine->last_run_stats());
    return r;
  }

  const Options& opts_;
  Tracer& tracer_;
  const int requests_;
  const std::vector<serve::ServeClass> catalog_;
  const std::vector<double> weights_;

  std::unique_ptr<plan::PlanCache> cache_;
  std::unique_ptr<Server> server_;  // declared after the cache it points to
  std::vector<serve::Arrival> light_, knee_;

  serve::ServeReport light_report_, knee_report_;
  std::vector<serve::RequestRecord> first_knee_;
  double knee_host_s_ = 0;
  std::int64_t puts_ = 0;
  RunStatsSum stats_;

  std::int64_t knee_mismatches_ = 0;
  std::int64_t served_ = 0;
  std::int64_t unserved_ = 0;
  bool accounted_ = true;

  serve::PlanSummary warm_summary_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_2x4(const Options& o, Tracer& t) {
  return std::make_unique<Serve2x4>(o, t);
}

}  // namespace perf
