#include "serve/simulator.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace fcc::serve {

double ServeReport::achieved_rps() const {
  const TimeNs span = last_end - first_arrival;
  if (span <= 0 || overall.completed == 0) return 0.0;
  return static_cast<double>(overall.completed) /
         (static_cast<double>(span) / 1e9);
}

Simulator::Simulator(gpu::Machine& machine, shmem::World& world,
                     std::vector<ServeClass> catalog, ServeConfig cfg)
    : machine_(machine),
      world_(world),
      catalog_(std::move(catalog)),
      cfg_(cfg) {
  FCC_CHECK_MSG(&world_.machine() == &machine_,
                "world must be built over the simulator's machine");
  FCC_CHECK(!catalog_.empty());
  for (const ServeClass& c : catalog_) FCC_CHECK(!c.chain.empty());
  // A bad policy fails here, not mid-run with tasks left suspended.
  FCC_CHECK_MSG(cfg_.lanes >= 1,
                "ServeConfig: lanes must be >= 1, got " << cfg_.lanes);
  check_policy(cfg_.policy);
  const TimeoutPolicy& to = cfg_.timeout;
  FCC_CHECK_MSG(to.max_retries >= 0 && to.max_retries < 63,
                "ServeConfig: timeout.max_retries must be in [0, 62], got "
                    << to.max_retries);
  // The retries back off for backoff_ns * (2^max_retries - 1) in total.
  const TimeNs max_backoff =
      std::numeric_limits<TimeNs>::max() >> to.max_retries;
  FCC_CHECK_MSG(to.backoff_ns >= 0 && to.backoff_ns <= max_backoff,
                "ServeConfig: timeout.backoff_ns must be in [0, "
                    << max_backoff << "] for timeout.max_retries = "
                    << to.max_retries << ", got " << to.backoff_ns);
  const BrownoutPolicy& bo = cfg_.brownout;
  FCC_CHECK_MSG(bo.baseline_batches >= 1,
                "ServeConfig: brownout.baseline_batches must be >= 1, got "
                    << bo.baseline_batches);
  FCC_CHECK_MSG(bo.ema_alpha > 0.0 && bo.ema_alpha <= 1.0,
                "ServeConfig: brownout.ema_alpha must be in (0, 1], got "
                    << bo.ema_alpha);
  FCC_CHECK_MSG(bo.drift_factor > 0.0,
                "ServeConfig: brownout.drift_factor must be > 0, got "
                    << bo.drift_factor);

  const std::vector<std::vector<fw::Backend>> backends = build_chains();
  lanes_.resize(static_cast<std::size_t>(cfg_.lanes));
  for (auto& per_class : lanes_) {
    for (std::size_t c = 0; c < catalog_.size(); ++c) {
      per_class.push_back(std::make_unique<fw::GraphExecutor>(
          world_, chains_[c], backends[c]));
    }
  }
}

std::vector<std::vector<fw::Backend>> Simulator::build_chains() {
  const plan::PlanCache::Stats before = cfg_.plan_cache != nullptr
                                            ? cfg_.plan_cache->stats()
                                            : plan::PlanCache::Stats{};

  plan::Planner planner;
  plan::PlanOptions options;
  options.default_backend = cfg_.backend;
  options.cache = cfg_.plan_cache;
  std::vector<std::vector<fw::Backend>> backends;
  for (const ServeClass& cls : catalog_) {
    // Each chain is a linear graph: stage i's output feeds stage i+1.
    fw::Graph g;
    fw::TensorId prev{};
    for (std::size_t s = 0; s < cls.chain.size(); ++s) {
      auto out = g.tensor(cls.name + ".t" + std::to_string(s));
      std::vector<fw::TensorId> inputs;
      if (s > 0) inputs.push_back(prev);
      g.add(cls.chain[s], inputs, {out}, cls.name + "#" + std::to_string(s));
      prev = out;
    }
    if (!cfg_.planner) {
      backends.emplace_back(cls.chain.size(), cfg_.backend);
      chains_.push_back(std::move(g));
      continue;
    }

    plan::Planned planned = planner.plan(g, machine_.config(), options);
    for (int id = 0; id < planned.graph.num_nodes(); ++id) {
      if (planned.graph.node(id).fused_away) continue;
      const bool fused = planned.backends()[static_cast<std::size_t>(id)] ==
                         fw::Backend::kFused;
      ++(fused ? plan_summary_.fused_stages : plan_summary_.baseline_stages);
    }
    ++plan_summary_.chains_planned;
    plan_summary_.passes_run +=
        static_cast<int>(planned.report.passes.size());
    plan_summary_.algo_overrides +=
        static_cast<int>(planned.plan.allreduce_algos.size());
    plan_summary_.planning_host_ns += planned.report.planning_host_ns;
    plan_reports_.push_back(std::move(planned.report));
    backends.push_back(planned.backends());
    chains_.push_back(std::move(planned.graph));
  }
  if (cfg_.plan_cache != nullptr) {
    const plan::PlanCache::Stats& after = cfg_.plan_cache->stats();
    plan_summary_.cache_hits = after.hits - before.hits;
    plan_summary_.cache_misses = after.misses - before.misses;
    plan_summary_.uncacheable = after.uncacheable - before.uncacheable;
  }
  return backends;
}

ServeReport Simulator::run(const std::vector<Arrival>& trace) {
  sim::Engine& engine = machine_.engine();
  FCC_CHECK_MSG(machine_.sharded().live_tasks() == 0,
                "serve run started with live engine tasks");
  for (std::size_t i = 0; i < trace.size(); ++i) {
    FCC_CHECK(trace[i].cls >= 0 &&
              trace[i].cls < static_cast<int>(catalog_.size()));
    FCC_CHECK(trace[i].t >= 0);
    FCC_CHECK_MSG(i == 0 || trace[i - 1].t <= trace[i].t,
                  "arrival trace must be time-sorted");
  }

  base_ = engine.now();
  batcher_ = std::make_unique<Batcher>(class_priorities(catalog_),
                                       cfg_.policy);
  work_ = std::make_unique<sim::Condition>(engine);
  closed_ = false;
  records_.assign(trace.size(), RequestRecord{});
  ema_.assign(catalog_.size(), 0.0);
  base_sum_.assign(catalog_.size(), 0);
  base_n_.assign(catalog_.size(), 0);

  arrival_proc(engine, trace);
  for (int lane = 0; lane < cfg_.lanes; ++lane) lane_proc(engine, lane);
  machine_.run_all();

  FCC_CHECK_MSG(machine_.sharded().live_tasks() == 0,
                "serving run deadlocked: " << machine_.sharded().live_tasks()
                                           << " task(s) still suspended");
  FCC_CHECK(batcher_->empty());

  ServeReport report;
  report.records = std::move(records_);
  report.plan = plan_summary_;
  report.per_class.resize(catalog_.size());
  report.first_arrival = trace.empty() ? 0 : trace.front().t;
  for (const RequestRecord& r : report.records) {
    ClassStats& cs = report.per_class[static_cast<std::size_t>(r.cls)];
    if (r.shed) {
      ++cs.shed;
      ++report.overall.shed;
      continue;
    }
    if (r.rejected) {
      ++cs.rejected;
      ++report.overall.rejected;
      continue;
    }
    FCC_CHECK_MSG(r.end >= r.start && r.start >= r.arrival,
                  "request " << r.id << " has an inconsistent timeline");
    cs.retries += r.attempts - 1;
    report.overall.retries += r.attempts - 1;
    if (r.timed_out) {
      // Served too late to count: excluded from the latency sketches (their
      // tail would be the retry budget, not the service distribution), but
      // still paces last_end — the machine did the work.
      ++cs.timeouts;
      ++report.overall.timeouts;
      report.last_end = std::max(report.last_end, r.end);
      continue;
    }
    ++cs.completed;
    ++report.overall.completed;
    cs.queue.add(r.queue_ns());
    cs.service.add(r.service_ns());
    cs.total.add(r.total_ns());
    report.overall.queue.add(r.queue_ns());
    report.overall.service.add(r.service_ns());
    report.overall.total.add(r.total_ns());
    const TimeNs slo = catalog_[static_cast<std::size_t>(r.cls)].slo_ns;
    if (slo > 0 && r.total_ns() > slo) {
      ++cs.slo_violations;
      ++report.overall.slo_violations;
    }
    report.last_end = std::max(report.last_end, r.end);
  }

  work_.reset();
  batcher_.reset();
  return report;
}

sim::Task Simulator::arrival_proc(sim::Engine& engine,
                                  const std::vector<Arrival>& trace) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    co_await sim::delay_until(engine, base_ + trace[i].t);
    const Request r{static_cast<int>(i), trace[i].cls, trace[i].t};
    RequestRecord& rec = records_[i];
    rec.id = r.id;
    rec.cls = r.cls;
    rec.arrival = r.arrival;
    if (cfg_.brownout.enabled && browned_out(r.cls)) {
      rec.shed = true;
      continue;
    }
    if (!batcher_->enqueue(r)) {
      rec.rejected = true;
      continue;
    }
    // Wake idle lanes now (the queue may have just filled a batch) and
    // again when this request's batch window expires — by then the batch
    // must dispatch even partially filled. Stale expiry ticks after the
    // request is long served are harmless no-op broadcasts.
    work_->notify_all();
    engine.schedule_at(base_ + r.arrival + cfg_.policy.window_ns, [this] {
      if (work_ != nullptr) work_->notify_all();
    });
  }
  closed_ = true;
  work_->notify_all();
}

sim::Task Simulator::lane_proc(sim::Engine& engine, int lane) {
  for (;;) {
    std::optional<Batch> batch = batcher_->poll(engine.now() - base_);
    if (batch.has_value()) {
      co_await serve_batch(lane, std::move(*batch));
      continue;
    }
    if (closed_ && batcher_->empty()) break;
    co_await work_->wait();
  }
  // Wake sibling lanes so they observe the closed queue and exit too
  // (Condition FCC_CHECKs no waiters survive the run).
  work_->notify_all();
}

sim::Co Simulator::serve_batch(int lane, Batch batch) {
  sim::Engine& engine = machine_.engine();
  const TimeNs slo = catalog_[static_cast<std::size_t>(batch.cls)].slo_ns;
  const TimeNs deadline =
      cfg_.timeout.slo_factor > 0.0 && slo > 0
          ? batch.reqs.front().arrival +
                static_cast<TimeNs>(cfg_.timeout.slo_factor *
                                    static_cast<double>(slo))
          : -1;
  fw::GraphExecutor& chain =
      *lanes_[static_cast<std::size_t>(lane)][static_cast<std::size_t>(
          batch.cls)];
  int attempts = 0;
  bool timed_out = false;
  TimeNs start = 0, end = 0;
  for (;;) {
    ++attempts;
    start = engine.now() - base_;
    co_await chain.run();
    end = engine.now() - base_;
    if (deadline < 0 || end <= deadline) break;
    if (attempts > cfg_.timeout.max_retries) {
      timed_out = true;
      break;
    }
    co_await sim::delay(engine, cfg_.timeout.backoff_ns << (attempts - 1));
  }
  note_service(batch.cls, end - start);
  for (const Request& r : batch.reqs) {
    RequestRecord& rec = records_[static_cast<std::size_t>(r.id)];
    rec.start = start;
    rec.end = end;
    rec.batch_size = static_cast<int>(batch.reqs.size());
    rec.attempts = attempts;
    rec.timed_out = timed_out;
  }
}

void Simulator::note_service(int cls, TimeNs service_ns) {
  if (!cfg_.brownout.enabled) return;
  const auto c = static_cast<std::size_t>(cls);
  if (base_n_[c] < cfg_.brownout.baseline_batches) {
    base_sum_[c] += service_ns;
    ++base_n_[c];
    ema_[c] = static_cast<double>(base_sum_[c]) / base_n_[c];
    return;
  }
  ema_[c] += cfg_.brownout.ema_alpha * (static_cast<double>(service_ns) -
                                        ema_[c]);
}

bool Simulator::browned_out(int cls) const {
  const auto c = static_cast<std::size_t>(cls);
  if (base_n_[c] < cfg_.brownout.baseline_batches) return false;
  const double healthy =
      static_cast<double>(base_sum_[c]) / base_n_[c];
  return ema_[c] > cfg_.brownout.drift_factor * healthy;
}

}  // namespace fcc::serve
