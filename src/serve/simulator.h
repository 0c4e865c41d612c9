// serve::Simulator — an open-loop serving loop over the operator registry.
//
// Where fw::Session runs one operator per call and fw::Graph overlaps a
// handful of closed-loop requests, the serving simulator feeds an *open*
// stream of arrivals (serve/arrivals.h) into one long-running engine run:
// an arrival process admits requests into a continuous Batcher
// (serve/batcher.h), and a small pool of service lanes — host-side
// schedulers sharing one gpu::Machine — pulls batches and awaits each
// class's op chain, a linear fw::Graph, on the lane's warm GraphExecutor.
// Every operator is built once (per lane x class x chain stage) and re-run
// for thousands of batches: the churn stress-test for FlagSet reuse.
//
// Accounting: per-request queue/service/total latency lands in both exact
// per-request records (golden determinism diffs) and streaming
// PercentileSketches per class (p50/p99/p999 at million-request scale
// without per-sample storage), with SLO-violation and admission-reject
// counters per tenant class.
//
// Time is run-relative: the engine clock at run() entry is the base, so
// back-to-back runs on one warm simulator report identical records for
// identical traces (asserted by tests/test_serve_churn.cc).
#pragma once

#include <memory>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "framework/graph_executor.h"
#include "gpu/machine.h"
#include "plan/plan_cache.h"
#include "plan/planner.h"
#include "serve/arrivals.h"
#include "serve/batcher.h"
#include "serve/catalog.h"
#include "shmem/world.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace fcc::serve {

/// Deadline handling for served batches. Disabled by default (slo_factor
/// 0): every batch runs once and its latency is whatever it is, the
/// pre-timeout behaviour. Enabled, a batch whose execution finishes after
/// `slo_factor x` its class SLO (measured from the oldest member's arrival)
/// is re-executed with exponential backoff up to `max_retries` times — the
/// model of a degraded fabric stalling a batch past usefulness and the
/// server trying again — and marked timed out when the budget is exhausted.
struct TimeoutPolicy {
  double slo_factor = 0.0;  // deadline = arrival + slo_factor * slo_ns; <= 0 off
  int max_retries = 1;
  TimeNs backoff_ns = 20'000;  // doubled per retry
};

/// Brownout-aware load shedding. The first `baseline_batches` per class
/// calibrate a healthy service-time baseline; afterwards an EMA tracks the
/// live service time, and while it drifts above `drift_factor x` baseline
/// the class sheds new arrivals at admission (before they ever queue).
/// Deterministic: the EMA is a pure function of the served-batch sequence.
struct BrownoutPolicy {
  bool enabled = false;
  double drift_factor = 2.0;
  double ema_alpha = 0.2;
  int baseline_batches = 4;
};

struct ServeConfig {
  BatchPolicy policy;
  /// Concurrent service lanes (batches in flight). Each lane owns its own
  /// operator instances, so lanes overlap on the machine the way Graph
  /// nodes do.
  int lanes = 2;
  fw::Backend backend = fw::Backend::kFused;
  TimeoutPolicy timeout;
  BrownoutPolicy brownout;
  /// Route each class chain through the planning pipeline at construction:
  /// per-stage fused/baseline choice on predicted win, ccl algorithm
  /// steering. Off = every stage runs on `backend` unchanged (the
  /// historical behaviour).
  bool planner = false;
  /// Optional shared PlanCache for chain plans; a warm cache makes a
  /// second simulator replay identical decisions with zero passes re-run.
  plan::PlanCache* plan_cache = nullptr;
};

/// Construction-time planning counters, RunStats-style. Copied into every
/// ServeReport so sweep tooling can log hit rates next to latency stats.
/// `planning_host_ns` is host wall-clock and is NOT part of the
/// determinism surface (byte-identical runs may differ there).
struct PlanSummary {
  int chains_planned = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t uncacheable = 0;
  int passes_run = 0;      // pass executions across all chains
  int fused_stages = 0;    // stages planned onto the fused backend
  int baseline_stages = 0; // stages planned onto the baseline
  int algo_overrides = 0;  // ccl algorithm choices applied
  double planning_host_ns = 0.0;
};

/// One request's exact timeline, run-relative ns. Rejected and shed
/// requests keep start/end at -1. Byte-comparable for determinism goldens.
struct RequestRecord {
  int id = 0;   // index in the arrival trace
  int cls = 0;  // catalog class
  TimeNs arrival = 0;
  TimeNs start = -1;  // batch service start (final attempt)
  TimeNs end = -1;    // batch service end (final attempt)
  int batch_size = 0;
  bool rejected = false;
  int attempts = 0;       // executions of the request's batch (0 if unserved)
  bool timed_out = false;  // retry budget exhausted past the deadline
  bool shed = false;       // dropped at admission by brownout shedding

  bool operator==(const RequestRecord&) const = default;

  TimeNs queue_ns() const { return start - arrival; }
  TimeNs service_ns() const { return end - start; }
  TimeNs total_ns() const { return end - arrival; }
};

struct ClassStats {
  PercentileSketch queue;    // ns
  PercentileSketch service;  // ns
  PercentileSketch total;    // ns
  std::int64_t completed = 0;  // served in time (excludes timeouts)
  std::int64_t rejected = 0;
  std::int64_t slo_violations = 0;
  std::int64_t timeouts = 0;  // served but past deadline after all retries
  std::int64_t retries = 0;   // extra batch executions (attempts - 1, summed)
  std::int64_t shed = 0;      // brownout admission drops

  bool operator==(const ClassStats&) const = default;
};

struct ServeReport {
  std::vector<RequestRecord> records;  // [trace index]
  std::vector<ClassStats> per_class;   // [cls]
  ClassStats overall;
  PlanSummary plan;  // construction-time planning counters
  TimeNs first_arrival = 0;
  TimeNs last_end = 0;

  /// Completed-request throughput over the span first_arrival..last_end.
  double achieved_rps() const;
};

class Simulator {
 public:
  /// `world` must be built over `machine`. Serial and sharded machines both
  /// work; a sharded machine must satisfy Machine::supports_fused_ops()
  /// (gpu.kernel_launch_ns >= the fabric's conservative lookahead — true
  /// for every stock fabric; fused::FusedOp's constructor checks it).
  /// Operator instances for every (lane, class, chain stage) are built here,
  /// once, through the global OpRegistry.
  Simulator(gpu::Machine& machine, shmem::World& world,
            std::vector<ServeClass> catalog, ServeConfig cfg = {});

  /// Replays `trace` (run-relative, time-sorted) to completion and returns
  /// the report. Callable repeatedly; a warm simulator reuses every
  /// operator, flag array, and engine slab from the previous run.
  ServeReport run(const std::vector<Arrival>& trace);

  const std::vector<ServeClass>& catalog() const { return catalog_; }
  const ServeConfig& config() const { return cfg_; }
  /// Construction-time planning counters (zeros when cfg.planner is off).
  const PlanSummary& plan_summary() const { return plan_summary_; }
  /// The planner's reports, one per class, in catalog order (empty when
  /// cfg.planner is off) — each explains every stage's accept/reject.
  const std::vector<plan::PlanReport>& plan_reports() const {
    return plan_reports_;
  }

 private:
  sim::Task arrival_proc(sim::Engine& engine,
                         const std::vector<Arrival>& trace);
  sim::Task lane_proc(sim::Engine& engine, int lane);
  sim::Co serve_batch(int lane, Batch batch);

  /// Brownout bookkeeping: feeds one served batch's service time into the
  /// class's baseline/EMA; queries whether admission is currently shedding.
  void note_service(int cls, TimeNs service_ns);
  bool browned_out(int cls) const;

  /// Builds each class chain as a linear graph into chains_ (lowered by the
  /// planner when cfg_.planner is on, which also fills plan_summary_ and
  /// plan_reports_) and returns each node's backend, [cls][node].
  std::vector<std::vector<fw::Backend>> build_chains();

  gpu::Machine& machine_;
  shmem::World& world_;
  std::vector<ServeClass> catalog_;
  ServeConfig cfg_;
  std::vector<fw::Graph> chains_;  // [cls], what the lanes execute
  PlanSummary plan_summary_;
  std::vector<plan::PlanReport> plan_reports_;
  /// [lane][cls]; built once, run warm per batch.
  std::vector<std::vector<std::unique_ptr<fw::GraphExecutor>>> lanes_;

  // ---- per-run state (valid only inside run()) ----
  TimeNs base_ = 0;  // engine time at run() entry; records are times - base_
  std::unique_ptr<Batcher> batcher_;
  std::unique_ptr<sim::Condition> work_;  // "queue state changed" broadcast
  bool closed_ = false;                   // arrival stream exhausted
  std::vector<RequestRecord> records_;
  // Brownout state, per class, reset each run.
  std::vector<double> ema_;          // live service-time EMA (ns)
  std::vector<TimeNs> base_sum_;     // calibration window sum
  std::vector<int> base_n_;          // calibration batches seen
};

}  // namespace fcc::serve
