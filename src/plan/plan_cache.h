// LRU cache of planning decisions keyed on canonical fingerprints.
//
// Keys are the full canonical strings (graph shape | topology | planner
// mode) — deliberately not hashes, so two distinct plans can never collide
// into one entry; memory is bounded by the LRU capacity instead. A hit
// returns the recorded decisions (fused collapses, per-node backends, ccl
// algorithm choices) plus the decision log for the report; the planner
// replays them mechanically with zero passes re-run.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "ccl/communicator.h"
#include "framework/graph.h"
#include "framework/op_registry.h"

namespace fcc::plan {

/// A collective-algorithm override recorded for one node.
struct AlgoChoice {
  int node = -1;
  ccl::AllReduceAlgo algo = ccl::AllReduceAlgo::kTwoPhaseDirect;
};

/// The planner's complete, replayable decision set for one graph on one
/// machine. Indices refer to node ids of the *unlowered* input graph
/// (lowering keeps ids stable; fused-away slots just stop mattering).
struct Plan {
  std::vector<fw::FusedRewrite> fused_rewrites;
  /// Backend per node id; covers every node, fused-away slots ignored.
  std::vector<fw::Backend> backends;
  std::vector<AlgoChoice> allreduce_algos;
};

/// One scored candidate's accept/reject record (PlanReport line item).
struct PlanDecision {
  std::string pass;   // pass that produced the decision
  int node = -1;      // node id in the lowered graph
  std::string op;
  std::string label;
  double predicted_fused_ns = 0.0;
  double predicted_baseline_ns = 0.0;
  bool calibrated = false;
  bool accepted = false;  // the non-default choice was applied
  std::string choice;     // "fused", "baseline", or an allreduce algo name
  std::string why;        // one-line human rationale
};

class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 128);

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    /// Lookups refused because the graph fingerprint was inexact (an op
    /// without a shape_key) — counted separately from misses because
    /// inserting such a plan would alias distinct graphs.
    std::int64_t uncacheable = 0;

    double hit_rate() const {
      const double total = static_cast<double>(hits + misses);
      return total > 0 ? static_cast<double>(hits) / total : 0.0;
    }
  };

  struct Entry {
    Plan plan;
    std::vector<PlanDecision> decisions;
  };

  /// Returns the cached entry and bumps it most-recent, or nullptr (and
  /// counts a miss). The pointer is invalidated by the next insert().
  const Entry* find(const std::string& key);
  void insert(const std::string& key, Entry entry);
  void note_uncacheable() { ++stats_.uncacheable; }

  const Stats& stats() const { return stats_; }
  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  /// Most-recent first; the map points into the list.
  std::list<std::pair<std::string, Entry>> lru_;
  std::map<std::string, std::list<std::pair<std::string, Entry>>::iterator>
      entries_;
  Stats stats_;
};

}  // namespace fcc::plan
