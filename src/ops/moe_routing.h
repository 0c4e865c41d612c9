// MoE dispatch plans: the routed traffic of the paper's Fig. 4 dispatch.
//
// A DispatchPlan records where one source GPU's routed tokens go: the
// per-expert counts drive the dispatch All-to-All — bulk-synchronous via
// ccl::Communicator::all_to_all_v (see its header comment for the
// variable-chunk send/recv layout and empty-segment rules), or overlapped
// with the producer GEMM by fused::FusedMoeDispatch. fused::skewed_plans
// builds them with a controllable hot expert. Under the paper's equal-load
// assumption the combine side collapses to the uniform All-to-All that
// fused::FusedGemmAllToAll ships.
#pragma once

#include <cstdint>
#include <vector>

namespace fcc::ops {

/// Dispatch plan for one source GPU's local tokens.
struct DispatchPlan {
  /// counts[e] = number of (token, expert) assignments to expert e.
  std::vector<std::int64_t> counts;
  /// token ids grouped by destination expert (concatenated in expert order);
  /// a token appears once per selected expert.
  std::vector<int> order;
  /// Offset of expert e's segment within `order`.
  std::vector<std::int64_t> offsets;
};

/// Flattened all_to_all_v counts for `plans.size()` GPUs, GPU src
/// contributing `plans[src]`: counts[src * num_experts + e] in *elements*
/// given `elems_per_token` payload per routed token.
std::vector<std::int64_t> a2av_counts(const std::vector<DispatchPlan>& plans,
                                      int num_experts,
                                      std::int64_t elems_per_token);

}  // namespace fcc::ops
