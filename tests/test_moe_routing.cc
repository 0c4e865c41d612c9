// MoE dispatch plans: the flattened all_to_all_v counts, the variable
// All-to-All that ships routed tokens (paper Fig. 4 dispatch path), and the
// load balance of the synthetic routing at equal load.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "ccl/communicator.h"
#include "fused/moe_dispatch.h"
#include "gpu/machine.h"
#include "ops/gemv.h"
#include "ops/moe_routing.h"
#include "sim/task.h"

namespace fcc::ops {
namespace {

/// Synthetic routing of `tokens` tokens per PE to top-2 of `pes` experts.
std::vector<DispatchPlan> plans_for(int pes, int tokens) {
  fused::MoeDispatchConfig cfg;
  cfg.tokens_per_pe = tokens;
  cfg.top_k = 2;
  return fused::skewed_plans(cfg, pes);
}

TEST(DispatchPlan, A2avCountsFlattenPerSourcePlans) {
  const std::vector<DispatchPlan> plans = {
      {{3, 0, 5, 0}, {}, {}}, {{1, 1, 1, 1}, {}, {}}, {{0, 0, 0, 8}, {}, {}}};
  const auto counts = a2av_counts(plans, 4, /*elems_per_token=*/16);
  const std::vector<std::int64_t> want = {48, 0,  80, 0,  16, 16,
                                          16, 16, 0,  0,  0,  128};
  EXPECT_EQ(counts, want);
}

// Dispatch integration: ship every PE's routed activations with
// all_to_all_v, verify each expert receives exactly the tokens routed to it.
sim::Task drive_a2av(sim::Engine&, ccl::Communicator& comm,
                     const std::vector<std::int64_t>& counts,
                     ccl::FloatBufs send, ccl::FloatBufs recv, bool& done) {
  co_await comm.all_to_all_v(counts, std::move(send), std::move(recv));
  done = true;
}

TEST(Dispatch, AllToAllVDeliversRoutedTokens) {
  const int pes = 4, tokens = 8, d_model = 16;
  Rng rng(26);
  const auto plans = plans_for(pes, tokens);
  std::vector<std::vector<float>> acts;  // [pe][tokens * d_model]
  for (int pe = 0; pe < pes; ++pe) {
    acts.push_back(random_vector(static_cast<size_t>(tokens) * d_model, rng));
  }
  const auto counts = a2av_counts(plans, pes, d_model);

  // Pack send buffers destination-major using each plan's order.
  std::vector<std::vector<float>> send(static_cast<size_t>(pes)),
      recv(static_cast<size_t>(pes));
  for (int src = 0; src < pes; ++src) {
    for (int t : plans[static_cast<size_t>(src)].order) {
      const auto* tok =
          &acts[static_cast<size_t>(src)][static_cast<size_t>(t) * d_model];
      send[static_cast<size_t>(src)].insert(
          send[static_cast<size_t>(src)].end(), tok, tok + d_model);
    }
    std::int64_t recv_elems = 0;
    for (int s = 0; s < pes; ++s) {
      recv_elems += counts[static_cast<size_t>(s * pes + src)];
    }
    recv[static_cast<size_t>(src)].assign(static_cast<size_t>(recv_elems),
                                          -1.0f);
  }

  gpu::Machine::Config mc;
  mc.num_nodes = 1;
  mc.gpus_per_node = pes;
  gpu::Machine machine(mc);
  std::vector<PeId> members{0, 1, 2, 3};
  ccl::Communicator comm(machine, members);
  ccl::FloatBufs sb, rb;
  for (auto& s : send) sb.per_rank.emplace_back(s);
  for (auto& r : recv) rb.per_rank.emplace_back(r);
  bool done = false;
  drive_a2av(machine.engine(), comm, counts, std::move(sb), std::move(rb),
             done);
  machine.engine().run();
  ASSERT_TRUE(done);

  // Expert e's buffer = concatenation over sources of their expert-e token
  // segments, each in the source plan's order.
  for (int e = 0; e < pes; ++e) {
    std::size_t off = 0;
    for (int src = 0; src < pes; ++src) {
      const auto& p = plans[static_cast<size_t>(src)];
      for (std::int64_t i = 0; i < p.counts[static_cast<size_t>(e)]; ++i) {
        const int tok = p.order[static_cast<size_t>(
            p.offsets[static_cast<size_t>(e)] + i)];
        for (int c = 0; c < d_model; ++c, ++off) {
          ASSERT_FLOAT_EQ(
              recv[static_cast<size_t>(e)][off],
              acts[static_cast<size_t>(src)]
                  [static_cast<size_t>(tok) * d_model +
                   static_cast<size_t>(c)])
              << "expert " << e << " source " << src << " token " << tok;
        }
      }
    }
    EXPECT_EQ(off, recv[static_cast<size_t>(e)].size());
  }
}

TEST(Dispatch, EqualLoadAssumptionApproximatelyHoldsAtScale) {
  // The paper assumes uniform expert load for the fused combine; with a
  // balanced synthetic routing and many tokens, top-2 routing is
  // near-balanced.
  const int pes = 4, tokens = 2048;
  const double mean = tokens * 2.0 / pes;
  for (const DispatchPlan& plan : plans_for(pes, tokens)) {
    EXPECT_EQ(std::accumulate(plan.counts.begin(), plan.counts.end(),
                              std::int64_t{0}),
              tokens * 2);
    for (auto c : plan.counts) {
      EXPECT_GT(static_cast<double>(c), 0.3 * mean);
      EXPECT_LT(static_cast<double>(c), 2.4 * mean);
    }
  }
}

}  // namespace
}  // namespace fcc::ops
