// Determinism regression suite for the simulation core.
//
// The engine's contract is bit-reproducibility: events fire in (time,
// insertion-sequence) order, so a given workload produces exactly one
// simulated timeline. The golden numbers below were recorded from the seed
// engine (std::priority_queue + Condition broadcast wakeups); any engine or
// wakeup-protocol rewrite must reproduce them exactly — host-side speed may
// change, simulated nanoseconds may not.
//
// The traces intentionally mix operators on one engine (gemv_allreduce and
// moe_dispatch under 4x expert skew interleave their events) so that any
// change in same-time event ordering, wakeup targeting, or heap pop order
// shifts at least one recorded timestamp.
#include <gtest/gtest.h>

#include <cstdint>
#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "dlrm/model.h"
#include "framework/session.h"
#include "fused/embedding_a2a.h"
#include "fused/gemm_a2a.h"
#include "fused/gemv_allreduce.h"
#include "fused/moe_dispatch.h"
#include "gpu/machine.h"
#include "shmem/sym_array.h"
#include "shmem/world.h"
#include "sim/task.h"
#include "sweep_runner.h"

namespace fcc {
namespace {

/// Everything observable about one simulation that depends on the full
/// event cascade: end-to-end times, per-PE completion stamps, per-device
/// busy time, the PUT counts, and the number of engine events fired (so a
/// refactor that must keep the event stream identical is checked, not
/// assumed).
struct TimingTrace {
  TimeNs final_now = 0;
  std::size_t events = 0;
  std::int64_t puts = 0;
  std::int64_t callback_free_puts = 0;  // subset of puts; fire no event
  std::vector<TimeNs> op_end;             // per spawned operator
  std::vector<std::vector<TimeNs>> pe_end;  // per operator, per PE
  std::vector<TimeNs> busy;               // per device busy_ns

  bool operator==(const TimingTrace&) const = default;

  std::string str() const {
    std::ostringstream os;
    os << "final_now=" << final_now << " events=" << events
       << " puts=" << puts << " callback_free_puts=" << callback_free_puts
       << "\n";
    for (std::size_t i = 0; i < op_end.size(); ++i) {
      os << "op" << i << " end=" << op_end[i];
      if (i < pe_end.size()) {
        os << " pe_end={";
        for (auto t : pe_end[i]) os << t << ",";
        os << "}";
      }
      os << "\n";
    }
    os << "busy={";
    for (auto b : busy) os << b << ",";
    os << "}";
    return os.str();
  }
};

sim::Task spawn_op(sim::Engine&, fused::FusedOp& op) { co_await op.run(); }

TimingTrace collect(gpu::Machine& m, shmem::World& w,
                    std::vector<fused::FusedOp*> ops) {
  for (auto* op : ops) spawn_op(m.engine(), *op);
  const std::size_t events = m.engine().run();
  EXPECT_EQ(m.engine().live_tasks(), 0);
  TimingTrace tr;
  tr.final_now = m.engine().now();
  tr.events = events;
  tr.puts = w.puts_issued();
  tr.callback_free_puts = w.callback_free_puts();
  for (auto* op : ops) {
    tr.op_end.push_back(op->result().end);
    tr.pe_end.push_back(op->result().pe_end);
  }
  for (PeId pe = 0; pe < m.num_pes(); ++pe) {
    tr.busy.push_back(m.device(pe).busy_ns());
  }
  return tr;
}

/// gemv_allreduce and moe_dispatch (4x hot expert) sharing one engine.
TimingTrace mixed_workload() {
  gpu::Machine::Config mc;
  mc.num_nodes = 1;
  mc.gpus_per_node = 4;
  gpu::Machine m(mc);
  shmem::World w(m);

  fused::GemvAllReduceConfig gcfg;
  gcfg.m = 2048;
  gcfg.k_global = 4096;
  gcfg.functional = false;

  fused::MoeDispatchConfig dcfg;
  dcfg.tokens_per_pe = 256;
  dcfg.d_model = 512;
  dcfg.d_out = 512;
  dcfg.hot_expert_factor = 4.0;
  dcfg.functional = false;

  fused::FusedGemvAllReduce gemv(w, gcfg, nullptr);
  fused::FusedMoeDispatch moe(w, dcfg, nullptr);
  return collect(m, w, {&gemv, &moe});
}

/// Baselines under the same mixing (stream kernels and ccl collectives).
TimingTrace mixed_baselines() {
  gpu::Machine::Config mc;
  mc.num_nodes = 1;
  mc.gpus_per_node = 4;
  gpu::Machine m(mc);
  shmem::World w(m);

  fused::GemvAllReduceConfig gcfg;
  gcfg.m = 2048;
  gcfg.k_global = 4096;
  gcfg.functional = false;

  fused::MoeDispatchConfig dcfg;
  dcfg.tokens_per_pe = 256;
  dcfg.d_model = 512;
  dcfg.d_out = 512;
  dcfg.hot_expert_factor = 4.0;
  dcfg.functional = false;

  fused::BaselineGemvAllReduce gemv(w, gcfg, nullptr);
  fused::BaselineMoeDispatch moe(w, dcfg, nullptr);
  return collect(m, w, {&gemv, &moe});
}

/// Cross-node embedding+A2A (RDMA path, persistent KernelRun, sliceRdy).
TimingTrace internode_embedding() {
  gpu::Machine::Config mc;
  mc.num_nodes = 2;
  mc.gpus_per_node = 1;
  gpu::Machine m(mc);
  shmem::World w(m);

  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = 2;
  cfg.map.tables_per_pe = 16;
  cfg.map.global_batch = 128;
  cfg.map.dim = 64;
  cfg.map.vectors_per_slice = 8;
  cfg.pooling = 16;
  cfg.functional = false;

  fused::FusedEmbeddingAllToAll emb(w, cfg, nullptr);
  return collect(m, w, {&emb});
}

/// Embedding+A2A with more than one remote destination per PE. For the
/// fused op the communication-aware order staggers destinations: `mc` is a
/// 4x4 torus (inter-node only, deferred ring links) or 2x4 fully connected
/// (zero-copy intra-node blocks behind RDMA inter-node ones). The baseline
/// runs its per-table kernels on one stream per PE.
template <typename Op = fused::FusedEmbeddingAllToAll>
TimingTrace staggered_embedding(
    const gpu::Machine::Config& mc,
    gpu::SchedulePolicy policy = gpu::SchedulePolicy::kCommAware) {
  gpu::Machine m(mc);
  shmem::World w(m);

  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = m.num_pes();
  cfg.map.tables_per_pe = 8;
  cfg.map.global_batch = 64 * m.num_pes();
  cfg.map.dim = 256;
  cfg.map.vectors_per_slice = 32;
  cfg.policy = policy;
  cfg.functional = false;

  Op emb(w, cfg, nullptr);
  return collect(m, w, {&emb});
}

/// Tile-DSL GEMM+A2A on 1x4. The baseline runs a local GEMM, a sync and a
/// ccl All-to-All; the fused op issues tile PUTs, a fence, and remote
/// atomic-add arrival counters.
template <typename Op>
TimingTrace gemm_a2a_1x4() {
  gpu::Machine::Config mc;
  mc.num_nodes = 1;
  mc.gpus_per_node = 4;
  gpu::Machine m(mc);
  shmem::World w(m);

  fused::GemmA2AConfig cfg;
  cfg.rows_per_origin = 256;
  cfg.d_model = 256;
  cfg.d_ff = 512;
  cfg.functional = false;

  Op gemm(w, cfg, nullptr);
  return collect(m, w, {&gemm});
}

/// Fused GEMV+AllReduce (tile PUTs to each tile's owner, then the per-slot
/// arrival and broadcast flags to every peer), m=2048, k=4096 unless `cfg`
/// says otherwise.
TimingTrace fused_gemv(const gpu::Machine::Config& mc,
                       fused::GemvAllReduceConfig cfg = {.m = 2048,
                                                         .k_global = 4096}) {
  gpu::Machine m(mc);
  shmem::World w(m);
  cfg.functional = false;
  fused::FusedGemvAllReduce gemv(w, cfg, nullptr);
  return collect(m, w, {&gemv});
}

/// DLRM forward on `mc`: bottom-MLP GEMM kernels (gpu::KernelRun over
/// output tiles) overlapped with the embedding+A2A, then interaction and
/// top MLP. op_end holds the DlrmResult timing fields in order: emb_a2a
/// end, bottom_mlp_ns, top_mlp_ns, total_ns.
TimingTrace dlrm_forward(const gpu::Machine::Config& mc, fw::Backend backend) {
  fw::Session s(mc);
  dlrm::DlrmConfig cfg;
  cfg.emb.map.num_pes = s.machine().num_pes();
  cfg.emb.map.tables_per_pe = 16;
  cfg.emb.map.global_batch = 512;
  cfg.emb.map.dim = 64;
  cfg.emb.map.vectors_per_slice = 32;
  cfg.emb.pooling = 64;
  cfg.emb.functional = false;
  cfg.dense_dim = 6;
  cfg.bottom_mlp = {128, 64};  // output 64 == emb dim
  cfg.top_mlp = {16, 1};
  cfg.backend = backend;
  const dlrm::DlrmResult r = dlrm::DlrmModel(s, cfg).forward(1);
  EXPECT_EQ(s.machine().engine().live_tasks(), 0);
  TimingTrace tr;
  tr.final_now = s.machine().engine().now();
  tr.events = r.events;
  tr.puts = s.world().puts_issued();
  tr.callback_free_puts = s.world().callback_free_puts();
  tr.op_end = {r.emb_a2a.end, r.bottom_mlp_ns, r.top_mlp_ns, r.total_ns};
  tr.pe_end = {r.emb_a2a.pe_end};
  for (PeId pe = 0; pe < s.machine().num_pes(); ++pe) {
    tr.busy.push_back(s.machine().device(pe).busy_ns());
  }
  return tr;
}

gpu::Machine::Config torus_4x4() {
  gpu::Machine::Config mc;
  mc.num_nodes = 16;
  mc.gpus_per_node = 1;
  mc.topology.kind = hw::TopologySpec::Kind::kTorus2D;
  mc.topology.torus.dim_x = 4;
  mc.topology.torus.dim_y = 4;
  return mc;
}

gpu::Machine::Config fc_2x4() {
  gpu::Machine::Config mc;
  mc.num_nodes = 2;
  mc.gpus_per_node = 4;
  return mc;
}

gpu::Machine::Config fc_1x4() {
  gpu::Machine::Config mc;
  mc.num_nodes = 1;
  mc.gpus_per_node = 4;
  return mc;
}

gpu::Machine::Config switched_2x4() {
  gpu::Machine::Config mc = fc_2x4();
  mc.topology.kind = hw::TopologySpec::Kind::kSwitchedNode;
  return mc;
}

/// Functional fused embedding on 1x4 with zero-copy off: every remote
/// slice takes the staged intra-node path (one store-issued PUT of the
/// whole slice from the staging buffer, a fence, the flag). Its output
/// must equal the baseline's, bit for bit.
TimingTrace staged_embedding_1x4() {
  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = 4;
  cfg.map.tables_per_pe = 4;
  cfg.map.global_batch = 128;
  cfg.map.dim = 32;
  cfg.map.vectors_per_slice = 8;
  cfg.pooling = 8;
  cfg.rows_per_table = 256;
  cfg.zero_copy = false;
  cfg.functional = true;

  gpu::Machine m(fc_1x4());
  shmem::World w(m);
  shmem::SymArray<float> out(4, cfg.map.dest_elems());
  auto data = fused::EmbeddingA2AData::random(cfg, &out, /*seed=*/7);
  fused::FusedEmbeddingAllToAll emb(w, cfg, &data);
  const TimingTrace t = collect(m, w, {&emb});

  gpu::Machine mb(fc_1x4());
  shmem::World wb(mb);
  shmem::SymArray<float> out_b(4, cfg.map.dest_elems());
  data.output = &out_b;
  fused::BaselineEmbeddingAllToAll(wb, cfg, &data).run_to_completion();
  for (PeId pe = 0; pe < 4; ++pe) {
    const auto f = out.pe(pe);
    const auto b = out_b.pe(pe);
    EXPECT_TRUE(std::equal(f.begin(), f.end(), b.begin(), b.end()))
        << "pe " << pe;
  }
  return t;
}

// Golden traces recorded from the seed engine. FCC_GOLDEN markers below are
// grep anchors for re-recording (print the actual on mismatch). The event
// counts were added later, recorded while every logical WG still ran in
// its own coroutine frame.
//
// Since then a PUT without a delivery callback fires no engine event: each
// golden with such PUTs was re-recorded in `events` only, and its event
// count from before must be exactly that many events higher.
void expect_events_before(const TimingTrace& t, std::size_t before) {
  EXPECT_EQ(t.events + static_cast<std::size_t>(t.callback_free_puts),
            before);
}

TEST(SimDeterminism, MixedFusedWorkloadMatchesSeedEngine) {
  const TimingTrace t = mixed_workload();
  TimingTrace g;
  // FCC_GOLDEN mixed_fused
  g.final_now = 253715;
  g.events = 12246;
  g.callback_free_puts = 1008;
  g.puts = 4320;
  g.op_end = {20422, 253715};
  g.pe_end = {{18122, 18272, 18422, 17743}, {251715, 251715, 251715, 251715}};
  g.busy = {18635861, 18640478, 18640207, 18639987};
  EXPECT_EQ(t, g) << "actual:\n" << t.str();
  expect_events_before(t, 13254);
}

TEST(SimDeterminism, MixedBaselineWorkloadMatchesSeedEngine) {
  const TimingTrace t = mixed_baselines();
  TimingTrace g;
  // FCC_GOLDEN mixed_baseline
  g.final_now = 260195;
  g.events = 1052;
  g.puts = 0;
  g.op_end = {34995, 260195};
  g.pe_end = {{34995, 34995, 34995, 34995}, {260195, 260195, 260195, 260195}};
  g.busy = {14941483, 14941483, 14941483, 14941483};
  EXPECT_EQ(t, g) << "actual:\n" << t.str();
}

TEST(SimDeterminism, InternodeEmbeddingMatchesSeedEngine) {
  const TimingTrace t = internode_embedding();
  TimingTrace g;
  // FCC_GOLDEN internode_embedding
  g.final_now = 73040;
  g.events = 9534;
  g.callback_free_puts = 256;
  g.puts = 512;
  g.op_end = {73040};
  g.pe_end = {{71040, 71040}};
  g.busy = {3313923, 3313923};
  EXPECT_EQ(t, g) << "actual:\n" << t.str();
  expect_events_before(t, 9790);
}

// Recorded with the staggered destination order that
// SliceMap::comm_aware_blocks keeps as a block sequence, over the torus's
// shift order. On this 4x4 torus each order since the (self + k) ring
// shift (uniform 2D shifts, then odd-coloured sources mirrored) moved when
// individual slices arrive, and so the event count, but no timestamp, busy
// time or PUT count: the mirrored order added one event.

TEST(SimDeterminism, TorusEmbeddingMatchesGolden) {
  const TimingTrace t = staggered_embedding(torus_4x4());
  TimingTrace g;
  // FCC_GOLDEN torus_embedding
  g.final_now = 345771;
  g.events = 277929;
  g.callback_free_puts = 3840;
  g.puts = 7680;
  g.op_end = {345771};
  g.pe_end = {std::vector<TimeNs>(16, 343771)};
  g.busy = std::vector<TimeNs>(16, 203996928);
  EXPECT_EQ(t, g) << "actual:\n" << t.str();
  expect_events_before(t, 281769);
}

TEST(SimDeterminism, Fc2x4EmbeddingMatchesGolden) {
  const TimingTrace t = staggered_embedding(fc_2x4());
  TimingTrace g;
  // FCC_GOLDEN fc2x4_embedding
  g.final_now = 445270;
  g.events = 81538;
  g.callback_free_puts = 12800;
  g.puts = 13696;
  g.op_end = {445270};
  g.pe_end = {{176515, 233606, 338438, 443270, 176515, 233606, 338438,
               443270}};
  g.busy = std::vector<TimeNs>(8, 99005464);
  EXPECT_EQ(t, g) << "actual:\n" << t.str();
  expect_events_before(t, 94338);
}

// Recorded before slot bodies posted their PUTs after the issue delay
// instead of awaiting one PUT object: the only golden on the staged
// intra-node slice path, with delivery callbacks carrying the data.
TEST(SimDeterminism, Fc1x4StagedEmbeddingMatchesGolden) {
  const TimingTrace t = staged_embedding_1x4();
  TimingTrace g;
  // FCC_GOLDEN fc1x4_staged_embedding
  g.final_now = 7579;
  g.events = 5315;
  g.callback_free_puts = 0;
  g.puts = 384;
  g.op_end = {7579};
  g.pe_end = {std::vector<TimeNs>(4, 5579)};
  g.busy = std::vector<TimeNs>(4, 179380);
  EXPECT_EQ(t, g) << "actual:\n" << t.str();
}

// Recorded before the baselines shared one bulk-synchronous run script;
// re-recorded when the flat pairwise schedule became the only All-to-All
// (on this 2x4 span the baseline's All-to-All was node-aggregated before);
// `events` re-recorded (-64) when the per-table kernels stopped handing off
// through a stream item's completion event: one fewer event per kernel.
TEST(SimDeterminism, Fc2x4BaselineEmbeddingMatchesGolden) {
  const TimingTrace t =
      staggered_embedding<fused::BaselineEmbeddingAllToAll>(fc_2x4());
  TimingTrace g;
  // FCC_GOLDEN fc2x4_baseline_embedding
  g.final_now = 633870;
  g.events = 32910;
  g.puts = 0;
  g.op_end = {633870};
  g.pe_end = {std::vector<TimeNs>(8, 633870)};
  g.busy = std::vector<TimeNs>(8, 65237032);
  EXPECT_EQ(t, g) << "actual:\n" << t.str();
}

TEST(SimDeterminism, BaselineGemmA2AMatchesGolden) {
  const TimingTrace t = gemm_a2a_1x4<fused::BaselineGemmAllToAll>();
  TimingTrace g;
  // FCC_GOLDEN baseline_gemm_a2a
  g.final_now = 253156;
  g.events = 526;
  g.puts = 0;
  g.op_end = {253156};
  g.pe_end = {std::vector<TimeNs>(4, 253156)};
  g.busy = std::vector<TimeNs>(4, 14117440);
  EXPECT_EQ(t, g) << "actual:\n" << t.str();
}

// Recorded before the GPU compute, busy-wait, PUT and fence primitives
// became plain awaiters.

TEST(SimDeterminism, FusedGemmA2AMatchesGolden) {
  const TimingTrace t = gemm_a2a_1x4<fused::FusedGemmAllToAll>();
  TimingTrace g;
  // FCC_GOLDEN fused_gemm_a2a
  g.final_now = 243875;
  g.events = 1366;
  g.callback_free_puts = 192;
  g.puts = 384;
  g.op_end = {243875};
  g.pe_end = {std::vector<TimeNs>(4, 241875)};
  g.busy = std::vector<TimeNs>(4, 14131840);
  EXPECT_EQ(t, g) << "actual:\n" << t.str();
  expect_events_before(t, 1558);
}

TEST(SimDeterminism, Fc2x4FusedGemvMatchesGolden) {
  const TimingTrace t = fused_gemv(fc_2x4());
  TimingTrace g;
  // FCC_GOLDEN fc2x4_fused_gemv
  g.final_now = 1160492;
  g.events = 42658;
  g.callback_free_puts = 1792;
  g.puts = 16128;
  g.op_end = {1160492};
  g.pe_end = {{1157242, 1157492, 1157742, 1157992, 1157742, 1157992, 1158242,
               1158492}};
  g.busy = {719190, 719220, 719248, 719272, 719291, 719311, 719327, 719345};
  EXPECT_EQ(t, g) << "actual:\n" << t.str();
  expect_events_before(t, 44450);
}

// Fused GEMV goldens the fc2x4 one does not reach. Five slots over 16
// tiles of 16 rows (the last has 10): uneven per-slot tile lists, and a
// slot that owns no tile on some PEs.
TEST(SimDeterminism, Fc1x4UnevenFusedGemvMatchesGolden) {
  const TimingTrace t =
      fused_gemv(fc_1x4(), {.m = 250,
                            .k_global = 1024,
                            .tile_rows = 16,
                            .occupancy_slots_override = 5});
  TimingTrace g;
  // FCC_GOLDEN fc1x4_uneven_fused_gemv
  g.final_now = 10065;
  g.events = 605;
  g.callback_free_puts = 96;
  g.puts = 216;
  g.op_end = {10065};
  g.pe_end = {{7765, 7915, 8065, 8065}};
  g.busy = {11185, 11184, 11184, 11184};
  EXPECT_EQ(t, g) << "actual:\n" << t.str();
}

TEST(SimDeterminism, Switched2x4FusedGemvMatchesGolden) {
  const TimingTrace t =
      fused_gemv(switched_2x4(), {.m = 4096, .k_global = 4096});
  TimingTrace g;
  // FCC_GOLDEN switched2x4_fused_gemv
  g.final_now = 2312842;
  g.events = 85300;
  g.callback_free_puts = 3584;
  g.puts = 32256;
  g.op_end = {2312842};
  g.pe_end = {{2309593, 2309843, 2310093, 2310343, 2310092, 2310342, 2310592,
               2310842}};
  g.busy = {1961048, 1961158, 1961240, 1961310,
            1961376, 1961421, 1961468, 1961510};
  EXPECT_EQ(t, g) << "actual:\n" << t.str();
}

// Recorded before KernelRun stopped owning a WG order: the two callers no
// other golden reaches, the DLRM MLP kernels and the fused embedding under
// the oblivious (identity) schedule.

TEST(SimDeterminism, Fc2x4ObliviousEmbeddingMatchesGolden) {
  const TimingTrace t = staggered_embedding(
      fc_2x4(), gpu::SchedulePolicy::kOblivious);
  TimingTrace g;
  // FCC_GOLDEN fc2x4_oblivious_embedding
  g.final_now = 525614;
  g.events = 81515;
  g.callback_free_puts = 12800;
  g.puts = 13696;
  g.op_end = {525614};
  g.pe_end = {{178569, 233606, 338438, 443270, 209118, 313950, 418782,
               523614}};
  g.busy = {99004504, 99095040, 99099184, 99103494,
            99048504, 99042233, 99028314, 99005464};
  EXPECT_EQ(t, g) << "actual:\n" << t.str();
}

// The DLRM forward pass runs as a graph on fw::GraphExecutor. Against the
// two hand-drained stages it replaced, it fires exactly 4 more events per
// forward (timestamps unchanged): three per-PE joins of the compute-only
// ops and three node-to-node resumes, less the two stage-join resumes.
constexpr std::size_t kDlrmGraphEvents = 4;

TEST(SimDeterminism, Fc1x4FusedDlrmForwardMatchesGolden) {
  const TimingTrace t = dlrm_forward(fc_1x4(), fw::Backend::kFused);
  TimingTrace g;
  // FCC_GOLDEN fc1x4_fused_dlrm
  g.final_now = 137669;
  g.events = 93001 + kDlrmGraphEvents;
  g.callback_free_puts = 24576;
  g.puts = 25344;
  g.op_end = {93770, 14954, 43899, 137669};
  g.pe_end = {std::vector<TimeNs>(4, 91770)};
  g.busy = std::vector<TimeNs>(4, 52614909);
  EXPECT_EQ(t, g) << "actual:\n" << t.str();
}

TEST(SimDeterminism, Fc1x4BaselineDlrmForwardMatchesGolden) {
  const TimingTrace t = dlrm_forward(fc_1x4(), fw::Backend::kBaseline);
  TimingTrace g;
  // FCC_GOLDEN fc1x4_baseline_dlrm
  g.final_now = 183083;
  g.events = 33396 + kDlrmGraphEvents;  // -64: see Fc2x4BaselineEmbedding
  g.puts = 0;
  g.op_end = {139184, 13715, 43899, 183083};
  g.pe_end = {std::vector<TimeNs>(4, 139184)};
  g.busy = std::vector<TimeNs>(4, 33918105);
  EXPECT_EQ(t, g) << "actual:\n" << t.str();
}

TEST(SimDeterminism, RepeatedRunsAreBitIdentical) {
  EXPECT_EQ(mixed_workload(), mixed_workload());
  EXPECT_EQ(internode_embedding(), internode_embedding());
}

/// One thread-pool sweep point: an independent moe_dispatch simulation.
TimeNs sweep_point(int i) {
  gpu::Machine::Config mc;
  mc.num_nodes = 1;
  mc.gpus_per_node = 4;
  gpu::Machine m(mc);
  shmem::World w(m);
  fused::MoeDispatchConfig cfg;
  cfg.tokens_per_pe = 128;
  cfg.d_model = 256;
  cfg.d_out = 256;
  cfg.hot_expert_factor = 1.0 + i;
  cfg.functional = false;
  fused::FusedMoeDispatch op(w, cfg, nullptr);
  return op.run_to_completion().duration();
}

TEST(SweepRunner, ParallelSweepRowsEqualSerialRows) {
  const int n = 6;
  setenv("FCC_SWEEP_THREADS", "1", 1);
  const auto serial = fccbench::run_sweep<TimeNs>(
      n, [](int i) { return sweep_point(i); });
  setenv("FCC_SWEEP_THREADS", "4", 1);
  const auto parallel = fccbench::run_sweep<TimeNs>(
      n, [](int i) { return sweep_point(i); });
  EXPECT_EQ(serial, parallel);
  for (TimeNs t : serial) EXPECT_GT(t, 0);
  unsetenv("FCC_SWEEP_THREADS");
}

}  // namespace
}  // namespace fcc
