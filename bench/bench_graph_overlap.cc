// Inter-op overlap from graph scheduling (the Program/Graph API payoff).
//
// A DLRM-style inference pipeline: request b needs its embedding exchange
// (expressed as the *unfused* `aten::embedding_bag` + `c10d::all_to_all`
// pattern — the fused-rewrite pass collapses each pair into
// `fcc::embedding_a2a`) followed by a row-parallel MLP
// (`fcc::gemv_allreduce`). Each stage processes one request at a time
// (explicit stage-serialization edges), so request b+1's embedding
// dispatch runs concurrently with request b's MLP — the cross-op overlap
// a blocking Session::run chain can never express. The bench compares the
// graph-scheduled pipeline against that sequential chain end-to-end and
// reports the achieved overlap fraction per pipeline depth.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "framework/session.h"
#include "fused/embedding_a2a.h"
#include "fused/gemv_allreduce.h"

namespace {

using namespace fcc;

constexpr int kPes = 4;

gpu::Machine::Config machine_config() {
  gpu::Machine::Config mc;
  mc.num_nodes = 1;
  mc.gpus_per_node = kPes;
  return mc;
}

fused::EmbeddingA2AConfig emb_config() {
  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = kPes;
  cfg.map.tables_per_pe = 16;
  cfg.map.global_batch = 256;
  cfg.map.dim = 64;
  cfg.map.vectors_per_slice = 8;
  cfg.pooling = 32;
  cfg.functional = false;
  return cfg;
}

fused::GemvAllReduceConfig mlp_config() {
  fused::GemvAllReduceConfig cfg;
  cfg.m = 4096;
  cfg.k_global = 8192;
  cfg.functional = false;
  return cfg;
}

/// Blocking Session::run chain: emb, mlp, emb, mlp, ... end-to-end.
TimeNs run_sequential(int depth) {
  fw::Session session(machine_config());
  TimeNs start = -1, end = 0;
  for (int b = 0; b < depth; ++b) {
    const auto emb = session.run(
        fw::make_spec("fcc::embedding_a2a", emb_config()), fw::Backend::kFused);
    if (start < 0) start = emb.start;
    const auto mlp = session.run(
        fw::make_spec("fcc::gemv_allreduce", mlp_config()),
        fw::Backend::kFused);
    end = mlp.end;
  }
  return end - start;
}

struct GraphRun {
  TimeNs makespan = 0;
  double overlap = 0.0;
  TimeNs critical_path = 0;
  int rewrites = 0;
};

/// The same per-request ops as one Graph, embedding stage written as the
/// unfused pattern (rewritten to fcc::embedding_a2a by Session::run).
GraphRun run_graph(int depth) {
  fw::Graph g;
  fw::NodeId prev_a2a, prev_mlp;
  for (int b = 0; b < depth; ++b) {
    const std::string tag = std::to_string(b);
    auto pooled = g.tensor("pooled" + tag);
    auto exchanged = g.tensor("exchanged" + tag);
    auto out = g.tensor("out" + tag);
    g.add("aten::embedding_bag", emb_config(), {}, {pooled}, "emb" + tag);
    auto a2a = g.add("c10d::all_to_all", {pooled}, {exchanged}, "a2a" + tag);
    auto mlp = g.add("fcc::gemv_allreduce", mlp_config(), {exchanged}, {out},
                     "mlp" + tag);
    // Stage serialization: one request in flight per stage.
    if (b > 0) {
      g.add_dep(a2a, prev_a2a);
      g.add_dep(mlp, prev_mlp);
    }
    prev_a2a = a2a;
    prev_mlp = mlp;
  }

  fw::Session session(machine_config());
  const fw::GraphResult res = session.run(g, fw::Backend::kFused);
  GraphRun r;
  r.makespan = res.makespan();
  r.overlap = res.overlap_fraction();
  r.critical_path = res.critical_path_ns;
  r.rewrites = res.rewrites;
  return r;
}

}  // namespace

int main() {
  const std::vector<int> depths = {1, 2, 4, 8};

  AsciiTable t({"pipeline depth", "sequential (us)", "graph (us)",
                "overlap frac", "speedup", "rewrites"});
  CsvWriter csv(fccbench::out_dir() + "/graph_overlap.csv",
                {"depth", "sequential_ns", "graph_ns", "overlap_fraction",
                 "speedup", "rewrites"});
  double deepest_overlap = 0.0, deepest_speedup = 0.0;
  for (int depth : depths) {
    const TimeNs seq = run_sequential(depth);
    const GraphRun gr = run_graph(depth);
    const double speedup =
        static_cast<double>(seq) / static_cast<double>(gr.makespan);
    t.add_row({std::to_string(depth), AsciiTable::fmt(ns_to_us(seq), 1),
               AsciiTable::fmt(ns_to_us(gr.makespan), 1),
               AsciiTable::fmt(gr.overlap, 3), AsciiTable::fmt(speedup, 3),
               std::to_string(gr.rewrites)});
    csv.row(depth, seq, gr.makespan, gr.overlap, speedup, gr.rewrites);
    if (depth == depths.back()) {
      deepest_overlap = gr.overlap;
      deepest_speedup = speedup;
    }
  }

  std::printf("Graph-scheduled DLRM pipeline vs sequential Session::run "
              "chain (4 GPUs,\nembedding stage authored as unfused "
              "pattern nodes, rewritten to fcc::embedding_a2a):\n");
  t.print(std::cout);
  std::printf("depth-%d pipeline: %.3fx end-to-end, overlap fraction %.3f\n",
              depths.back(), deepest_speedup, deepest_overlap);
  return deepest_overlap > 0.0 ? 0 : 1;
}
