// One DLRM training iteration on an 8-node 2D torus (the Fig. 15 setup at
// a small node count).
//
// dlrm::DlrmModel::train_step runs the iteration as one graph on the
// event-driven torus machine: the forward pass, the MLP and interaction
// backward passes, the embedding's backward exchange and a ring AllReduce
// of the MLP gradients. Only the two embedding + All-to-All nodes differ
// between the fused and the baseline backend. Exits nonzero unless the
// fused iteration is faster.
#include <cstdio>
#include <iostream>

#include "common/table.h"
#include "dlrm/model.h"
#include "framework/session.h"

int main() {
  using namespace fcc;

  gpu::Machine::Config machine;
  machine.num_nodes = 8;
  machine.gpus_per_node = 1;
  machine.topology.kind = hw::TopologySpec::Kind::kTorus2D;
  machine.topology.torus.dim_x = 4;
  machine.topology.torus.dim_y = 2;

  // Table II's embedding shape per node; smaller MLPs than its 43 layers.
  dlrm::DlrmConfig cfg;
  cfg.emb.map.num_pes = machine.num_nodes;
  cfg.emb.map.tables_per_pe = 8;
  cfg.emb.map.global_batch = 64 * machine.num_nodes;
  cfg.emb.map.dim = 92;
  cfg.emb.pooling = 70;
  cfg.dense_dim = 92;
  cfg.bottom_mlp = {256, 92};
  cfg.top_mlp = {256, 256, 1};

  fw::GraphResult runs[2];
  for (int b = 0; b < 2; ++b) {
    cfg.backend = b == 0 ? fw::Backend::kFused : fw::Backend::kBaseline;
    fw::Session session(machine);
    runs[b] = dlrm::DlrmModel(session, cfg).train_step();
  }

  std::printf("DLRM training iteration, %d nodes (2D torus %dx%d, 200 Gb/s)\n\n",
              machine.num_nodes, machine.topology.torus.dim_x,
              machine.topology.torus.dim_y);
  AsciiTable nodes({"node", "fused ready-end (us)", "baseline ready-end (us)"});
  auto span = [](const fw::NodeRunResult& r) {
    return AsciiTable::fmt(ns_to_us(r.ready), 1) + " - " +
           AsciiTable::fmt(ns_to_us(r.result.end), 1);
  };
  for (std::size_t k = 0; k < runs[0].nodes.size(); ++k) {
    nodes.add_row(
        {runs[0].nodes[k].label, span(runs[0].nodes[k]), span(runs[1].nodes[k])});
  }
  nodes.print(std::cout);

  const double norm = static_cast<double>(runs[0].makespan()) /
                      static_cast<double>(runs[1].makespan());
  AsciiTable t({"graph", "iteration (us)", "normalized"});
  t.add_row({"baseline", AsciiTable::fmt(ns_to_us(runs[1].makespan()), 1),
             "1.000"});
  t.add_row({"fused emb+A2A", AsciiTable::fmt(ns_to_us(runs[0].makespan()), 1),
             AsciiTable::fmt(norm, 3)});
  t.print(std::cout);
  std::printf("training-time reduction: %.1f%%\n", 100.0 * (1.0 - norm));
  return norm < 1.0 ? 0 : 1;
}
