// Tables I and II: the evaluation platform and the scale-out simulation
// setup, printed from the live config structs so they cannot drift from
// what the benches actually use.
#include <iostream>
#include <numeric>

#include "bench_common.h"
#include "hw/gpu_spec.h"

int main() {
  using namespace fcc;

  hw::SystemSetup setup;
  AsciiTable t1({"Table I", "value"});
  t1.add_row({"GPU", setup.gpu.name + " (" + std::to_string(setup.gpu.num_cus) +
                         " CUs, " +
                         AsciiTable::fmt(setup.gpu.hbm_bytes_per_ns / 1000.0,
                                         2) +
                         " TB/s HBM)"});
  t1.add_row({"Software", setup.software});
  t1.add_row({"Scale-up", std::to_string(setup.scale_up_gpus) +
                              " GPUs fully connected, fabric " +
                              AsciiTable::fmt(setup.fabric.port_bytes_per_ns,
                                              0) +
                              " GB/s per port"});
  t1.add_row({"Scale-out", std::to_string(setup.scale_out_nodes) +
                               " nodes x1 GPU, IB " +
                               AsciiTable::fmt(setup.ib.wire_bytes_per_ns, 0) +
                               " GB/s"});
  t1.print(std::cout);

  // Fig. 15's model at its largest point (fccbench::table2_dlrm).
  const int nodes = 128;
  const dlrm::DlrmConfig cfg = fccbench::table2_dlrm(nodes);
  const int layers = static_cast<int>(cfg.bottom_mlp.size() +
                                      cfg.top_mlp.size());
  const int widths =
      std::accumulate(cfg.bottom_mlp.begin(), cfg.bottom_mlp.end(), 0) +
      std::accumulate(cfg.top_mlp.begin(), cfg.top_mlp.end(), 0);
  AsciiTable t2({"Table II", "value"});
  t2.add_row({"Embedding dimension", std::to_string(cfg.emb.map.dim)});
  t2.add_row({"MLP layers", std::to_string(layers) + " (avg size " +
                                std::to_string(widths / layers) + ")"});
  t2.add_row({"Avg pooling size", std::to_string(cfg.emb.pooling)});
  t2.add_row({"Tables, samples per node",
              std::to_string(cfg.emb.map.tables_per_pe) + ", " +
                  std::to_string(cfg.emb.map.local_batch())});
  t2.add_row({"Top MLP input width",
              std::to_string(cfg.interaction_dim()) + " (" +
                  std::to_string(nodes) + " nodes)"});
  const auto torus = fccbench::torus_for_nodes(nodes);
  t2.add_row({"Topology", "2D torus " + std::to_string(torus.dim_x) + "x" +
                              std::to_string(torus.dim_y) + " (BW " +
                              AsciiTable::fmt(
                                  torus.link_bytes_per_ns * 8.0, 0) +
                              " Gb/s, lat " +
                              std::to_string(torus.link_latency_ns) + " ns)"});
  t2.print(std::cout);
  return 0;
}
