// Fig. 11: profiled execution timeline of the persistent WGs in the fused
// embedding + All-to-All kernel (2 nodes over IB).
//
// Shows the paper's qualitative properties: non-blocking PUTs issued while
// sibling WGs keep computing; communication-aware scheduling front-loads
// remote slices (PUT markers cluster early, local-slice markers late); the
// flag-wait tails differ per WG because each polls a distinct flag subset.
//
// Output: an ASCII raster (rows = persistent WGs of node 0/1; 'c' compute,
// '*' instants) plus a Chrome-trace JSON for chrome://tracing.
#include <fstream>
#include <iostream>

#include "bench_common.h"
#include "fused/embedding_a2a.h"
#include "shmem/world.h"

int main() {
  using namespace fcc;

  // Scaled-down grid so 32 persistent WGs per node render readably (the
  // paper likewise plots the first 32 WGs).
  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = 2;
  cfg.map.tables_per_pe = 16;
  cfg.map.global_batch = 256;
  cfg.map.dim = 256;
  cfg.map.vectors_per_slice = 16;  // slice computed by 16 WGs, as in Fig. 11
  cfg.pooling = 64;
  cfg.functional = false;
  cfg.occupancy_slots_override = 32;

  gpu::Machine::Config mc;
  mc.num_nodes = 2;
  mc.gpus_per_node = 1;
  mc.collect_trace = true;
  gpu::Machine machine(mc);
  shmem::World world(machine);

  fused::FusedEmbeddingAllToAll op(world, cfg, nullptr);
  const auto res = op.run_to_completion();

  int puts = 0, locals = 0;
  for (const auto& i : machine.trace().instants()) {
    puts += (i.name == "put");
    locals += (i.name == "local_slice");
  }
  std::cout << "Fig. 11 — persistent-WG timeline, fused embedding+A2A "
               "(2 nodes, slice = 16 WGs, 32 persistent WGs/node)\n";
  std::cout << "kernel span: " << ns_to_us(res.duration())
            << " us, remote PUTs: " << puts
            << ", local slice completions: " << locals << "\n";
  std::cout << "legend: 'c' = embedding compute, '*' = PUT issue / local "
               "slice completion, '.' = waiting\n\n";

  sim::Trace::AsciiOptions opts;
  opts.width = 110;
  opts.max_tracks = 64;
  machine.trace().render_ascii(std::cout, opts);

  const std::string json_path = fccbench::out_dir() + "/fig11_timeline.json";
  std::ofstream json(json_path);
  machine.trace().write_chrome_json(json);
  std::cout << "\nchrome trace written to " << json_path << "\n";
  return 0;
}
