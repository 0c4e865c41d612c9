// Framework integration layer (PyTorch-operator analog, Sec. III-D).
//
// A Session bundles the simulated platform (Machine + shmem World) behind
// the kind of API an ML framework exposes: symmetric-tensor allocation
// (`torch.tensor.to(symmetric_device)` analog) and a single generic
// dispatch path, `run(OpSpec, Backend)`, over the self-registering
// OpRegistry. The session knows no concrete operator — each operator's TU
// registers its own factory, so adding one touches no framework file.
#pragma once

#include <memory>

#include "framework/graph.h"
#include "framework/graph_executor.h"
#include "framework/op_registry.h"
#include "gpu/machine.h"
#include "plan/planner.h"
#include "shmem/sym_array.h"
#include "shmem/world.h"

namespace fcc::fw {

class Session {
 public:
  explicit Session(const gpu::Machine::Config& config)
      : machine_(config), world_(machine_) {}

  gpu::Machine& machine() { return machine_; }
  shmem::World& world() { return world_; }
  int num_pes() const { return machine_.num_pes(); }

  /// Allocates a float tensor in every PE's symmetric heap
  /// (roc_shmem_malloc + tensor.to(device) analog).
  std::unique_ptr<shmem::SymArray<float>> symmetric_empty(
      std::size_t elems, bool functional = true) {
    return std::make_unique<shmem::SymArray<float>>(machine_.num_pes(), elems,
                                                    functional);
  }

  /// Dispatches any registered operator by name, as a one-node graph, e.g.
  ///   session.run(make_spec("fcc::gemv_allreduce", cfg, &data),
  ///               Backend::kFused);
  fused::OperatorResult run(const OpSpec& spec,
                            Backend backend = Backend::kFused,
                            const OpRegistry& registry = OpRegistry::global());

  /// Runs a whole multi-op program: lowers a copy of `graph` with
  /// rewrite_fused (pattern nodes collapse into registered fused ops), then
  /// schedules every dependency-satisfied node concurrently via
  /// GraphExecutor, all on the requested backend.
  /// Independent nodes overlap; a pure chain times exactly like the
  /// equivalent sequence of blocking run() calls.
  GraphResult run(const Graph& graph, Backend backend = Backend::kFused,
                  const OpRegistry& registry = OpRegistry::global());

  /// A planned execution: the planner's per-node decisions plus the
  /// simulated result of carrying them out.
  struct PlannedRun {
    plan::Planned planned;
    GraphResult result;
  };

  /// Runs `graph` under the full planning pipeline: fuse on predicted win
  /// only, per-node backend choice, ccl algorithm steering — with an
  /// optional shared PlanCache (options.cache). `planned.report` explains
  /// every accept/reject.
  PlannedRun run_planned(const Graph& graph,
                         const plan::PlanOptions& options = {},
                         const OpRegistry& registry = OpRegistry::global());

 private:
  gpu::Machine machine_;
  shmem::World world_;
};

}  // namespace fcc::fw
