// Tile-level kernel DSL with communication primitives (Triton-extension
// analog, Sec. III-D).
//
// A TileKernel is a block-level program executed once per program instance
// ("pid" — one output tile of a GEMM). The builder mirrors the structure of
// a Triton matmul kernel; the communication statements (`put_c_remote`,
// `fence`, `atomic_add_remote`) are the extensions the paper adds: a Python
// wrapper around ROC_SHMEM's scale-up APIs, here a wrapper around
// shmem::World.
//
// Example (the fused routed-GEMM kernel of MoE dispatch and GEMM +
// All-to-All, authored in fused/moe_dispatch.cc):
//
//   TileKernel k("routed_gemm_fused", shape, kTritonGemmEfficiency);
//   k.load_a().load_b().dot()
//    .put_c_remote(dest_of_tile, write_tile)
//    .fence()
//    .atomic_add_remote(&flags, dest_of_tile, flag_slot);
//
// Every GEMM in src/ is a TileKernel: the routed GEMM of MoE dispatch and
// GEMM + All-to-All, fused and as its baseline's local GEMM
// (fused/moe_dispatch.cc), and DLRM's MLP
// layers (dlrm/model.cc: plain load/dot/store programs on a
// hardware-dispatched grid, launched with no task-loop dispatch cost).
//
// The interpreter charges one WorkCost per pid (panel loads + dot flops +
// local stores), runs the functional tile math when buffers are bound, and
// routes the comm statements through the shmem world. A pid's cost is one
// of a few variants (edge rows, edge columns, puts that stay local), built
// with the program; tabulate() gives each its duration table. A pid runs
// as engine calls on its slot's record (gpu::KernelRun): the dispatch
// wait, the compute step, then one call per fence and per remote
// statement's issue; a launch's flag wait (LaunchConfig::wait_flags) is
// further calls on the same record once the queue drains.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "gpu/device.h"
#include "gpu/occupancy.h"
#include "gpu/persistent.h"
#include "ops/cost_model.h"
#include "ops/gemm.h"
#include "shmem/flags.h"
#include "shmem/world.h"
#include "sim/co.h"

namespace fcc::triton {

class TileKernel {
 public:
  /// Per-program-instance context handed to addressing callbacks.
  struct Ctx {
    PeId pe = 0;
    int pid = 0;
    int slot = 0;
    const ops::GemmShape* shape = nullptr;
  };

  using DestFn = std::function<PeId(const Ctx&)>;
  /// Functional write of a finished tile (tile-local row-major values);
  /// runs at delivery time for remote puts, immediately for local stores.
  using WriteFn = std::function<void(const Ctx&, const std::vector<float>&)>;
  using FlagIdxFn = std::function<std::size_t(const Ctx&)>;

  TileKernel(std::string name, ops::GemmShape shape, double alu_efficiency);

  // ---- program statements (builder) ----
  TileKernel& load_a();
  TileKernel& load_b();
  TileKernel& dot();
  TileKernel& store_c_local(WriteFn write);
  /// Communication extension: zero-copy store of the finished tile into a
  /// peer GPU's buffer. A tile whose destination is the local PE is written
  /// locally (charged as a store).
  TileKernel& put_c_remote(DestFn dest, WriteFn write);
  TileKernel& fence();
  /// Communication extension: remote atomic fetch-add on a symmetric flag
  /// (arrival counters for the consumer side). `amount` must lie in
  /// [1, sim::FlagUpdate::kMaxAmount], the range one flag event carries.
  TileKernel& atomic_add_remote(shmem::FlagArray* flags, DestFn dest,
                                FlagIdxFn idx, std::uint64_t amount = 1);

  const std::string& name() const { return name_; }
  const ops::GemmShape& shape() const { return shape_; }
  bool uses_comm() const { return uses_comm_; }

  /// Registers the kernel uses; comm statements cost the shmem context.
  gpu::KernelResources resources() const;

  /// Checks statement-order invariants (dot needs panels, puts need dot).
  void validate() const;

  /// Builds the duration table of every per-pid cost variant on `dev`'s
  /// spec (Device::tabulate). Optional: an untabulated launch computes each
  /// duration. Call after the program statements, from the host side
  /// before any launch: a kernel shared by several PEs is launched on each
  /// PE's home shard.
  void tabulate(const gpu::Device& dev);

  // ---- launch ----
  struct LaunchConfig {
    shmem::World* world = nullptr;
    PeId pe = 0;
    int occupancy_slots_override = 0;
    TimeNs dispatch_overhead_ns = 40;
    bool functional = false;
    std::span<const float> a;  // bound A (m x k), functional only
    std::span<const float> b;  // bound B (k x n), functional only
    /// Optional flag wait after the pid queue drains: slot s waits for
    /// flags [pe][i] >= wait_threshold(i) for i = s, s + active, ... <
    /// wait_count, where `active` is the spawned-slot count (surplus slots
    /// never run), so the slots split the flags without the caller
    /// re-deriving the launch's occupancy math.
    shmem::FlagArray* wait_flags = nullptr;
    int wait_count = 0;
    std::function<std::uint64_t(int)> wait_threshold;
  };

  /// Launches the grid (one pid per output tile) and completes when every
  /// program instance (plus the flag waits) has finished on this PE.
  /// Throws, before the launch is awaited, for a program validate()
  /// rejects, a null world, or a flag wait past this PE's flags
  /// (`wait_count` outside [0, wait_flags->size()], `pe` outside its PEs)
  /// or without a threshold.
  sim::Co launch(const LaunchConfig& cfg);

  /// PE `pe`'s pid execution order: remote-destination tiles first (the
  /// stable partition of gpu::make_schedule by the first put statement's
  /// destination). Built for every PE by the first launch and kept; empty
  /// before it, and for kernels without a put, which run pids in order.
  const std::vector<int>& schedule(PeId pe) const;

 private:
  enum class StmtKind {
    kLoadA,
    kLoadB,
    kDot,
    kStoreLocal,
    kPutRemote,
    kFence,
    kAtomicAdd,
  };
  struct Stmt {
    StmtKind kind;
    DestFn dest;
    WriteFn write;
    FlagIdxFn flag_idx;
    shmem::FlagArray* flags = nullptr;
    std::uint64_t amount = 0;
  };

  struct Run;
  struct Slot;
  /// launch()'s coroutine, once the config is checked.
  sim::Co run_grid(const LaunchConfig& cfg);
  // A slot's steps (engine calls on its record): claim a pid, and wait out
  // its dispatch; start its compute step; end it; run its statements, a
  // call after each fence and each remote statement's issue, whose PUT or
  // atomic is then posted; once the queue drains, the flag wait, a call
  // after each flag it finds down.
  static void claim(Slot& s);
  static void dispatched(sim::Call* c);
  static void computed(sim::Call* c);
  static void run_stmts(Slot& s);
  static void fenced(sim::Call* c);
  static void issued(sim::Call* c);
  static void poll_flags(sim::Call* c);
  /// The tile buffer of `slot` on PE `pe` (functional launches only).
  std::vector<float>& tile_buffer(PeId pe, int slot);
  /// Functional mode: computes pid's C tile into the slot's tile buffer.
  void compute_tile(const LaunchConfig& cfg, int slot, int pid);
  /// Runs statement `i` for `pid` as far as this PE goes: a local store, or
  /// a put or atomic whose destination is this PE, completes here. Returns
  /// the remote PE the statement still has to reach, else -1.
  PeId run_local(const LaunchConfig& cfg, int slot, int pid, std::size_t i);
  /// Posts statement `i`'s PUT or remote atomic for `pid` to `dest`, once
  /// its issue cost is paid.
  void post_remote(const LaunchConfig& cfg, int slot, int pid, std::size_t i,
                   PeId dest);

  /// Fills schedules_ for PEs 0..num_pes-1 (first launch only).
  void build_schedules(int num_pes);
  /// Pid that PE `pe` runs at KernelRun position `pos`; -1 (the drained
  /// queue) stays -1.
  int pid_at(PeId pe, int pos) const {
    return pos < 0 || schedules_.empty()
               ? pos
               : schedules_[static_cast<std::size_t>(pe)]
                           [static_cast<std::size_t>(pos)];
  }

  /// Appends a statement and rebuilds the cost variants.
  void add(Stmt stmt);
  /// Cost of a `rows` x `cols` tile whose C goes to local HBM through
  /// `local_puts` of its put statements: panel loads + dot + local stores
  /// (remote puts ride the fabric, not local HBM).
  gpu::WorkCost tile_cost(int rows, int cols, int local_puts) const;
  /// costs_ index of a pid's variant: bit 0 edge rows, bit 1 edge
  /// columns, then the number of its puts that stay local.
  static int variant(bool edge_rows, bool edge_cols, int local_puts) {
    return 4 * local_puts + 2 * static_cast<int>(edge_cols) +
           static_cast<int>(edge_rows);
  }
  const gpu::WorkCost& pid_cost(PeId pe, int pid, int slot) const;
  /// Slot count of a launch on `spec`.
  int launch_slots(const hw::GpuSpec& spec, int occupancy_slots_override) const;

  std::string name_;
  ops::GemmShape shape_;
  double alu_efficiency_;
  std::vector<Stmt> stmts_;
  bool uses_comm_ = false;
  int puts_ = 0;  // put_c_remote statements
  std::vector<gpu::WorkCost> costs_;  // [variant()]
  std::vector<std::vector<int>> schedules_;  // [pe], see schedule()
  /// [pe][slot]: a functional launch's C tile, shared by the pid's
  /// statements across their issue delays. Sized by the first launch
  /// ([pe]) and by each functional launch on its PE ([slot]).
  std::vector<std::vector<std::vector<float>>> tiles_;
  std::once_flag schedules_built_;
};

}  // namespace fcc::triton
