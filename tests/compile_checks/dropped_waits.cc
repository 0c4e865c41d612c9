// Every wait's coroutine form, each dropped once without co_await: a
// dropped wait silently skips a modelled delay or synchronization, so each
// line marked DROP must draw exactly one nodiscard diagnostic, and no other
// line may draw one. Compiled with -fsyntax-only by
// check_dropped_waits.cmake (ctest: dropped_waits_diagnosed); never linked.
#include "gpu/device.h"
#include "gpu/persistent.h"
#include "shmem/flags.h"
#include "shmem/world.h"
#include "sim/shard_join.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace fcc {

void drop_every_wait(sim::Engine& e, gpu::Device& dev, shmem::World& w,
                     shmem::FlagArray& flags, sim::OneShot& once,
                     sim::JoinCounter& join, gpu::KernelRun& kernel,
                     sim::Condition& cond, sim::ShardJoin& shard_join) {
  sim::suspend([](sim::Call&, sim::Call::Fn) { return false; });  // DROP
  sim::delay(e, 1);  // DROP
  sim::delay_until(e, 1);  // DROP
  dev.busy_wait(1);  // DROP
  w.issue(0, 1, shmem::World::IssueKind::kRdma);  // DROP
  w.put_nbi(0, 1, 64, shmem::World::IssueKind::kRdma);  // DROP
  w.quiet(0);  // DROP
  flags.wait_ge(0, 0, 1);  // DROP
  once.wait();  // DROP
  join.wait();  // DROP
  kernel.wait();  // DROP
  cond.wait();  // DROP
  shard_join.wait();  // DROP
}

}  // namespace fcc
