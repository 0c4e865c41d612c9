#include "shmem/world.h"

#include <algorithm>
#include <cstddef>

namespace fcc::shmem {

World::World(gpu::Machine& machine)
    : machine_(machine),
      pes_(static_cast<std::size_t>(machine.num_pes())),
      deferred_(static_cast<std::size_t>(machine.num_shards())) {
  if (machine_.is_sharded() && machine_.defer_inter_node()) {
    barrier_hook_ =
        machine_.sharded().add_barrier_hook([this] { drain_deferred(); });
  }
}

World::~World() {
  if (barrier_hook_ >= 0) {
    machine_.sharded().remove_barrier_hook(barrier_hook_);
  }
}

int World::outstanding(PeId src) const {
  const PeState& st = pe(src);
  const TimeNs now = machine_.engine_of(src).now();
  return st.unreplayed +
         static_cast<int>(std::count_if(st.deliveries.begin(),
                                        st.deliveries.end(),
                                        [now](TimeNs t) { return t > now; }));
}

void World::put(PeId src, PeId dst, Bytes bytes, std::function<void()> cb) {
  PeState& st = pe(src);
  ++st.puts_issued;
  if (!cb) ++st.callback_free_puts;
  sim::Engine& home = machine_.engine_of(src);
  const TimeNs now = home.now();
  const int src_shard = machine_.shard_of(src);
  if (machine_.defer_inter_node() &&
      machine_.route_class(src, dst) == hw::RouteClass::kInterNode) {
    // Torus: the route's ring links belong to intermediate nodes, so the
    // reservation itself must wait for the barrier's serial replay.
    ++st.unreplayed;
    deferred_[static_cast<std::size_t>(src_shard)].puts.push_back(
        PendingPut{now, src, dst, bytes, std::move(cb)});
    return;
  }
  // Serial machine, self/intra-node PUT (node-aligned partition: src and
  // dst share a shard), or eager inter-node PUT whose route state (src NIC
  // / uplink / rail) is source-node-local: only this node's PUTs touch that
  // state and the node lives on one shard, so the reservation order equals
  // the serial engine's order.
  const TimeNs delivery = machine_.remote_write_time(src, dst, bytes, now);
  note_delivery(src, now, delivery);
  if (!cb) return;
  const int dst_shard = machine_.shard_of(dst);
  if (dst_shard == src_shard) {
    home.schedule_at(delivery, std::move(cb));
  } else {
    // Applied on the destination's shard via the mailbox.
    machine_.sharded().post(src_shard, dst_shard, delivery, std::move(cb));
  }
}

void World::drain_deferred() {
  // Reused across barriers (the torus flagship runs thousands of them).
  std::vector<ReplayTag>& order = replay_scratch_;
  order.clear();
  for (int s = 0; s < static_cast<int>(deferred_.size()); ++s) {
    const auto& puts = deferred_[static_cast<std::size_t>(s)].puts;
    for (std::size_t i = 0; i < puts.size(); ++i) {
      order.push_back(ReplayTag{puts[i].t, puts[i].src, s, i});
    }
  }
  if (order.empty()) return;
  // (issue time, src PE, per-shard seq): reservations replay in the
  // serial engine's time order; same-time ties break by source PE (the
  // serial engine breaks them by global insertion seq instead — the only
  // divergence this protocol permits).
  std::sort(order.begin(), order.end(),
            [](const ReplayTag& a, const ReplayTag& b) {
              if (a.t != b.t) return a.t < b.t;
              if (a.src != b.src) return a.src < b.src;
              return a.idx < b.idx;
            });
  // The hook runs with every shard stopped, so deliveries go straight onto
  // the destination engines — no mailbox round-trip; replay order assigns
  // the engine tie-break seqs, exactly like issue order does serially.
  // Conservative lookahead guarantees delivery >= the issuing window's end,
  // so these never schedule into a shard's past.
  for (const ReplayTag& tag : order) {
    PendingPut& p =
        deferred_[static_cast<std::size_t>(tag.shard)].puts[tag.idx];
    const TimeNs delivery =
        machine_.remote_write_time(p.src, p.dst, p.bytes, p.t);
    note_delivery(p.src, machine_.engine_of(p.src).now(), delivery);
    if (p.cb) machine_.engine_of(p.dst).schedule_at(delivery, std::move(p.cb));
    finish_deferred(p.src);
  }
  for (DeferredShard& d : deferred_) d.puts.clear();
}

}  // namespace fcc::shmem
