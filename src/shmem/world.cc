#include "shmem/world.h"

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>

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

void World::put(PeId src, PeId dst, Bytes bytes, std::function<void()> cb) {
  post(src, dst, bytes, std::move(cb));
}

void World::put(PeId src, PeId dst, Bytes bytes, sim::FlagUpdate u) {
  post(src, dst, bytes, u);
}

template <typename OnDeliver>
void World::post(PeId src, PeId dst, Bytes bytes, OnDeliver on_deliver) {
  constexpr bool kFlag = std::is_same_v<OnDeliver, sim::FlagUpdate>;
  bool delivers = true;
  if constexpr (!kFlag) delivers = static_cast<bool>(on_deliver);
  PeState& st = pe(src);
  ++st.puts_issued;
  if (!delivers) ++st.callback_free_puts;
  sim::Engine& home = machine_.engine_of(src);
  const TimeNs now = home.now();
  const int src_shard = machine_.shard_of(src);
  if (machine_.defer_inter_node() &&
      machine_.route_class(src, dst) == hw::RouteClass::kInterNode) {
    // Torus: the route's ring links belong to intermediate nodes, so the
    // reservation itself must wait for the barrier's serial replay.
    ++st.unreplayed;
    DeferredShard& d = deferred_[static_cast<std::size_t>(src_shard)];
    PendingPut p{now, src, dst, bytes, 0, Delivery::kNone};
    if constexpr (kFlag) {
      p.payload = on_deliver.word();
      p.delivery = Delivery::kFlag;
    } else if (delivers) {
      p.payload = d.closures.size();
      p.delivery = Delivery::kClosure;
      d.closures.push_back(std::move(on_deliver));
    }
    d.puts.push_back(p);
    return;
  }
  // Serial machine, self/intra-node PUT (node-aligned partition: src and
  // dst share a shard), or eager inter-node PUT whose route state (src NIC
  // / uplink / rail) is source-node-local: only this node's PUTs touch that
  // state and the node lives on one shard, so the reservation order equals
  // the serial engine's order.
  const TimeNs delivery = machine_.remote_write_time(src, dst, bytes, now);
  st.watermark = std::max(st.watermark, delivery);
  if (!delivers) return;
  const int dst_shard = machine_.shard_of(dst);
  if (dst_shard != src_shard) {
    // Applied on the destination's shard via the mailbox.
    machine_.sharded().post(src_shard, dst_shard, delivery,
                            std::move(on_deliver));
  } else if constexpr (kFlag) {
    home.schedule_flag_at(delivery, on_deliver);
  } else {
    home.schedule_at(delivery, std::move(on_deliver));
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
    DeferredShard& d = deferred_[static_cast<std::size_t>(tag.shard)];
    const PendingPut& p = d.puts[tag.idx];
    const TimeNs delivery =
        machine_.remote_write_time(p.src, p.dst, p.bytes, p.t);
    PeState& st = pe(p.src);
    st.watermark = std::max(st.watermark, delivery);
    sim::Engine& dst = machine_.engine_of(p.dst);
    if (p.delivery == Delivery::kFlag) {
      dst.schedule_flag_at(delivery, sim::FlagUpdate::from_word(p.payload));
    } else if (p.delivery == Delivery::kClosure) {
      dst.schedule_at(delivery, std::move(d.closures[p.payload]));
    }
    finish_deferred(p.src);
  }
  for (DeferredShard& d : deferred_) {
    d.puts.clear();
    d.closures.clear();
  }
}

}  // namespace fcc::shmem
