// Continuous (dynamic) batcher with admission control and priority classes.
//
// Pure host-side policy object — no engine, no coroutines — so the batching
// rules are property-testable in isolation (tests/test_serve_policy.cc) and
// the serving simulator stays a thin driver around it. All times are the
// caller's clock (the simulator passes run-relative virtual ns).
//
// Policy, in one paragraph: each priority class owns a bounded FIFO queue
// (enqueue past capacity is an admission reject). A class is *dispatchable*
// when it holds a full batch (`max_batch`) or its oldest request has waited
// out the batch window (`window_ns`) — the standard "close the batch on
// size or timeout" continuous-batching rule. Among dispatchable classes the
// lowest (priority, class id) wins, except that any class passed over
// `starvation_limit` times in a row is served first regardless of priority
// — a deterministic aging valve, so low-priority tenants are delayed but
// never starved.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "common/types.h"

namespace fcc::serve {

struct BatchPolicy {
  /// Requests per batch; a dispatchable class releases up to this many.
  int max_batch = 8;
  /// Oldest-request age at which a partial batch dispatches anyway.
  TimeNs window_ns = 2000;
  /// Per-class queue bound; enqueue past it is an admission reject. 0 is
  /// legal and rejects every request (a fully shedding server), never
  /// divides or hangs.
  int queue_capacity = 64;
  /// Consecutive pass-overs (while dispatchable) before a class preempts
  /// higher-priority classes.
  int starvation_limit = 4;
};

/// Throws, naming the field and its value, unless `p` is a valid policy.
void check_policy(const BatchPolicy& p);

struct Request {
  int id = 0;
  int cls = 0;
  TimeNs arrival = 0;
};

struct Batch {
  int cls = 0;
  std::vector<Request> reqs;
};

class Batcher {
 public:
  /// `class_priorities[c]` is class c's priority (lower = more urgent).
  Batcher(std::vector<int> class_priorities, BatchPolicy policy);

  /// Admits `r` into its class queue; false (and no state change) when the
  /// queue is at capacity — the caller records an admission reject.
  bool enqueue(const Request& r);

  /// Releases the next batch under the policy, or nullopt if no class is
  /// dispatchable at `now`. Deterministic in (queue state, now).
  std::optional<Batch> poll(TimeNs now);

  std::size_t queued() const;
  bool empty() const { return queued() == 0; }
  int num_classes() const { return static_cast<int>(queues_.size()); }
  std::size_t queued(int cls) const {
    return queues_[static_cast<std::size_t>(cls)].size();
  }
  const BatchPolicy& policy() const { return policy_; }

 private:
  bool dispatchable(int cls, TimeNs now) const;

  BatchPolicy policy_;
  std::vector<int> priorities_;              // [cls]
  std::vector<std::deque<Request>> queues_;  // [cls] FIFO
  std::vector<int> skipped_;  // [cls] consecutive pass-overs while ready
};

}  // namespace fcc::serve
