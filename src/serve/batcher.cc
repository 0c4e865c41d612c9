#include "serve/batcher.h"

#include <utility>

#include "common/check.h"

namespace fcc::serve {

Batcher::Batcher(std::vector<int> class_priorities, BatchPolicy policy)
    : policy_(policy),
      priorities_(std::move(class_priorities)),
      queues_(priorities_.size()),
      skipped_(priorities_.size(), 0) {
  FCC_CHECK(!priorities_.empty());
  check_policy(policy_);
}

void check_policy(const BatchPolicy& p) {
  FCC_CHECK_MSG(p.max_batch >= 1,
                "BatchPolicy: max_batch must be >= 1, got " << p.max_batch);
  FCC_CHECK_MSG(p.window_ns >= 0,
                "BatchPolicy: window_ns must be >= 0, got " << p.window_ns);
  FCC_CHECK_MSG(p.queue_capacity >= 0, "BatchPolicy: queue_capacity must be "
                                       ">= 0, got "
                                           << p.queue_capacity);
  FCC_CHECK_MSG(p.starvation_limit >= 1,
                "BatchPolicy: starvation_limit must be >= 1, got "
                    << p.starvation_limit);
}

bool Batcher::enqueue(const Request& r) {
  FCC_CHECK(r.cls >= 0 && r.cls < num_classes());
  auto& q = queues_[static_cast<std::size_t>(r.cls)];
  if (q.size() >= static_cast<std::size_t>(policy_.queue_capacity)) {
    return false;
  }
  // FIFO within a class requires monotone arrivals per class.
  FCC_DCHECK(q.empty() || q.back().arrival <= r.arrival);
  q.push_back(r);
  return true;
}

bool Batcher::dispatchable(int cls, TimeNs now) const {
  const auto& q = queues_[static_cast<std::size_t>(cls)];
  if (q.empty()) return false;
  if (q.size() >= static_cast<std::size_t>(policy_.max_batch)) return true;
  return q.front().arrival + policy_.window_ns <= now;
}

std::optional<Batch> Batcher::poll(TimeNs now) {
  // Pick the winner among dispatchable classes: a starved class first
  // (lowest class id among them — deterministic), else lowest
  // (priority, class id).
  int pick = -1;
  bool pick_starved = false;
  for (int c = 0; c < num_classes(); ++c) {
    if (!dispatchable(c, now)) continue;
    const bool starved =
        skipped_[static_cast<std::size_t>(c)] >= policy_.starvation_limit;
    if (pick < 0) {
      pick = c;
      pick_starved = starved;
      continue;
    }
    if (starved != pick_starved) {
      if (starved) {
        pick = c;
        pick_starved = true;
      }
      continue;
    }
    if (!starved &&
        priorities_[static_cast<std::size_t>(c)] <
            priorities_[static_cast<std::size_t>(pick)]) {
      pick = c;
    }
  }
  if (pick < 0) return std::nullopt;

  // Aging: every dispatchable class passed over this round ages one step;
  // the winner's counter rewinds.
  for (int c = 0; c < num_classes(); ++c) {
    if (c == pick) {
      skipped_[static_cast<std::size_t>(c)] = 0;
    } else if (dispatchable(c, now)) {
      ++skipped_[static_cast<std::size_t>(c)];
    }
  }

  auto& q = queues_[static_cast<std::size_t>(pick)];
  Batch b;
  b.cls = pick;
  const std::size_t take =
      std::min(q.size(), static_cast<std::size_t>(policy_.max_batch));
  b.reqs.assign(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(take));
  q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(take));
  return b;
}

std::size_t Batcher::queued() const {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

}  // namespace fcc::serve
