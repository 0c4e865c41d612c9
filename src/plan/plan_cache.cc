#include "plan/plan_cache.h"

#include "common/check.h"

namespace fcc::plan {

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {
  FCC_CHECK_MSG(capacity_ >= 1, "PlanCache capacity must be >= 1");
}

const PlanCache::Entry* PlanCache::find(const std::string& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // bump most-recent
  return &it->second->second;
}

void PlanCache::insert(const std::string& key, Entry entry) {
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second->second = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(entry));
  entries_[key] = lru_.begin();
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

}  // namespace fcc::plan
