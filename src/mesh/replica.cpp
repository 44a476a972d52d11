#include "l3/mesh/replica.h"

#include <utility>

namespace l3::mesh {

bool Replica::submit(ReplicaJob job) {
  L3_EXPECTS(job != nullptr);
  if (crashed_) {
    ++rejected_;
    return false;
  }
  if (active_ < concurrency_) {
    run(std::move(job));
    return true;
  }
  if (queue_.size() < queue_capacity_) {
    queue_.push_back(std::move(job));
    return true;
  }
  ++rejected_;
  return false;
}

void Replica::run(ReplicaJob job) {
  ++active_;
  job(ReleaseToken(this));
}

void Replica::release_one() {
  L3_ASSERT(active_ > 0);
  --active_;
  // Tokens released while crashed come from the crash path failing the
  // in-flight calls: the (already emptied) queue must not be pumped.
  if (crashed_) return;
  if (!queue_.empty() && active_ < concurrency_) {
    run(queue_.take_front());
  }
}

std::size_t Replica::crash() {
  crashed_ = true;
  const std::size_t dropped = queue_.size();
  queue_.clear();
  return dropped;
}

}  // namespace l3::mesh
