#include "l3/mesh/traffic_split.h"

#include "l3/common/assert.h"

#include <utility>

namespace l3::mesh {

TrafficSplit::TrafficSplit(std::string service, ClusterId source,
                           std::vector<BackendRef> backends)
    : service_(std::move(service)), source_(source) {
  L3_EXPECTS(!backends.empty());
  backends_.reserve(backends.size());
  for (auto& ref : backends) {
    backends_.push_back(SplitBackend{std::move(ref), kInitialWeight});
  }
}

std::vector<std::uint64_t> TrafficSplit::weights() const {
  std::vector<std::uint64_t> out;
  out.reserve(backends_.size());
  for (const auto& b : backends_) out.push_back(b.weight);
  return out;
}

bool TrafficSplit::set_weights(std::span<const std::uint64_t> weights) {
  L3_EXPECTS(weights.size() == backends_.size());
  bool changed = false;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (backends_[i].weight != weights[i]) {
      backends_[i].weight = weights[i];
      changed = true;
    }
  }
  // A no-op push keeps the generation stable so proxies' cached pickers
  // survive the controller's periodic re-publication of unchanged weights.
  if (changed) ++generation_;
  return changed;
}

}  // namespace l3::mesh
