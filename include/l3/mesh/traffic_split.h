// SMI TrafficSplit equivalent (§4): the declarative object that distributes
// one source cluster's outbound traffic for a service across the service's
// per-cluster backends, proportionally to non-negative integer weights.
// A weight push (the Linkerd control plane's configuration push) takes
// effect at once; the split's generation counts the pushes that changed
// something.
#pragma once

#include "l3/mesh/types.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace l3::mesh {

/// One backend entry of a TrafficSplit.
struct SplitBackend {
  BackendRef ref;
  std::uint64_t weight = 1;
};

/// Traffic distribution for (source cluster, target service).
class TrafficSplit {
 public:
  /// Weight of every backend of a new split: an equal split, i.e. the
  /// round-robin default until a policy writes weights.
  static constexpr std::uint64_t kInitialWeight = 1000;

  /// Creates a split with kInitialWeight for every backend.
  TrafficSplit(std::string service, ClusterId source,
               std::vector<BackendRef> backends);

  const std::string& service() const { return service_; }
  ClusterId source() const { return source_; }

  std::span<const SplitBackend> backends() const { return backends_; }
  std::size_t backend_count() const { return backends_.size(); }

  /// Current weights, in backend order.
  std::vector<std::uint64_t> weights() const;

  /// Applies new weights immediately. Size must match; weights may be zero
  /// (a backend with zero weight receives no traffic). Returns whether any
  /// weight changed; a call that changes nothing leaves the generation
  /// untouched.
  bool set_weights(std::span<const std::uint64_t> weights);

  /// Monotone counter bumped on every *effective* weight change — lets
  /// observers (proxies' cached pickers, tests) detect propagation without
  /// reacting to no-op re-publications, and counts the weight updates a
  /// run reports (§4: too frequent updates are to be avoided at scale).
  std::uint64_t generation() const { return generation_; }

 private:
  std::string service_;
  ClusterId source_;
  std::vector<SplitBackend> backends_;
  std::uint64_t generation_ = 0;
};

}  // namespace l3::mesh
