// A service behavior that parks every request's done callback for the test
// to fire by hand, shared by the mesh tests (mesh_autoscaler_test.cpp,
// mesh_proxy_test.cpp).
#pragma once

#include "l3/mesh/deployment.h"

#include <utility>
#include <vector>

namespace l3::test_util {

/// Parks every request's done callback for the test to fire by hand.
class ManualBehavior final : public mesh::ServiceBehavior {
 public:
  explicit ManualBehavior(std::vector<mesh::OutcomeFn>& parked)
      : parked_(parked) {}
  void invoke(const mesh::BehaviorContext&, mesh::OutcomeFn done) override {
    parked_.push_back(std::move(done));
  }

 private:
  std::vector<mesh::OutcomeFn>& parked_;
};

}  // namespace l3::test_util
