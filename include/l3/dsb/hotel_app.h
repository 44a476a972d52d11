// The DeathStarBench hotel-reservation application (§5.1), modelled as a
// call graph of service behaviors over the mesh substrate:
//
//   client → frontend ─┬─ search ──┬─ geo ── mongodb-geo
//                      │           └─ rate ──┬─ memcached-rate
//                      │                     └─ mongodb-rate      (on miss)
//                      ├─ profile ──┬─ memcached-profile
//                      │            └─ mongodb-profile            (on miss)
//                      ├─ recommendation ── mongodb-recommendation
//                      ├─ user ── mongodb-user
//                      └─ reservation ──┬─ memcached-reserve
//                                       └─ mongodb-reservation
//
// The frontend executes one of four operations per request (the wrk2 mixed
// workload): search (search + profile), recommend (recommendation +
// profile), login (user) and reserve (user + reservation). The whole
// application is deployed in every cluster; all inter-service hops are
// routed through TrafficSplits, so they are subject to multi-cluster load
// balancing — the paper's measurement target.
#pragma once

#include "l3/dsb/behaviors.h"
#include "l3/dsb/disturbance.h"
#include "l3/mesh/mesh.h"

#include <string>
#include <vector>

namespace l3::dsb {

/// Configuration of the hotel-reservation deployment.
struct HotelAppConfig {
  // Operation mix (fractions; normalised internally) — the DSB wrk2
  // mixed workload is dominated by searches.
  double search_ratio = 0.60;
  double recommend_ratio = 0.29;
  double login_ratio = 0.05;
  double reserve_ratio = 0.06;

  /// Probability a cache lookup misses and falls through to the database.
  double cache_miss_rate = 0.30;

  /// Per-request success probability of every service (Fig. 9 runs at
  /// 100 % success).
  double success_rate = 1.0;

  // Deployment shape per service per cluster.
  std::size_t replicas = 3;
  std::size_t concurrency = 64;
  std::size_t queue_capacity = 512;

  // Execution profiles.
  ServiceProfile frontend{0.0010, 0.005, 1.0};
  ServiceProfile search{0.0015, 0.008, 1.0};
  ServiceProfile geo{0.0020, 0.010, 1.0};
  ServiceProfile rate{0.0015, 0.008, 1.0};
  ServiceProfile profile{0.0015, 0.008, 1.0};
  ServiceProfile recommendation{0.0020, 0.010, 1.0};
  ServiceProfile user{0.0010, 0.005, 1.0};
  ServiceProfile reservation{0.0020, 0.010, 1.0};
  ServiceProfile memcached{0.0005, 0.002, 1.0};
  ServiceProfile mongodb{0.0030, 0.018, 1.5};
};

/// Builder/owner of the hotel-reservation deployment across clusters.
class HotelReservationApp {
 public:
  static constexpr const char* kFrontend = "frontend";

  /// @param clusters  the clusters to deploy into (all of them, per §5.1).
  HotelReservationApp(mesh::Mesh& mesh, std::vector<mesh::ClusterId> clusters,
                      HotelAppConfig config);

  /// Deploys every service of the call graph into every cluster.
  void deploy();

  /// Pre-creates the proxy/TrafficSplit for every (cluster, callee) edge of
  /// the call graph, so controllers created afterwards can manage_all().
  void warm_routes();

  /// All service names of the application, callees first.
  static const std::vector<std::string>& service_names();

  /// The call-graph edges as (callee service) names — every cluster needs a
  /// split for each.
  static const std::vector<std::string>& callee_names();

  ClusterLoadModel& load_model() { return load_model_; }
  const HotelAppConfig& config() const { return config_; }
  const std::vector<mesh::ClusterId>& clusters() const { return clusters_; }

 private:
  mesh::Mesh& mesh_;
  std::vector<mesh::ClusterId> clusters_;
  HotelAppConfig config_;
  ClusterLoadModel load_model_;
  bool deployed_ = false;
};

}  // namespace l3::dsb
