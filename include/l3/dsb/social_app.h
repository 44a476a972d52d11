// The DeathStarBench social-network application — a second, larger call
// graph on the same substrate (the suite's other flagship; the paper
// evaluates hotel-reservation, this one is provided as an extension to
// exercise the mesh at higher fan-out):
//
//   client → frontend ─┬─ home-timeline ──┬─ redis-home-timeline (local)
//                      │    (read 60 %)   ├─ post-storage  ──┬─ memcached-post (local)
//                      │                  └─ social-graph    └─ mongodb-post  (miss)
//                      │                        └─ mongodb-social-graph (local)
//                      ├─ user-timeline ──┬─ redis-user-timeline (local)
//                      │    (read 25 %)   ├─ mongodb-user-timeline (miss)
//                      │                  └─ post-storage
//                      └─ compose-post (15 %)
//                           stage 1 ∥: text ──┬─ url-shorten
//                                             └─ user-mention
//                                    unique-id, media, user
//                           stage 2 ∥: post-storage, user-timeline,
//                                      home-timeline
//
// Stateless services are mesh-routed (TrafficSplit targets); redis/mongo/
// memcached tiers are cluster-local.
#pragma once

#include "l3/dsb/behaviors.h"
#include "l3/dsb/disturbance.h"
#include "l3/mesh/mesh.h"

#include <string>
#include <vector>

namespace l3::dsb {

/// Configuration of the social-network deployment.
struct SocialAppConfig {
  // Operation mix.
  double read_home_ratio = 0.60;
  double read_user_ratio = 0.25;
  double compose_ratio = 0.15;

  /// Cache/redis miss probability (fall-through to mongodb).
  double cache_miss_rate = 0.25;

  /// Per-request success probability of every service.
  double success_rate = 1.0;

  // Deployment shape per service per cluster.
  std::size_t replicas = 3;
  std::size_t concurrency = 64;
  std::size_t queue_capacity = 512;

  // Execution profiles.
  ServiceProfile frontend{0.0010, 0.005, 1.0};
  ServiceProfile midtier{0.0015, 0.008, 1.0};   ///< timelines, post-storage…
  ServiceProfile textsvc{0.0020, 0.010, 1.0};   ///< text processing
  ServiceProfile leaf{0.0008, 0.004, 1.0};      ///< url-shorten, media, …
  ServiceProfile redis{0.0004, 0.002, 1.0};
  ServiceProfile memcached{0.0005, 0.002, 1.0};
  ServiceProfile mongodb{0.0030, 0.018, 1.5};
};

/// Builder/owner of the social-network deployment across clusters.
class SocialNetworkApp {
 public:
  static constexpr const char* kFrontend = "frontend";

  SocialNetworkApp(mesh::Mesh& mesh, std::vector<mesh::ClusterId> clusters,
                   SocialAppConfig config);

  /// Deploys every service into every cluster.
  void deploy();

  /// Pre-creates the proxy/TrafficSplit for every (cluster, callee) edge.
  void warm_routes();

  static const std::vector<std::string>& service_names();
  static const std::vector<std::string>& callee_names();

  ClusterLoadModel& load_model() { return load_model_; }
  const SocialAppConfig& config() const { return config_; }

 private:
  mesh::Mesh& mesh_;
  std::vector<mesh::ClusterId> clusters_;
  SocialAppConfig config_;
  ClusterLoadModel load_model_;
  bool deployed_ = false;
};

}  // namespace l3::dsb
