#include "l3/dsb/hotel_app.h"

#include "l3/common/assert.h"

#include <memory>
#include <utility>

namespace l3::dsb {

HotelReservationApp::HotelReservationApp(mesh::Mesh& mesh,
                                         std::vector<mesh::ClusterId> clusters,
                                         HotelAppConfig config)
    : mesh_(mesh),
      clusters_(std::move(clusters)),
      config_(config),
      load_model_(mesh.clusters().size()) {
  L3_EXPECTS(!clusters_.empty());
}

const std::vector<std::string>& HotelReservationApp::service_names() {
  static const std::vector<std::string> kNames = {
      "mongodb-geo",     "mongodb-rate",           "mongodb-profile",
      "mongodb-recommendation", "mongodb-user",    "mongodb-reservation",
      "memcached-rate",  "memcached-profile",      "memcached-reserve",
      "geo",             "rate",                   "profile",
      "recommendation",  "user",                   "reservation",
      "search",          "frontend"};
  return kNames;
}

const std::vector<std::string>& HotelReservationApp::callee_names() {
  // Only the stateless gRPC services are mesh-routed (and therefore
  // TrafficSplit targets); the stateful memcached/mongodb tiers are called
  // cluster-locally.
  static const std::vector<std::string> kCallees = {
      "search", "profile", "recommendation", "user", "reservation",
      "geo",    "rate"};
  return kCallees;
}

void HotelReservationApp::deploy() {
  L3_EXPECTS(!deployed_);
  deployed_ = true;
  mesh::DeploymentConfig dc;
  dc.replicas = config_.replicas;
  dc.concurrency = config_.concurrency;
  dc.queue_capacity = config_.queue_capacity;

  const double sr = config_.success_rate;
  const double miss = config_.cache_miss_rate;
  const auto& load = load_model_;

  // Shorthand for mesh-routed and cluster-local calls.
  auto m = [](std::string service) {
    return Call{std::move(service), /*local=*/false, 1.0};
  };
  auto local = [](std::string service, double probability = 1.0) {
    return Call{std::move(service), /*local=*/true, probability};
  };

  auto make = [&](const std::string& service)
      -> std::unique_ptr<mesh::ServiceBehavior> {
    if (service == "frontend") {
      // The wrk2 mixed workload: one operation per request.
      std::vector<Operation> ops;
      ops.push_back({config_.search_ratio, {{m("search")}, {m("profile")}}});
      ops.push_back(
          {config_.recommend_ratio, {{m("recommendation")}, {m("profile")}}});
      ops.push_back({config_.login_ratio, {{m("user")}}});
      ops.push_back({config_.reserve_ratio, {{m("user")}, {m("reservation")}}});
      return std::make_unique<MixBehavior>(config_.frontend, load, sr,
                                           std::move(ops));
    }
    if (service == "search") {
      return std::make_unique<StagedBehavior>(
          config_.search, load, sr,
          std::vector<Stage>{{m("geo"), m("rate")}});
    }
    if (service == "geo") {
      return std::make_unique<StagedBehavior>(
          config_.geo, load, sr, std::vector<Stage>{{local("mongodb-geo")}});
    }
    if (service == "rate") {
      return std::make_unique<StagedBehavior>(
          config_.rate, load, sr,
          std::vector<Stage>{{local("memcached-rate")},
                             {local("mongodb-rate", miss)}});
    }
    if (service == "profile") {
      return std::make_unique<StagedBehavior>(
          config_.profile, load, sr,
          std::vector<Stage>{{local("memcached-profile")},
                             {local("mongodb-profile", miss)}});
    }
    if (service == "recommendation") {
      return std::make_unique<StagedBehavior>(
          config_.recommendation, load, sr,
          std::vector<Stage>{{local("mongodb-recommendation")}});
    }
    if (service == "user") {
      return std::make_unique<StagedBehavior>(
          config_.user, load, sr,
          std::vector<Stage>{{local("mongodb-user")}});
    }
    if (service == "reservation") {
      // Writes go to both the cache and the database.
      return std::make_unique<StagedBehavior>(
          config_.reservation, load, sr,
          std::vector<Stage>{
              {local("memcached-reserve"), local("mongodb-reservation")}});
    }
    if (service.rfind("memcached-", 0) == 0) {
      return std::make_unique<StagedBehavior>(config_.memcached, load, sr,
                                              std::vector<Stage>{});
    }
    L3_ASSERT(service.rfind("mongodb-", 0) == 0);
    return std::make_unique<StagedBehavior>(config_.mongodb, load, sr,
                                            std::vector<Stage>{});
  };

  for (const auto& service : service_names()) {
    for (mesh::ClusterId cluster : clusters_) {
      mesh_.deploy(service, cluster, dc, make(service));
    }
  }
}

void HotelReservationApp::warm_routes() {
  L3_EXPECTS(deployed_);
  for (mesh::ClusterId cluster : clusters_) {
    for (const auto& callee : callee_names()) {
      mesh_.proxy(cluster, callee);
    }
  }
}

}  // namespace l3::dsb
