#include "l3/dsb/social_app.h"

#include "l3/common/assert.h"

#include <memory>
#include <utility>

namespace l3::dsb {

SocialNetworkApp::SocialNetworkApp(mesh::Mesh& mesh,
                                   std::vector<mesh::ClusterId> clusters,
                                   SocialAppConfig config)
    : mesh_(mesh),
      clusters_(std::move(clusters)),
      config_(config),
      load_model_(mesh.clusters().size()) {
  L3_EXPECTS(!clusters_.empty());
}

const std::vector<std::string>& SocialNetworkApp::service_names() {
  static const std::vector<std::string> kNames = {
      // stateful tiers first (they are called by the tiers above)
      "redis-home-timeline", "redis-user-timeline", "memcached-post",
      "mongodb-post", "mongodb-user-timeline", "mongodb-social-graph",
      // stateless services
      "url-shorten", "user-mention", "unique-id", "media", "user",
      "social-graph", "post-storage", "text", "user-timeline",
      "home-timeline", "compose-post", "frontend"};
  return kNames;
}

const std::vector<std::string>& SocialNetworkApp::callee_names() {
  static const std::vector<std::string> kCallees = {
      "home-timeline", "user-timeline", "compose-post", "post-storage",
      "social-graph",  "text",          "url-shorten",  "user-mention",
      "unique-id",     "media",         "user"};
  return kCallees;
}

void SocialNetworkApp::deploy() {
  L3_EXPECTS(!deployed_);
  deployed_ = true;
  mesh::DeploymentConfig dc;
  dc.replicas = config_.replicas;
  dc.concurrency = config_.concurrency;
  dc.queue_capacity = config_.queue_capacity;

  const double sr = config_.success_rate;
  const double miss = config_.cache_miss_rate;
  const auto& load = load_model_;

  auto m = [](std::string service) {
    return Call{std::move(service), /*local=*/false, 1.0};
  };
  auto local = [](std::string service, double probability = 1.0) {
    return Call{std::move(service), /*local=*/true, probability};
  };

  auto make = [&](const std::string& service)
      -> std::unique_ptr<mesh::ServiceBehavior> {
    if (service == "frontend") {
      std::vector<Operation> ops;
      ops.push_back({config_.read_home_ratio, {{m("home-timeline")}}});
      ops.push_back({config_.read_user_ratio, {{m("user-timeline")}}});
      ops.push_back({config_.compose_ratio, {{m("compose-post")}}});
      return std::make_unique<MixBehavior>(config_.frontend, load, sr,
                                           std::move(ops));
    }
    if (service == "compose-post") {
      return std::make_unique<StagedBehavior>(
          config_.midtier, load, sr,
          std::vector<Stage>{
              {m("text"), m("unique-id"), m("media"), m("user")},
              {m("post-storage"), m("user-timeline"), m("home-timeline")}});
    }
    if (service == "text") {
      return std::make_unique<StagedBehavior>(
          config_.textsvc, load, sr,
          std::vector<Stage>{{m("url-shorten"), m("user-mention")}});
    }
    if (service == "home-timeline") {
      // Read path: timeline ids from redis, then posts from post-storage;
      // the social graph is consulted on the (rarer) write/fan-out path.
      return std::make_unique<StagedBehavior>(
          config_.midtier, load, sr,
          std::vector<Stage>{{local("redis-home-timeline")},
                             {Call{"post-storage", false, 0.8},
                              Call{"social-graph", false, 0.3}}});
    }
    if (service == "user-timeline") {
      return std::make_unique<StagedBehavior>(
          config_.midtier, load, sr,
          std::vector<Stage>{{local("redis-user-timeline")},
                             {local("mongodb-user-timeline", miss)},
                             {m("post-storage")}});
    }
    if (service == "post-storage") {
      return std::make_unique<StagedBehavior>(
          config_.midtier, load, sr,
          std::vector<Stage>{{local("memcached-post")},
                             {local("mongodb-post", miss)}});
    }
    if (service == "social-graph") {
      return std::make_unique<StagedBehavior>(
          config_.midtier, load, sr,
          std::vector<Stage>{{local("mongodb-social-graph")}});
    }
    if (service == "redis-home-timeline" || service == "redis-user-timeline") {
      return std::make_unique<StagedBehavior>(config_.redis, load, sr,
                                              std::vector<Stage>{});
    }
    if (service == "memcached-post") {
      return std::make_unique<StagedBehavior>(config_.memcached, load, sr,
                                              std::vector<Stage>{});
    }
    if (service.rfind("mongodb-", 0) == 0) {
      return std::make_unique<StagedBehavior>(config_.mongodb, load, sr,
                                              std::vector<Stage>{});
    }
    // url-shorten, user-mention, unique-id, media, user: pure compute.
    return std::make_unique<StagedBehavior>(config_.leaf, load, sr,
                                            std::vector<Stage>{});
  };

  for (const auto& service : service_names()) {
    for (mesh::ClusterId cluster : clusters_) {
      mesh_.deploy(service, cluster, dc, make(service));
    }
  }
}

void SocialNetworkApp::warm_routes() {
  L3_EXPECTS(deployed_);
  for (mesh::ClusterId cluster : clusters_) {
    for (const auto& callee : callee_names()) {
      mesh_.proxy(cluster, callee);
    }
  }
}

}  // namespace l3::dsb
