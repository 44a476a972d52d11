#include "l3/mesh/mesh.h"

#include "l3/common/assert.h"

namespace l3::mesh {

Mesh::Mesh(sim::Simulator& sim, SplitRng rng, MeshConfig config)
    : sim_(sim),
      rng_(rng),
      config_(config),
      health_(sim) {
  if (config_.health_probe_interval > 0.0) {
    health_.start(config_.health_probe_interval);
  }
}

ClusterId Mesh::add_cluster(std::string name, std::string region) {
  const auto id = static_cast<ClusterId>(clusters_.size());
  clusters_.push_back(Cluster{id, name, std::move(region)});
  names_.push_back(std::move(name));
  registries_.push_back(std::make_unique<metrics::Registry>());
  wan_.resize(clusters_.size());
  wan_.set_local_delay(config_.local_delay, config_.local_jitter_frac);
  return id;
}

ServiceDeployment& Mesh::deploy(const std::string& service, ClusterId cluster,
                                DeploymentConfig config,
                                std::unique_ptr<ServiceBehavior> behavior) {
  L3_EXPECTS(cluster < clusters_.size());
  auto& per_cluster = deployments_[service];
  L3_EXPECTS(per_cluster.find(cluster) == per_cluster.end());
  auto deployment = std::make_unique<ServiceDeployment>(
      service, cluster, config, std::move(behavior), sim_, *this,
      rng_.split(service + "@" + names_[cluster]));
  ServiceDeployment& ref = *deployment;
  per_cluster.emplace(cluster, std::move(deployment));
  health_.watch(ref);
  return ref;
}

void Mesh::declare_remote(const std::string& service, ClusterId cluster,
                          ServiceDeployment* deployment) {
  L3_EXPECTS(cluster < clusters_.size());
  L3_EXPECTS(deployment != nullptr && deployment->cluster() == cluster);
  // A remote declaration only makes sense on a sharded mesh: without a
  // router the proxy would have to schedule onto a foreign simulator.
  L3_EXPECTS(config_.shard_router != nullptr);
  L3_EXPECTS(find_deployment(service, cluster) == nullptr);
  auto& per_cluster = remote_deployments_[service];
  L3_EXPECTS(per_cluster.find(cluster) == per_cluster.end());
  per_cluster.emplace(cluster, deployment);
}

ServiceDeployment* Mesh::find_deployment(const std::string& service,
                                         ClusterId cluster) {
  const auto it = deployments_.find(service);
  if (it == deployments_.end()) return nullptr;
  const auto jt = it->second.find(cluster);
  return jt == it->second.end() ? nullptr : jt->second.get();
}

std::vector<ServiceDeployment*> Mesh::deployments_of(
    const std::string& service) {
  std::vector<ServiceDeployment*> out;
  const auto it = deployments_.find(service);
  const auto rt = remote_deployments_.find(service);
  if (it != deployments_.end()) {
    out.reserve(it->second.size());
    for (auto& [cluster, deployment] : it->second) {
      out.push_back(deployment.get());  // std::map iterates in cluster order
    }
  }
  if (rt != remote_deployments_.end()) {
    // Merge the two cluster-ordered runs so the combined list is ordered by
    // cluster id exactly as a single-shard mesh (with every deployment
    // local) would produce it.
    std::vector<ServiceDeployment*> merged;
    merged.reserve(out.size() + rt->second.size());
    auto local = out.begin();
    for (auto& [cluster, deployment] : rt->second) {
      while (local != out.end() && (*local)->cluster() < cluster) {
        merged.push_back(*local++);
      }
      merged.push_back(deployment);
    }
    merged.insert(merged.end(), local, out.end());
    out = std::move(merged);
  }
  return out;
}

Proxy& Mesh::proxy(ClusterId source, const std::string& service) {
  L3_EXPECTS(source < clusters_.size());
  const auto key = std::make_pair(source, service);
  const auto it = proxies_.find(key);
  if (it != proxies_.end()) return *it->second;

  auto deployments = deployments_of(service);
  L3_EXPECTS(!deployments.empty());  // deploy before first call

  std::vector<BackendRef> refs;
  refs.reserve(deployments.size());
  for (const auto* d : deployments) {
    refs.push_back(BackendRef{service, d->cluster()});
  }
  auto split =
      std::make_unique<TrafficSplit>(service, source, std::move(refs));
  TrafficSplit& split_ref = *split;
  splits_.emplace(key, std::move(split));
  split_order_.emplace_back(source, &split_ref);

  ProxyConfig pc;
  pc.timeout = config_.request_timeout;
  pc.routing = config_.routing;
  pc.outlier = config_.outlier_detection;
  pc.cost = config_.proxy_cost;
  auto proxy = std::make_unique<Proxy>(
      sim_, wan_, source, split_ref, std::move(deployments),
      *registries_[source],
      config_.health_probe_interval > 0.0 ? &health_ : nullptr,
      rng_.split("proxy/" + names_[source] + "/" + service), pc, names_);
  if (config_.shard_router != nullptr) {
    proxy->enable_presampled(config_.shard_router);
  }
  proxy->set_tracer(tracer_);
  Proxy& ref = *proxy;
  proxies_.emplace(key, std::move(proxy));
  return ref;
}

void Mesh::set_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  for (auto& [key, proxy] : proxies_) proxy->set_tracer(tracer);
  for (auto& [service, per_cluster] : deployments_) {
    for (auto& [cluster, deployment] : per_cluster) {
      deployment->set_tracer(tracer);
    }
  }
}

TrafficSplit* Mesh::find_split(ClusterId source, const std::string& service) {
  const auto it = splits_.find(std::make_pair(source, service));
  return it == splits_.end() ? nullptr : it->second.get();
}

std::vector<TrafficSplit*> Mesh::splits_of_source(ClusterId source) {
  std::vector<TrafficSplit*> out;
  for (const auto& [src, split] : split_order_) {
    if (src == source) out.push_back(split);
  }
  return out;
}

metrics::Registry& Mesh::registry(ClusterId cluster) {
  L3_EXPECTS(cluster < registries_.size());
  return *registries_[cluster];
}

}  // namespace l3::mesh
