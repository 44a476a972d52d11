// The Mesh facade: clusters + WAN + deployments + per-source-cluster proxies
// and TrafficSplits + health checking + one metrics Registry per cluster.
// This is the multi-cluster Linkerd-on-Kubernetes equivalent everything
// else plugs into (Figure 3/5 of the paper). Every split starts at an equal
// weight per backend, and a weight push to a split applies at once.
#pragma once

#include "l3/common/rng.h"
#include "l3/common/time.h"
#include "l3/mesh/deployment.h"
#include "l3/mesh/health.h"
#include "l3/mesh/proxy.h"
#include "l3/mesh/traffic_split.h"
#include "l3/mesh/types.h"
#include "l3/mesh/wan.h"
#include "l3/metrics/registry.h"
#include "l3/sim/simulator.h"
#include "l3/trace/span.h"

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace l3::sim {
class ShardRouter;  // cross-shard event posting (l3/sim/shard_engine.h)
}  // namespace l3::sim

namespace l3::mesh {

/// Mesh-wide configuration.
struct MeshConfig {
  /// One-way in-cluster network delay (pod→pod through the sidecars).
  SimDuration local_delay = 0.0005;
  double local_jitter_frac = 0.2;
  /// Client-side request timeout for all proxies; 0 disables.
  SimDuration request_timeout = 30.0;
  /// Health-probe interval (0 disables health checking).
  SimDuration health_probe_interval = 10.0;
  /// Routing mode for every proxy (weighted TrafficSplit vs per-request
  /// PeakEWMA-P2C).
  RoutingMode routing = RoutingMode::kWeighted;
  /// Envoy-style outlier detection applied by every proxy (§5.1).
  OutlierDetectionConfig outlier_detection;
  /// Data-plane cost model for every proxy (DESIGN.md §16): sidecar CPU,
  /// bounded-concurrency service stage, per-edge connection pools with
  /// mTLS handshake costs. Zero-cost defaults = byte-identical behaviour.
  ProxyCostConfig proxy_cost;
  /// Sharded-run wiring: when set, every proxy this mesh creates uses the
  /// presampled WAN discipline and posts remote calls through this router
  /// instead of scheduling directly (see Proxy::enable_presampled). The
  /// router must belong to the shard that owns this mesh's simulator.
  sim::ShardRouter* shard_router = nullptr;
};

/// A multi-cluster service mesh instance bound to one simulator.
class Mesh {
 public:
  Mesh(sim::Simulator& sim, SplitRng rng, MeshConfig config = {});

  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

  // --- topology -----------------------------------------------------------

  /// Adds a cluster; returns its id. Clusters must be added before
  /// deployments that reference them.
  ClusterId add_cluster(std::string name, std::string region = "");

  const std::vector<Cluster>& clusters() const { return clusters_; }
  const std::vector<std::string>& cluster_names() const { return names_; }

  WanModel& wan() { return wan_; }
  const WanModel& wan() const { return wan_; }

  // --- deployments --------------------------------------------------------

  /// Deploys `service` into `cluster`. All deployments of a service must
  /// exist before the first proxy/call for that service is created.
  ServiceDeployment& deploy(const std::string& service, ClusterId cluster,
                            DeploymentConfig config,
                            std::unique_ptr<ServiceBehavior> behavior);

  /// Registers a deployment OWNED BY ANOTHER SHARD's mesh as a routing
  /// target in this one: proxies created here include it as a backend, and
  /// the presampled send path posts its work to the owning shard through
  /// the configured shard_router. The pointed-to deployment must outlive
  /// this mesh; `cluster` must not also have a local deployment of the
  /// same service.
  void declare_remote(const std::string& service, ClusterId cluster,
                      ServiceDeployment* deployment);

  /// nullptr when the service is not deployed in that cluster.
  ServiceDeployment* find_deployment(const std::string& service,
                                     ClusterId cluster);

  /// All deployments of a service, ordered by cluster id — locally deployed
  /// and declared-remote alike.
  std::vector<ServiceDeployment*> deployments_of(const std::string& service);

  // --- routing ------------------------------------------------------------

  /// The proxy for (source cluster, service); created (with an equal-weight
  /// TrafficSplit over every deployment of `service`) on first use.
  Proxy& proxy(ClusterId source, const std::string& service);

  /// Sends one request from `source` to `service` through the mesh.
  void call(ClusterId source, const std::string& service, int depth,
            ResponseFn done) {
    proxy(source, service).send(depth, std::move(done));
  }

  /// As above, propagating a trace context so the proxy/WAN/server spans of
  /// this hop attach to the caller's span tree.
  void call(ClusterId source, const std::string& service, int depth,
            trace::SpanContext parent, ResponseFn done) {
    proxy(source, service).send(depth, parent, std::move(done));
  }

  /// nullptr until the corresponding proxy has been created.
  TrafficSplit* find_split(ClusterId source, const std::string& service);

  /// Every TrafficSplit whose source is `source` (the set one per-cluster
  /// L3 controller instance manages), in creation order.
  std::vector<TrafficSplit*> splits_of_source(ClusterId source);

  // --- health & observability ----------------------------------------------

  HealthChecker& health() { return health_; }

  /// Attaches a tracer to every proxy and deployment, current and future
  /// (nullptr detaches). The tracer must outlive the mesh or be detached
  /// before destruction. With no tracer (or a kOff tracer) the request hot
  /// path stays allocation-free.
  void set_tracer(trace::Tracer* tracer);
  trace::Tracer* tracer() const { return tracer_; }

  /// The metrics registry of one cluster (scrape target).
  metrics::Registry& registry(ClusterId cluster);

  sim::Simulator& simulator() { return sim_; }
  const MeshConfig& config() const { return config_; }

 private:
  sim::Simulator& sim_;
  SplitRng rng_;
  MeshConfig config_;
  trace::Tracer* tracer_ = nullptr;
  WanModel wan_;
  HealthChecker health_;
  std::vector<Cluster> clusters_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<metrics::Registry>> registries_;
  // key: service name → per-cluster deployments
  std::map<std::string, std::map<ClusterId, std::unique_ptr<ServiceDeployment>>>
      deployments_;
  // key: service name → deployments owned by other shards (not owned here)
  std::map<std::string, std::map<ClusterId, ServiceDeployment*>>
      remote_deployments_;
  // key: (source, service)
  std::map<std::pair<ClusterId, std::string>, std::unique_ptr<TrafficSplit>>
      splits_;
  std::map<std::pair<ClusterId, std::string>, std::unique_ptr<Proxy>> proxies_;
  std::vector<std::pair<ClusterId, TrafficSplit*>> split_order_;
};

}  // namespace l3::mesh
