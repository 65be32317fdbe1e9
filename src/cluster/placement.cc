#include "src/cluster/placement.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/check.h"

namespace lithos {

std::string PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRoundRobin:
      return "round-robin";
    case PlacementPolicy::kLeastLoaded:
      return "least-loaded";
    case PlacementPolicy::kModelAffinity:
      return "model-affinity";
  }
  return "?";
}

std::vector<PlacementPolicy> AllPlacementPolicies() {
  return {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastLoaded,
          PlacementPolicy::kModelAffinity};
}

std::vector<int> ZoneInterleave(const std::vector<int>& nodes, const ZoneTopology& topo) {
  if (topo.num_zones <= 1 || topo.zone_size <= 0) {
    return nodes;
  }
  std::vector<std::vector<int>> by_zone(topo.num_zones);
  for (int node : nodes) {
    const int z = topo.ZoneOf(node);
    LITHOS_CHECK_GE(z, 0);
    LITHOS_CHECK_LT(z, topo.num_zones);
    by_zone[z].push_back(node);
  }
  std::vector<int> order;
  order.reserve(nodes.size());
  for (size_t rank = 0; order.size() < nodes.size(); ++rank) {
    for (const std::vector<int>& zone : by_zone) {
      if (rank < zone.size()) {
        order.push_back(zone[rank]);
      }
    }
  }
  return order;
}

std::vector<std::vector<int>> PackModels(const std::vector<FleetModel>& models,
                                         const std::vector<int>& nodes, double aggregate_rps,
                                         double target_utilization) {
  LITHOS_CHECK_GT(target_utilization, 0.0);
  LITHOS_CHECK(!nodes.empty());
  const int num_nodes = static_cast<int>(nodes.size());
  std::vector<std::vector<int>> packed(models.size());

  // Expected GPU-ms per wall second demanded by each model, using the same
  // popularity shares the dispatcher splits its arrival rate by.
  const std::vector<double> shares = PopularityShares(models);
  std::vector<double> load_ms(models.size());
  for (size_t i = 0; i < models.size(); ++i) {
    load_ms[i] = aggregate_rps * shares[i] * models[i].cost_ms;
  }

  // One node can execute ~1000 GPU-ms per second; fill to the target.
  const double capacity = target_utilization * 1000.0;

  std::vector<size_t> order(models.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&load_ms](size_t a, size_t b) { return load_ms[a] > load_ms[b]; });

  std::vector<double> bin(num_nodes, 0.0);
  for (size_t model : order) {
    const double need = load_ms[model];
    int replicas = std::max(1, static_cast<int>(std::ceil(need / capacity)));
    replicas = std::min(replicas, num_nodes);
    if (replicas == 1) {
      // First-fit: the lowest-index bin with room; overflow onto the
      // least-filled bin when every bin is full.
      int chosen = -1;
      for (int n = 0; n < num_nodes; ++n) {
        if (bin[n] + need <= capacity) {
          chosen = n;
          break;
        }
      }
      if (chosen < 0) {
        chosen = static_cast<int>(std::min_element(bin.begin(), bin.end()) - bin.begin());
      }
      bin[chosen] += need;
      packed[model] = {nodes[chosen]};
    } else {
      // Hot model: spread its replicas over the currently least-filled
      // bins and split the load evenly among them.
      std::vector<int> by_load(num_nodes);
      std::iota(by_load.begin(), by_load.end(), 0);
      std::sort(by_load.begin(), by_load.end(), [&bin](int a, int b) {
        if (bin[a] != bin[b]) {
          return bin[a] < bin[b];
        }
        return a < b;
      });
      for (int r = 0; r < replicas; ++r) {
        const int n = by_load[r];
        bin[n] += need / replicas;
        packed[model].push_back(nodes[n]);
      }
      std::sort(packed[model].begin(), packed[model].end());
    }
  }
  return packed;
}

// --- Placer -------------------------------------------------------------------

Placer::Placer(PlacementPolicy policy, const std::vector<FleetModel>& models, int num_nodes,
               double aggregate_rps, double target_utilization, ZoneTopology topo)
    : policy_(policy),
      num_nodes_(num_nodes),
      num_models_(static_cast<int>(models.size())),
      topo_(topo) {
  LITHOS_CHECK_GT(num_nodes_, 0);
  if (topo_.zone_size <= 0) {
    topo_.num_zones = 1;
    topo_.zone_size = num_nodes_;
  }
  LITHOS_CHECK_EQ(topo_.num_zones * topo_.zone_size, num_nodes_);
  std::vector<int> all(num_nodes_);
  std::iota(all.begin(), all.end(), 0);
  if (policy_ == PlacementPolicy::kModelAffinity) {
    replicas_ = PackModels(models, ZoneInterleave(all, topo_), aggregate_rps, target_utilization);
  } else {
    replicas_.assign(num_models_, all);
  }
  enabled_.assign(num_nodes_, 1);
  zone_enabled_.assign(topo_.num_zones, topo_.zone_size);
  spans_.resize(num_models_);
  for (int m = 0; m < num_models_; ++m) {
    RebuildSpans(m);
  }
}

void Placer::RebuildSpans(int model_index) {
  const std::vector<int>& replicas = replicas_[model_index];
  std::vector<ZoneSpan>& spans = spans_[model_index];
  spans.clear();
  for (int k = 0; k < static_cast<int>(replicas.size()); ++k) {
    const int zone = topo_.ZoneOf(replicas[k]);
    if (spans.empty() || spans.back().zone != zone) {
      spans.push_back({zone, k, k + 1});
    } else {
      spans.back().end = k + 1;
    }
  }
}

const std::vector<int>& Placer::ReplicaNodes(int model_index) const {
  LITHOS_CHECK_GE(model_index, 0);
  LITHOS_CHECK_LT(model_index, num_models_);
  return replicas_[model_index];
}

std::vector<int> Placer::EligibleNodes(int model_index) const {
  std::vector<int> eligible;
  for (int node : ReplicaNodes(model_index)) {
    if (enabled_[node]) {
      eligible.push_back(node);
    }
  }
  if (!eligible.empty()) {
    return eligible;
  }
  // Every replica is on a disabled node: fall back to any enabled node so
  // traffic keeps flowing while the control plane converges.
  for (int n = 0; n < num_nodes_; ++n) {
    if (enabled_[n]) {
      eligible.push_back(n);
    }
  }
  if (!eligible.empty()) {
    return eligible;
  }
  // Nothing enabled at all (a controller bug, but never dead-end routing).
  eligible.resize(num_nodes_);
  std::iota(eligible.begin(), eligible.end(), 0);
  return eligible;
}

bool Placer::MoveReplica(int model_index, int from, int to) {
  LITHOS_CHECK_GE(model_index, 0);
  LITHOS_CHECK_LT(model_index, num_models_);
  LITHOS_CHECK(from >= 0 || to >= 0);
  LITHOS_CHECK_GE(to, -1);
  LITHOS_CHECK_LT(to, num_nodes_);
  std::vector<int>& nodes = replicas_[model_index];
  const auto at = std::find(nodes.begin(), nodes.end(), from);
  if ((from >= 0 && at == nodes.end()) ||
      (to >= 0 && std::find(nodes.begin(), nodes.end(), to) != nodes.end()) ||
      (to < 0 && nodes.size() <= 1)) {
    return false;
  }
  if (from >= 0) {
    nodes.erase(at);
  }
  if (to >= 0) {
    nodes.insert(std::upper_bound(nodes.begin(), nodes.end(), to), to);
  }
  RebuildSpans(model_index);
  return true;
}

void Placer::SetNodeEnabled(int node, bool enabled) {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, num_nodes_);
  const char value = enabled ? 1 : 0;
  if (enabled_[node] == value) {
    return;
  }
  enabled_[node] = value;
  zone_enabled_[topo_.ZoneOf(node)] += enabled ? 1 : -1;
}

bool Placer::NodeEnabled(int node) const {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, num_nodes_);
  return enabled_[node] != 0;
}

int Placer::PlaceLeastOutstanding(int model_index,
                                  const std::vector<double>& outstanding_ms) const {
  // Replica sets are sorted ascending, so the first strict minimum seen is
  // the lowest-index tie-winner in every tier.
  int best = -1;
  for (int node : ReplicaNodes(model_index)) {
    if (enabled_[node] && (best < 0 || outstanding_ms[node] < outstanding_ms[best])) {
      best = node;
    }
  }
  if (best >= 0) {
    return best;
  }
  for (int n = 0; n < num_nodes_; ++n) {  // every replica disabled
    if (enabled_[n] && (best < 0 || outstanding_ms[n] < outstanding_ms[best])) {
      best = n;
    }
  }
  if (best >= 0) {
    return best;
  }
  for (int n = 0; n < num_nodes_; ++n) {  // nothing enabled at all
    if (best < 0 || outstanding_ms[n] < outstanding_ms[best]) {
      best = n;
    }
  }
  return best;
}

int Placer::Place(int model_index, const std::vector<double>& outstanding_ms,
                  const std::vector<double>& zone_outstanding_ms) {
  switch (policy_) {
    case PlacementPolicy::kRoundRobin:
      // Cycle the cursor past disabled nodes; with everything disabled the
      // plain cycle is the safety fallback.
      for (int tried = 0;; ++tried) {
        const int node = next_;
        next_ = (next_ + 1) % num_nodes_;
        if (enabled_[node] || tried == num_nodes_) {
          return node;
        }
      }
    case PlacementPolicy::kLeastLoaded:
      return PlaceLeastOutstanding(model_index, outstanding_ms);
    case PlacementPolicy::kModelAffinity:
      return PlaceZoneFirst(model_index, outstanding_ms, zone_outstanding_ms);
  }
  return -1;
}

int Placer::PlaceZoneFirst(int model_index, const std::vector<double>& outstanding_ms,
                           const std::vector<double>& zone_outstanding_ms) const {
  const std::vector<int>& replicas = ReplicaNodes(model_index);
  LITHOS_CHECK_EQ(static_cast<int>(zone_outstanding_ms.size()), topo_.num_zones);

  // Stage 1 (fleet root): walk the model's zone spans and pick the zone with
  // the least queued work per enabled node. Ties break to the lowest zone
  // id (spans are in ascending zone order).
  int best_zone = -1;
  double best_score = 0;
  int best_begin = 0;
  int best_end = 0;
  for (const ZoneSpan& span : spans_[model_index]) {
    const int enabled = zone_enabled_[span.zone];
    if (enabled > 0) {
      const double score = zone_outstanding_ms[span.zone] / enabled;
      if (best_zone < 0 || score < best_score) {
        best_zone = span.zone;
        best_score = score;
        best_begin = span.begin;
        best_end = span.end;
      }
    }
  }

  // Stage 2 (zone dispatcher): join the shortest queue among the model's
  // enabled replicas inside the chosen zone.
  int best = -1;
  for (int k = best_begin; k < best_end; ++k) {
    const int node = replicas[k];
    if (enabled_[node] && (best < 0 || outstanding_ms[node] < outstanding_ms[best])) {
      best = node;
    }
  }
  // No zone hosting a replica is enabled (e.g. an outage took the model's
  // whole footprint), or the chosen zone's enabled nodes hold none of this
  // model's replicas: fall back rather than dead-end.
  return best >= 0 ? best : PlaceLeastOutstanding(model_index, outstanding_ms);
}

}  // namespace lithos
