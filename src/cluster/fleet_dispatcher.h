// Region-scale fleet facade: zones as first-class failure domains.
//
// A FleetDispatcher is a ClusterDispatcher with zone-level operations over
// its ZoneTopology (contiguous racks / PDUs / network domains that fail
// together): whole-zone outage and repair, partition and heal, for the fault
// injector (src/fault/) and tests. Routing needs nothing extra here: the
// placer's model-affinity routing is already zone-first (placement.h).
// Recovery after a crash flows through the FleetController: dead replicas
// are re-placed onto survivors via the restore-only half of the
// checkpoint/restore migration path (docs/fleet.md).
#ifndef LITHOS_CLUSTER_FLEET_DISPATCHER_H_
#define LITHOS_CLUSTER_FLEET_DISPATCHER_H_

#include "src/cluster/cluster.h"

namespace lithos {

class FleetDispatcher : public ClusterDispatcher {
 public:
  // Requires config.num_zones >= 1 and num_nodes divisible by it (the
  // ClusterDispatcher base enforces the same invariant).
  FleetDispatcher(Simulator* sim, const ClusterConfig& config);

  // Whole-zone outage: every node in the zone crashes (idempotent per
  // node). Queued and in-flight work across the zone is written off; see
  // ClusterDispatcher::FailNode for per-node semantics.
  void FailZone(int z);

  // Repairs every node in the zone. Repaired nodes rejoin out of rotation;
  // the control plane re-activates and re-populates them.
  void ReviveZone(int z);

  // True when every node in the zone is currently failed.
  bool ZoneFailed(int z) const;

  // Whole-zone network partition: every node keeps computing but becomes
  // unreachable (idempotent per node). See ClusterDispatcher::PartitionNode
  // for the gray-failure semantics.
  void PartitionZone(int z);

  // Heals every node in the zone, delivering deferred completions in finish
  // order. Healed nodes rejoin out of rotation, like repaired ones.
  void HealZone(int z);

  // True when every node in the zone is currently partitioned.
  bool ZonePartitioned(int z) const;
};

}  // namespace lithos

#endif  // LITHOS_CLUSTER_FLEET_DISPATCHER_H_
