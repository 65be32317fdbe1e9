#include "src/cluster/fleet_dispatcher.h"

#include "src/common/check.h"

namespace lithos {

FleetDispatcher::FleetDispatcher(Simulator* sim, const ClusterConfig& config)
    : ClusterDispatcher(sim, config) {}

void FleetDispatcher::FailZone(int z) {
  LITHOS_CHECK_GE(z, 0);
  LITHOS_CHECK_LT(z, num_zones());
  for (int n = zone_topology().ZoneBegin(z); n < zone_topology().ZoneEnd(z); ++n) {
    FailNode(n);
  }
}

void FleetDispatcher::ReviveZone(int z) {
  LITHOS_CHECK_GE(z, 0);
  LITHOS_CHECK_LT(z, num_zones());
  for (int n = zone_topology().ZoneBegin(z); n < zone_topology().ZoneEnd(z); ++n) {
    ReviveNode(n);
  }
}

void FleetDispatcher::PartitionZone(int z) {
  LITHOS_CHECK_GE(z, 0);
  LITHOS_CHECK_LT(z, num_zones());
  for (int n = zone_topology().ZoneBegin(z); n < zone_topology().ZoneEnd(z); ++n) {
    PartitionNode(n);
  }
}

void FleetDispatcher::HealZone(int z) {
  LITHOS_CHECK_GE(z, 0);
  LITHOS_CHECK_LT(z, num_zones());
  for (int n = zone_topology().ZoneBegin(z); n < zone_topology().ZoneEnd(z); ++n) {
    HealNode(n);
  }
}

bool FleetDispatcher::ZonePartitioned(int z) const {
  LITHOS_CHECK_GE(z, 0);
  LITHOS_CHECK_LT(z, num_zones());
  for (int n = zone_topology().ZoneBegin(z); n < zone_topology().ZoneEnd(z); ++n) {
    if (!NodePartitioned(n)) {
      return false;
    }
  }
  return true;
}

bool FleetDispatcher::ZoneFailed(int z) const {
  LITHOS_CHECK_GE(z, 0);
  LITHOS_CHECK_LT(z, num_zones());
  for (int n = zone_topology().ZoneBegin(z); n < zone_topology().ZoneEnd(z); ++n) {
    if (!NodeFailed(n)) {
      return false;
    }
  }
  return true;
}

}  // namespace lithos
