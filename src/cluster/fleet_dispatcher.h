// Compatibility name for the fleet dispatcher: zones, zone-first routing and
// every fault hook live on ClusterDispatcher itself (src/cluster/cluster.h),
// and whole-zone faults are the fault injector's (src/fault/).
#ifndef LITHOS_CLUSTER_FLEET_DISPATCHER_H_
#define LITHOS_CLUSTER_FLEET_DISPATCHER_H_

#include "src/cluster/cluster.h"

namespace lithos {

using FleetDispatcher = ClusterDispatcher;

}  // namespace lithos

#endif  // LITHOS_CLUSTER_FLEET_DISPATCHER_H_
