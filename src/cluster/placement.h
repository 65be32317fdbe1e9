// Placement policies for the multi-GPU cluster dispatcher.
//
// The paper's production study (Section 3) motivates fleet-level
// consolidation: thirteen models with a several-hundred-x popularity spread
// average 27% device utilization when each service owns its own GPUs. The
// cluster layer routes the same diurnal traffic across a shared pool of
// LithOS nodes; the policies below span the consolidation spectrum:
//
//   * round-robin       — load-oblivious spraying (the strawman),
//   * least-outstanding — classic join-shortest-queue on queued GPU work,
//   * model-affinity    — bin-packs expected per-model load onto as few
//                         nodes as possible (first-fit decreasing), giving
//                         hot models dedicated replicas and packing the
//                         long tail of cold models together so whole GPUs
//                         are freed — the paper's consolidation argument.
//
// One Placer serves every policy: it carries a mutable per-model replica
// set and a per-node enabled bit, so the autoscale control plane
// (src/autoscale/) can re-home replicas (live migration) and take nodes in
// and out of rotation (drain / power-off) mid-run, and Place switches on the
// policy.
//
// Model-affinity routing is zone-first: pick the least-loaded zone holding a
// replica, then the least-loaded replica within it, with replica sets packed
// in ZoneInterleave order for cross-zone anti-affinity. A fleet of one zone
// is the flat case, where this is join-shortest-queue over the replica set
// — see docs/fleet.md.
#ifndef LITHOS_CLUSTER_PLACEMENT_H_
#define LITHOS_CLUSTER_PLACEMENT_H_

#include <string>
#include <vector>

#include "src/workloads/fleet.h"

namespace lithos {

enum class PlacementPolicy {
  kRoundRobin,
  kLeastLoaded,
  kModelAffinity,
};

std::string PlacementPolicyName(PlacementPolicy policy);
// All policies in increasing order of sophistication.
std::vector<PlacementPolicy> AllPlacementPolicies();

// Failure-domain topology: the pool's nodes are split into `num_zones`
// contiguous zones of `zone_size` nodes each, so zone z owns nodes
// [z * zone_size, (z + 1) * zone_size). A zone models one blast radius — a
// rack/PDU/network domain that fails together. num_zones == 1 (or
// zone_size == 0) is the flat, pre-hierarchy fleet.
struct ZoneTopology {
  int num_zones = 1;
  int zone_size = 0;  // nodes per zone; 0 = flat (everything in zone 0)
  // Sub-zone failure domains: each zone splits into `racks_per_zone`
  // contiguous racks (a PDU / ToR switch whose nodes crash together under
  // rack-correlated faults). 1 keeps the pre-rack fleet: one rack per zone.
  int racks_per_zone = 1;

  int ZoneOf(int node) const { return zone_size > 0 ? node / zone_size : 0; }
  int ZoneBegin(int zone) const { return zone * zone_size; }
  int ZoneEnd(int zone) const { return (zone + 1) * zone_size; }

  // Nodes per rack (0 in the flat topology, like zone_size).
  int RackSize() const { return racks_per_zone > 0 ? zone_size / racks_per_zone : zone_size; }
  int NumRacks() const { return num_zones * racks_per_zone; }
  // Rack index within a node's zone ([0, racks_per_zone)).
  int RackOf(int node) const {
    const int rack_size = RackSize();
    return rack_size > 0 ? (node - ZoneBegin(ZoneOf(node))) / rack_size : 0;
  }
  // Node range of rack `rack` in zone `zone`: [RackBegin, RackEnd).
  int RackBegin(int zone, int rack) const { return ZoneBegin(zone) + rack * RackSize(); }
  int RackEnd(int zone, int rack) const { return RackBegin(zone, rack) + RackSize(); }
};

// Zone-interleaved ordering of `nodes` (ascending node ids in, round-robin
// across zones out: first node of each zone, then second of each, ...).
// Feeding this order to PackModels makes first-fit consolidation fill one
// node per zone before reusing any zone, so the packed fleet — and in
// particular a hot model's replica set — spreads across failure domains and
// a whole-zone outage leaves survivors elsewhere.
std::vector<int> ZoneInterleave(const std::vector<int>& nodes, const ZoneTopology& topo);

// First-fit-decreasing packing of expected per-model load onto `nodes`
// (actual node ids; need not be contiguous). Each model's expected load
// (requests/s x GPU ms/request, split by popularity share) is placed into
// per-node bins of capacity target_utilization * 1000 GPU-ms per second;
// models hotter than one bin get ceil(load/capacity) replicas. Returns the
// per-model replica node lists, each sorted. Deterministic for given inputs.
// Shared by the model-affinity placer (over the full pool at construction)
// and the fleet controller (over the currently active pool when rescaling).
std::vector<std::vector<int>> PackModels(const std::vector<FleetModel>& models,
                                         const std::vector<int>& nodes, double aggregate_rps,
                                         double target_utilization);

// The fleet's one router: a per-model replica set and a per-node enabled
// bit, plus the policy that picks among them.
class Placer {
 public:
  // Builds the replica sets. Round-robin and least-loaded replicate every
  // model on every node. Model-affinity packs with PackModels over the
  // zone-interleaved node order; `aggregate_rps` is the fleet-wide mean
  // request rate and `target_utilization` the per-node GPU-time budget the
  // packer fills to (both ignored by the other policies). The default
  // topology is one zone covering every node. Construction is
  // deterministic: the same inputs always produce the same packing.
  Placer(PlacementPolicy policy, const std::vector<FleetModel>& models, int num_nodes,
         double aggregate_rps, double target_utilization, ZoneTopology topo = {});

  // Returns the node index ([0, num_nodes)) for a request of
  // `models[model_index]`. `outstanding_ms` is the dispatcher's live
  // estimate of queued-but-unfinished GPU milliseconds per node and
  // `zone_outstanding_ms` its per-zone sum (one entry per zone).
  //
  //   * round-robin: the next enabled node after the cursor;
  //   * least-loaded: the least-outstanding routable node;
  //   * model-affinity: zone first, node second. Walk the model's cached
  //     zone spans (one run of its sorted replica list per zone) and pick
  //     the zone with the least queued work per enabled node, then the
  //     least-outstanding enabled replica inside it. Per-arrival work is
  //     O(Z_m + R/Z) for R replicas spanning Z_m of Z zones; with one zone
  //     this is the least-outstanding replica.
  //
  // Ties break to the lowest zone, then the lowest node. With no enabled
  // replica to pick, every policy falls back to the enabled nodes and then
  // to any node, like EligibleNodes, so routing never dead-ends.
  int Place(int model_index, const std::vector<double>& outstanding_ms,
            const std::vector<double>& zone_outstanding_ms);

  // Nodes this policy currently routes `model_index` to: the model's replica
  // set intersected with the enabled nodes. Falls back to all enabled nodes
  // when the intersection is empty (every replica drained away), and to
  // every node when nothing is enabled.
  std::vector<int> EligibleNodes(int model_index) const;

  // --- Runtime mutation hooks (the autoscale control plane) ----------------

  // The model's raw replica set, ignoring the enabled bits. Sorted.
  const std::vector<int>& ReplicaNodes(int model_index) const;

  // Changes one replica of the model: re-homes it from `from` to `to`, where
  // -1 means "no node", so `from = -1` adds a replica on `to` and `to = -1`
  // removes the one on `from`. Fails (returning false, mutating nothing)
  // unless `from` hosts a replica and `to` does not; a removal never takes
  // the last replica (a model must stay routable somewhere). -1 -> -1 is a
  // checked error.
  bool MoveReplica(int model_index, int from, int to);

  // Takes a node out of (or back into) rotation. Disabled nodes receive no
  // new placements but keep their replica assignments, so a drained node
  // re-enables with its packing intact.
  void SetNodeEnabled(int node, bool enabled);
  bool NodeEnabled(int node) const;

  const ZoneTopology& zone_topology() const { return topo_; }
  int num_nodes() const { return num_nodes_; }
  int num_models() const { return num_models_; }

 private:
  // Least-outstanding choice over the model's routable nodes — the same
  // semantics as EligibleNodes without materialising a vector on the
  // dispatch hot path. Ties break to the lowest node index.
  int PlaceLeastOutstanding(int model_index, const std::vector<double>& outstanding_ms) const;
  int PlaceZoneFirst(int model_index, const std::vector<double>& outstanding_ms,
                     const std::vector<double>& zone_outstanding_ms) const;

  // One zone's run [begin, end) of a model's sorted replica list.
  struct ZoneSpan {
    int zone;
    int begin;
    int end;
  };
  // Recomputes spans_[model_index] from replicas_[model_index]; the
  // constructor and MoveReplica call it.
  void RebuildSpans(int model_index);

  PlacementPolicy policy_;
  int num_nodes_ = 0;
  int num_models_ = 0;
  ZoneTopology topo_;
  std::vector<std::vector<int>> replicas_;  // model -> sorted replica nodes
  // model -> zone runs of replicas_, in ascending zone order
  std::vector<std::vector<ZoneSpan>> spans_;
  std::vector<char> enabled_;               // node -> in rotation?
  std::vector<int> zone_enabled_;           // zone -> enabled node count
  int next_ = 0;                            // round-robin cursor
};

}  // namespace lithos

#endif  // LITHOS_CLUSTER_PLACEMENT_H_
