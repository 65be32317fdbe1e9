// Client (application/GPU-context) registry for the driver shim.
//
// A client corresponds to one application process with its own GPU context —
// what the paper calls a tenant. Clients carry the priority class and the TPC
// quota that system administrators configure (Section 4.2, "Compute Quotas").
#ifndef LITHOS_DRIVER_CLIENT_H_
#define LITHOS_DRIVER_CLIENT_H_

#include <string>

namespace lithos {

enum class PriorityClass {
  kHighPriority,  // latency- or throughput-SLO bound (HP)
  kBestEffort,    // no deadline (BE)
};

inline const char* ToString(PriorityClass p) {
  return p == PriorityClass::kHighPriority ? "HP" : "BE";
}

struct Client {
  int id = 0;
  std::string name;
  PriorityClass priority = PriorityClass::kBestEffort;
  // Guaranteed TPCs when work is available (LithOS quota; also used as the
  // partition size by MIG/Limits). Zero means "no guarantee" (typical for BE).
  int tpc_quota = 0;
  // Memory footprint; used only for reporting and MIG partition sizing.
  double memory_gib = 0;

  bool IsHighPriority() const { return priority == PriorityClass::kHighPriority; }
};

}  // namespace lithos

#endif  // LITHOS_DRIVER_CLIENT_H_
