// Tunable configuration of the LithOS backend: the feature switches the
// ablations toggle and the latency-slip parameter k.
//
// Defaults follow the paper: k = 1.1 bounds right-sizing and DVFS
// degradation to ~10% (Sections 7.2, 7.3). The OS's fixed policy — atom
// sizing, the outstanding-atom limits that keep the GPU backlog shallow
// (Section 4.3), right-sizing exploration, the DVFS cadence and learning
// period, and predictor smoothing — lives as named constants in the module
// that applies it. TPC Stealing is always on.
#ifndef LITHOS_CORE_CONFIG_H_
#define LITHOS_CORE_CONFIG_H_

namespace lithos {

struct LithosConfig {
  // --- Feature switches (the ablation in Fig. 19 toggles these) -------------
  bool enable_atomization = true;
  bool enable_rightsizing = false;   // off in scheduling-only comparisons (§7.1)
  bool enable_dvfs = false;          // off in scheduling-only comparisons (§7.1)
  // Dedicated-deployment allocation: every kernel occupies the client's full
  // quota even when its grid cannot use it. This is the overprovisioned
  // baseline that Fig. 17's capacity savings are measured against; normal
  // scheduling caps the width at the kernel's occupancy bound.
  bool allocate_full_quota = false;

  // --- Right-sizing ------------------------------------------------------------
  // Latency-slip parameter k: accept up to this multiplicative latency
  // increase in exchange for fewer TPCs (k = 1.1 in §7.2).
  double rightsizing_slip = 1.10;

  // --- DVFS ---------------------------------------------------------------------
  double dvfs_slip = 1.10;
};

}  // namespace lithos

#endif  // LITHOS_CORE_CONFIG_H_
