// Weighted max-min fair allocation by progressive filling ("water-filling").
//
// Shared by the ideal policies: MaxMinFairPolicy (all weights 1), WfqPolicy
// (per-flow weights) and PriorityPolicy (per-class residual filling), which
// also share WaterFillPolicy's fused stepping.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/network.h"
#include "net/types.h"
#include "util/units.h"

namespace ccml {

/// Computes the weighted max-min fair rates for the flows in `slots` (network
/// slab slots, as handed out by Network::active_slots()) given per-link
/// residual capacities.  Returns rates parallel to `slots`.  `residual` is
/// indexed by LinkId value and is *updated in place* (capacity consumed by
/// the returned allocation), which lets PriorityPolicy fill classes
/// successively.
///
/// `weights` is parallel to `slots`; pass an empty span for unit weights.
/// Flows whose weight is <= 0 receive zero rate.
///
/// The fill rounds walk the network's flat route array (no per-flow Route
/// indirection) and touch no hash table.
std::vector<Rate> water_fill(const Network& net,
                             std::span<const std::uint32_t> slots,
                             std::vector<Rate>& residual,
                             std::span<const double> weights = {});

/// Residual vector initialised to every link's effective capacity.
std::vector<Rate> full_residual(const Network& net);

/// Base of the ideal allocators.  Their rates are a pure function of the
/// active flow set, the routes, the links' effective capacities and the
/// flows' weights and priorities.  None of these changes inside a fused
/// burst (no start, finish, park, reroute or capacity change), so a burst
/// computes the allocation once and integrates it `ticks` times: every tick
/// sees the same rates, and so the same arithmetic, as per-tick stepping.
class WaterFillPolicy : public BandwidthPolicy {
 public:
  void update_rates_burst(Network& net, TimePoint first, Duration dt,
                          std::uint64_t ticks) override;
  /// The smallest effective capacity on the flow's route.  Water-fill
  /// never gives a flow more than the residual of any link it crosses, and
  /// residuals only shrink from the effective capacity.  The frozen rate
  /// weight * (residual / weight) can round one ulp above the residual;
  /// Network::completion_free_ticks' x0.999 - 2 tick haircut covers that.
  double rate_bound_bps(const Network& net, std::uint32_t slot) const override;
  /// The allocation carries no state across steps; nothing decays.
  bool quiescent() const override { return true; }
};

}  // namespace ccml
