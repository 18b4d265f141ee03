// Ideal fair sharing: the global max-min fair allocation of the active flows.
//
// This models what a well-tuned fair congestion controller converges to and
// serves as the paper's "fair sharing" baseline without DCQCN's transient
// dynamics.
#pragma once

#include "cc/water_fill.h"

namespace ccml {

class MaxMinFairPolicy final : public WaterFillPolicy {
 public:
  const char* name() const override { return "max-min-fair"; }
  void update_rates(Network& net, TimePoint now, Duration dt) override;
};

}  // namespace ccml
