// Weighted fair queueing at fluid granularity: weighted max-min allocation
// using each flow's FlowSpec::weight.  Models switches dividing bandwidth in
// configured proportions (paper §4, priority-queue direction, when queues are
// weighted rather than strict).
#pragma once

#include "cc/water_fill.h"

namespace ccml {

class WfqPolicy final : public WaterFillPolicy {
 public:
  const char* name() const override { return "wfq"; }
  void update_rates(Network& net, TimePoint now, Duration dt) override;
};

}  // namespace ccml
