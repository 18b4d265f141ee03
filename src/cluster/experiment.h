// End-to-end cluster experiments: place a static job set, build their
// ring-allreduce flows, run the fluid simulation under a chosen
// congestion-control policy, and report per-job iteration statistics — the
// harness behind the §4/§5 placement bench.  Runs are fault-free and
// untraced; faults, traces and checkpoints on a cluster fabric are the
// online orchestrator's (orch/orchestrator.h).
#pragma once

#include <string>
#include <vector>

#include "cc/factory.h"
#include "cluster/placement.h"
#include "core/solver.h"
#include "net/network.h"

namespace ccml {

struct ExperimentConfig {
  PolicyKind policy = PolicyKind::kDcqcn;
  /// Tunables for every transport family (cc/factory.h); make_policy picks
  /// the member matching `policy`.
  TransportConfig transports;
  NetworkConfig net;
  Duration run_time = Duration::seconds(20);
  /// Assign each job a unique strict priority (paper §4, direction (ii)).
  bool unique_priorities = false;
  /// Gate communication phases with solver time-shifts (§4, direction (iii)).
  /// Jobs sharing any link are grouped transitively (§5 cluster-level
  /// compatibility) and each group is solved on one unified circle.
  bool flow_schedule = false;
  SolverOptions solver;
};

struct JobOutcome {
  std::string name;
  std::size_t iterations = 0;
  double mean_ms = 0.0;
  double median_ms = 0.0;
  double p99_ms = 0.0;
  double solo_ms = 0.0;    ///< analytic dedicated-network iteration time
  double slowdown = 0.0;   ///< mean / solo
  bool placed = false;
  bool spans_fabric = false;
};

struct ExperimentResult {
  std::vector<JobOutcome> outcomes;
  PlacementReport placement;
  /// Mean slowdown across placed jobs (the scheduler-quality scalar).
  double mean_slowdown() const;
  /// Worst per-job slowdown.
  double max_slowdown() const;
};

ExperimentResult run_cluster_experiment(const Topology& topo,
                                        const std::vector<JobRequest>& requests,
                                        PlacementPolicy& placement,
                                        const ExperimentConfig& config);

}  // namespace ccml
