#include "cluster/experiment.h"

#include <algorithm>
#include <map>

#include "cluster/run_assembly.h"
#include "core/schedule.h"
#include "util/stats.h"
#include "util/union_find.h"
#include "workload/job.h"

namespace ccml {

double ExperimentResult::mean_slowdown() const {
  Summary s;
  for (const auto& o : outcomes) {
    if (o.placed && o.iterations > 0) s.add(o.slowdown);
  }
  return s.empty() ? 0.0 : s.mean();
}

double ExperimentResult::max_slowdown() const {
  double worst = 0.0;
  for (const auto& o : outcomes) {
    if (o.placed && o.iterations > 0) worst = std::max(worst, o.slowdown);
  }
  return worst;
}

ExperimentResult run_cluster_experiment(const Topology& topo,
                                        const std::vector<JobRequest>& requests,
                                        PlacementPolicy& placement,
                                        const ExperimentConfig& config) {
  ExperimentResult result;
  result.placement = placement.place(topo, requests);

  RunAssembly run(topo, config.policy, config.transports, config.net,
                  /*trace=*/nullptr);
  const Rate nic_goodput = run.host_goodput();

  // Optional flow schedule: group jobs transitively by shared links, solve
  // each group on one unified circle, convert rotations to comm gates and
  // recommended start offsets.
  std::vector<std::optional<CommGate>> gates(requests.size());
  std::vector<Duration> start_offsets(requests.size(), Duration::zero());
  if (config.flow_schedule) {
    UnionFind uf(requests.size());
    for (const auto& sl : result.placement.shared_links) {
      for (std::size_t i = 1; i < sl.jobs.size(); ++i) {
        uf.unite(sl.jobs[0], sl.jobs[i]);
      }
    }
    std::map<std::size_t, std::vector<std::size_t>> groups;
    for (std::size_t j = 0; j < requests.size(); ++j) {
      if (!result.placement.placements[j].hosts.empty()) {
        groups[uf.find(j)].push_back(j);
      }
    }
    CompatibilitySolver solver(config.solver);
    for (const auto& [root, members] : groups) {
      if (members.size() < 2) continue;
      std::vector<CommProfile> profiles;
      for (const std::size_t j : members) {
        profiles.push_back(requests[j].comm_profile);
      }
      const SolverResult sr = solver.solve(profiles);
      // Gating an incompatible group is actively harmful: contention
      // stretches a communication phase past its slot, the job waits a full
      // period for the next one, and iteration times balloon.  Precise flow
      // scheduling is only applied where the solver proves compatibility;
      // incompatible groups fall back to ungated transport.
      if (!sr.compatible) continue;
      const FlowSchedule fs =
          make_flow_schedule(profiles, sr.rotations, TimePoint::origin());
      for (std::size_t k = 0; k < members.size(); ++k) {
        gates[members[k]] = CommGate::from_schedule(fs, k);
        start_offsets[members[k]] = fs.slots[k].job_start_offset;
      }
    }
  }

  std::vector<std::unique_ptr<TrainingJob>> jobs;
  for (std::size_t j = 0; j < requests.size(); ++j) {
    const Placement& p = result.placement.placements[j];
    if (p.hosts.empty()) continue;
    JobSpec spec = ring_job_spec(topo, run.router, requests[j], p.hosts, j);
    spec.start = TimePoint::origin() + start_offsets[j];
    if (config.unique_priorities) {
      spec.priority = static_cast<int>(j);
      // WFQ-style fallback weighting for policies that use weights.
      spec.weight = 1.0;
    }
    spec.gate = gates[j];
    jobs.push_back(
        std::make_unique<TrainingJob>(run.sim, run.net, std::move(spec)));
  }
  for (auto& job : jobs) job->start();
  run.run_until(TimePoint::origin() + config.run_time);

  for (std::size_t j = 0, placed_idx = 0; j < requests.size(); ++j) {
    JobOutcome out;
    out.name = requests[j].name;
    const Placement& p = result.placement.placements[j];
    out.placed = !p.hosts.empty();
    out.spans_fabric = p.spans_fabric;
    out.solo_ms =
        requests[j].profile.solo_iteration(nic_goodput).to_millis();
    if (out.placed) {
      const auto& iters = jobs[placed_idx++]->iteration_times();
      const Cdf cdf = steady_state_ms(iters);
      out.iterations = iters.size();
      if (!cdf.empty()) {
        out.mean_ms = cdf.mean();
        out.median_ms = cdf.median();
        out.p99_ms = cdf.percentile(99);
        out.slowdown = out.solo_ms > 0 ? out.mean_ms / out.solo_ms : 0.0;
      }
    }
    result.outcomes.push_back(std::move(out));
  }
  return result;
}

}  // namespace ccml
