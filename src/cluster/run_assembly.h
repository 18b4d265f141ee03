// The run wiring the simulation harnesses share.
//
// run_dumbbell_scenario (the §2 dumbbell) and Orchestrator::run (the
// cluster scheduler, static §4/§5 placement comparisons included) each
// build one RunAssembly and add only what is theirs: jobs, gate solves,
// admission.  The assembly owns the decisions they used to make separately
// — the engine, the trace preamble, the kSolve event, the fault injector
// and its watchdog diagnosis, and the engine's checkpoint sections — so
// each format has one home.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cc/factory.h"
#include "cluster/placement.h"
#include "faults/fault_plan.h"
#include "net/network.h"
#include "net/routing.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "workload/job.h"

namespace ccml {

class CheckpointCoordinator;
class FaultInjector;
class TraceBus;
class TraceThroughputSampler;

class RunAssembly {
 public:
  /// Builds the network under `policy` and attaches it to the simulator.
  /// With a bus, binds it to the network, attaching a throughput sampler
  /// when a sink asks for sampled series.  `topo` must outlive the run.
  RunAssembly(const Topology& topo, PolicyKind policy,
              const TransportConfig& transports, const NetworkConfig& config,
              TraceBus* trace);
  ~RunAssembly();
  RunAssembly(const RunAssembly&) = delete;
  RunAssembly& operator=(const RunAssembly&) = delete;

  Simulator sim;
  Network net;
  const Router router;

  /// Trace preamble: registers job j's display name as JobId j and
  /// publishes its dedicated-network iteration time as a kSoloBaseline
  /// event, so the trace alone carries the slowdown-vs-dedicated baseline.
  /// `jobs` holds (name, solo iteration) in JobId order.  No-op untraced.
  void trace_jobs(const std::vector<std::pair<std::string, Duration>>& jobs);

  /// Publishes one gate solve as a kSolve event (value = compatible,
  /// value2 = violation) and bumps `counter`.  No-op untraced.
  void trace_solve(bool compatible, double violation, const char* counter,
                   const char* detail = nullptr);

  /// Effective goodput of the first host's NIC: the solo-baseline rate.
  Rate host_goodput() const;

  /// Creates the fault injector for `plan`; the harness binds jobs, sets
  /// its hooks and arms it.  Call at most once.
  FaultInjector& inject(FaultPlan plan);
  FaultInjector* injector() const { return injector_.get(); }

  /// Arms the wedge guard with a diagnosis naming the fault state and the
  /// active and parked flows.  A config with both limits zero is a no-op.
  void arm_watchdog(WatchdogConfig config);

  /// A named checkpoint section and its capture function.
  using Section = std::pair<std::string, std::function<std::string()>>;

  /// Registers the checkpoint sections — "sim", "net", "cc", then the
  /// harness's own, then "faults" — and installs the periodic ticks.  Call
  /// at a fixed point after the run is wired, so record and replay tick
  /// from identical event-queue states.  `on_cursor` fires at a replayed
  /// run's snapshot cursor.
  void install_checkpoint(CheckpointCoordinator& ck,
                          std::vector<Section> harness_sections,
                          std::function<void()> on_cursor);

  /// Runs the simulation to `end` and flushes trailing observer samples.
  void run_until(TimePoint end);

 private:
  TraceBus* trace_;
  std::unique_ptr<TraceThroughputSampler> sampler_;
  std::unique_ptr<FaultInjector> injector_;
};

/// Per-job seed for compute jitter: decorrelated across jobs, reproducible
/// across runs (and across policies replaying one schedule).
inline std::uint64_t jitter_seed(std::size_t job) {
  return 0x9E37u * (job + 1);
}

/// A placed ring-allreduce job: one path per worker to the next, each
/// carrying the full per-worker wire bytes.  A single-worker job has no
/// network phase and is given zero communication bytes.
JobSpec ring_job_spec(const Router& router, const JobRequest& request,
                      const std::vector<NodeId>& hosts, std::size_t job);

/// Steady-state iteration times in ms: drops the first min(n/5, 10)
/// iterations, while phase sliding converges.
Cdf steady_state_ms(const std::vector<Duration>& iterations);

}  // namespace ccml
