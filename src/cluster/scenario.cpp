#include "cluster/scenario.h"

#include <memory>
#include <stdexcept>

#include "ckpt/snapshot.h"
#include "cluster/run_assembly.h"
#include "core/schedule.h"
#include "faults/injector.h"
#include "workload/profiler.h"

namespace ccml {

Aggressiveness aggressive_knobs() {
  return {Duration::micros(55), Rate::mbps(80)};
}

Aggressiveness meek_knobs() { return {Duration::micros(300), Rate::mbps(40)}; }

Aggressiveness ranked_knobs(int rank) {
  switch (rank) {
    case 0: return {Duration::micros(55), Rate::mbps(80)};
    case 1: return {Duration::micros(150), Rate::mbps(55)};
    default: return {Duration::micros(300), Rate::mbps(40)};
  }
}

Rate scenario_goodput(const ScenarioConfig& config) {
  return config.nic * config.goodput_factor;
}

void validate_scenario(const std::vector<ScenarioJob>& jobs,
                       const ScenarioConfig& config) {
  if (jobs.empty()) {
    throw std::invalid_argument("scenario: needs at least one job");
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ScenarioJob& j = jobs[i];
    if (j.name.empty()) {
      throw std::invalid_argument("scenario: job " + std::to_string(i) +
                                  " has an empty name");
    }
    if (j.weight <= 0.0) {
      throw std::invalid_argument("scenario: job '" + j.name +
                                  "' weight must be positive");
    }
    if (j.start_offset.is_negative()) {
      throw std::invalid_argument("scenario: job '" + j.name +
                                  "' start offset must be non-negative");
    }
    if (j.compute_jitter.is_negative()) {
      throw std::invalid_argument("scenario: job '" + j.name +
                                  "' compute jitter must be non-negative");
    }
    if (j.gate && !j.gate->period.is_positive()) {
      throw std::invalid_argument("scenario: job '" + j.name +
                                  "' gate period must be positive");
    }
  }
  if (!config.duration.is_positive()) {
    throw std::invalid_argument("scenario: duration must be positive");
  }
  if (!config.nic.is_positive()) {
    throw std::invalid_argument("scenario: NIC rate must be positive");
  }
  if (!config.bottleneck.is_positive()) {
    throw std::invalid_argument("scenario: bottleneck rate must be positive");
  }
  if (config.goodput_factor <= 0.0 || config.goodput_factor > 1.0) {
    throw std::invalid_argument("scenario: goodput factor must be in (0,1]");
  }
}

std::size_t ScenarioJobStats::converged_after(double target_ms,
                                              double tolerance) const {
  std::size_t first = iteration_ms.size();
  for (std::size_t i = iteration_ms.size(); i-- > 0;) {
    if (std::abs(iteration_ms[i] - target_ms) <= target_ms * tolerance) {
      first = i;
    } else {
      break;
    }
  }
  return first;
}

ScenarioResult run_dumbbell_scenario(const std::vector<ScenarioJob>& setups,
                                     const ScenarioConfig& config) {
  validate_scenario(setups, config);

  const Topology topo = Topology::dumbbell(static_cast<int>(setups.size()),
                                           config.nic, config.bottleneck);
  NetworkConfig ncfg;
  ncfg.goodput_factor = config.goodput_factor;
  RunAssembly run(topo, config.policy, config.transports, ncfg, config.trace);
  Simulator& sim = run.sim;
  Network& net = run.net;
  const Rate goodput = scenario_goodput(config);
  std::vector<std::pair<std::string, Duration>> solo;
  for (const ScenarioJob& s : setups) {
    solo.emplace_back(s.name, s.profile.solo_iteration(goodput));
  }
  run.trace_jobs(solo);
  if (config.instrument) config.instrument(net);
  const auto hosts = topo.hosts();

  std::vector<std::unique_ptr<TrainingJob>> jobs;
  for (std::size_t i = 0; i < setups.size(); ++i) {
    JobSpec spec;
    spec.id = JobId{static_cast<std::int32_t>(i)};
    spec.name = setups[i].name;
    spec.profile = setups[i].profile;
    spec.paths = {JobPath{hosts[2 * i], hosts[2 * i + 1],
                          run.router.pick(hosts[2 * i], hosts[2 * i + 1], 0)}};
    spec.cc_timer = setups[i].cc_timer;
    spec.cc_rai = setups[i].cc_rai;
    spec.priority = setups[i].priority;
    spec.weight = setups[i].weight;
    spec.gate = setups[i].gate;
    spec.compute_jitter = setups[i].compute_jitter;
    spec.jitter_seed = jitter_seed(i);
    spec.start = TimePoint::origin() + setups[i].start_offset;
    jobs.push_back(std::make_unique<TrainingJob>(sim, net, std::move(spec)));
  }

  // Mid-run gate re-solve: when a fault perturbs a *gated* scenario, the old
  // time-shifts are stale (severed links stall phases; a changed job set has
  // a different unified circle).  Drop gates while a link is down and
  // re-solve a fresh schedule, epoch'd at the current instant, on every
  // restoration or job-set change.
  std::vector<bool> departed(setups.size(), false);
  bool any_gated = config.flow_schedule;
  for (const ScenarioJob& s : setups) any_gated |= s.gate.has_value();
  const auto resolve_gates = [&] {
    std::vector<std::size_t> members;
    std::vector<CommProfile> profiles;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (departed[i]) continue;
      members.push_back(i);
      profiles.push_back(analytic_profile(setups[i].profile, goodput));
    }
    const auto clear_all = [&] {
      for (const std::size_t i : members) jobs[i]->set_gate(std::nullopt);
    };
    if (members.size() < 2) {
      clear_all();
      return;
    }
    const SolverResult sr = CompatibilitySolver(config.solver).solve(profiles);
    run.trace_solve(sr.compatible, sr.violation_fraction, "solver.solves");
    if (!sr.compatible) {
      clear_all();
      return;
    }
    const FlowSchedule fs =
        make_flow_schedule(profiles, sr.rotations, sim.now());
    for (std::size_t k = 0; k < members.size(); ++k) {
      jobs[members[k]]->set_gate(CommGate::from_schedule(fs, k));
    }
  };

  // --- Fault injection -----------------------------------------------------
  const bool faulty = !config.faults.empty();
  if (faulty) {
    FaultInjector& injector = run.inject(config.faults);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      injector.bind_job(jobs[i]->id(), *jobs[i]);
    }
    injector.on_topology_change = [&](const FaultEvent& ev) {
      if (!any_gated) return;
      if (ev.factor <= 0.0) {
        // Outage: a schedule solved for the healthy topology only hurts now.
        for (std::size_t i = 0; i < jobs.size(); ++i) {
          if (!departed[i]) jobs[i]->set_gate(std::nullopt);
        }
      } else {
        resolve_gates();
      }
    };
    injector.on_jobset_change = [&](const FaultEvent& ev) {
      if (ev.kind == FaultKind::kJobDepart) {
        departed[static_cast<std::size_t>(ev.job.value)] = true;
      }
      if (!any_gated) return;
      if (ev.kind == FaultKind::kJobDepart ||
          ev.kind == FaultKind::kJobArrive) {
        resolve_gates();
      }
    };
  }

  // --- Watchdog ------------------------------------------------------------
  WatchdogConfig wd = config.watchdog;
  if (faulty) {
    if (wd.max_events == 0) wd.max_events = 20'000'000;
    if (wd.max_sim_time.is_zero()) wd.max_sim_time = config.duration * 4;
  }
  run.arm_watchdog(wd);

  // CASSINI-style start-of-run flow schedule: solve once for the full job
  // set and gate everyone before the first iteration.
  if (config.flow_schedule) resolve_gates();
  for (auto& j : jobs) j->start();
  if (faulty) run.injector()->arm();

  // --- Checkpointing -------------------------------------------------------
  // Installed at a fixed point (after arming, before the run) so record and
  // replay schedule the first tick from identical event-queue states.  The
  // provider lambdas capture run-local state by reference; the coordinator
  // must not tick after this function returns.
  if (config.checkpoint != nullptr) {
    const auto capture_jobs = [&jobs] {
      StateBuf b;
      b.put_u64(jobs.size());
      for (const auto& j : jobs) b.put_bytes(j->serialize_state());
      return b.take();
    };
    run.install_checkpoint(*config.checkpoint, {{"jobs", capture_jobs}},
                           [&sim, &net, &config] {
                             if (config.on_cursor) config.on_cursor(sim, net);
                           });
  }

  run.run_until(TimePoint::origin() + config.duration);

  ScenarioResult result;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ScenarioJobStats stats;
    stats.name = setups[i].name;
    const auto& iters = jobs[i]->iteration_times();
    stats.iterations = iters.size();
    stats.iteration_ms.reserve(iters.size());
    for (const Duration d : iters) stats.iteration_ms.push_back(d.to_millis());
    for (std::size_t k = config.warmup_iterations; k < iters.size(); ++k) {
      stats.cdf.add(iters[k].to_millis());
    }
    if (!stats.cdf.empty()) {
      stats.mean_ms = stats.cdf.mean();
      stats.median_ms = stats.cdf.median();
      stats.p95_ms = stats.cdf.percentile(95);
    }
    result.jobs.push_back(std::move(stats));
  }
  if (faulty) {
    result.faults_applied = run.injector()->applied();
    std::vector<JobTrace> traces;
    traces.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      JobTrace t;
      t.name = setups[i].name;
      t.starts = jobs[i]->iteration_starts();
      t.durations = jobs[i]->iteration_times();
      t.comm_mb_per_iter = setups[i].profile.total_comm_bytes().count() / 1e6;
      t.departed = departed[i];
      t.warmup = config.warmup_iterations;
      traces.push_back(std::move(t));
    }
    result.recovery = compute_recovery(config.faults, traces);
  }
  return result;
}

}  // namespace ccml
