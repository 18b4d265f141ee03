// Golden FNV-1a hashes pinning the two run harnesses across refactors:
// run_dumbbell_scenario (the §2 dumbbell) and Orchestrator::run (the
// cluster scheduler, under churn and as the static §4/§5 placement
// comparison).  The dumbbell and churn runs exercise every piece of wiring
// their harness owns — engine, trace preamble, faults, gate solves and
// checkpoint sections — and hash the result, the full JSONL trace and every
// section of the last snapshot; their expected values were captured before
// the harnesses shared any code.  The static comparison hashes the summary
// of each of its four admission x flow-schedule runs.  A refactor of the
// run wiring must reproduce them bit for bit.
//
// Two further families pin hot paths whose optimisations must not move a
// single bit: the untraced ideal allocators (max-min, WFQ, strict priority
// and the solver-gated flow schedule), which step without observers and so
// take the fused-burst path, and CompatibilitySolver::solve / solve_multi
// on instances that reach each of the solver's search paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/snapshot.h"
#include "cluster/scenario.h"
#include "core/solver.h"
#include "net/routing.h"
#include "obs/sinks.h"
#include "obs/trace_bus.h"
#include "orch/orchestrator.h"

namespace ccml {
namespace {

class Fnv {
 public:
  Fnv& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
    return *this;
  }
  Fnv& str(const std::string& s) {
    u64(s.size());
    return bytes(s.data(), s.size());
  }
  Fnv& u64(std::uint64_t v) { return bytes(&v, sizeof v); }
  Fnv& f64(double v) { return bytes(&v, sizeof v); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::uint64_t hash_of(const std::string& s) { return Fnv().str(s).value(); }

using Hashes = std::vector<std::pair<std::string, std::uint64_t>>;

/// Compares named hashes, printing the actual table on mismatch so a
/// deliberate change can be re-pinned by pasting it.
void expect_golden(const Hashes& actual, const Hashes& expected) {
  std::string table;
  for (const auto& [name, h] : actual) {
    char line[96];
    std::snprintf(line, sizeof line, "      {\"%s\", 0x%016" PRIx64 "ULL},\n",
                  name.c_str(), h);
    table += line;
  }
  EXPECT_EQ(actual, expected) << "actual hashes:\n" << table;
}

std::string fresh_dir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("ccml_harness_golden_") + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// One hash per section of the newest snapshot in `dir`, in file order.
Hashes snapshot_hashes(const std::string& dir) {
  const Snapshot snap = Snapshot::load(dir + "/latest.ccml");
  Hashes out;
  for (const std::string& name : snap.names()) {
    out.emplace_back("ckpt." + name, hash_of(snap.get(name)));
  }
  return out;
}

JobProfile toy(double compute_ms, double comm_ms) {
  return ModelZoo::synthetic(
      "toy", Duration::from_millis_f(compute_ms),
      Rate::gbps(42.5) * Duration::from_millis_f(comm_ms));
}

// --- run_dumbbell_scenario --------------------------------------------------

TEST(HarnessGolden, DumbbellScenario) {
  const std::string dir = fresh_dir("scenario");
  const std::vector<ScenarioJob> jobs = {{"a", toy(40, 20)},
                                         {"b", toy(40, 20)}};
  std::ostringstream trace_out;
  TraceBus bus;
  JsonlSink sink(trace_out, JsonlSinkOptions{Duration::millis(5)});
  bus.add_sink(sink);
  CheckpointCoordinator ck(CheckpointCoordinator::Options{
      Duration::millis(500), dir, "golden-scenario",
      CheckpointCoordinator::Mode::kRecord, {}, 0});

  ScenarioConfig cfg;
  cfg.duration = Duration::seconds(3);
  cfg.flow_schedule = true;
  cfg.faults.brownout(TimePoint::origin() + Duration::millis(1000),
                      Duration::millis(800), "swL->swR", 0.4);
  cfg.trace = &bus;
  cfg.checkpoint = &ck;
  const ScenarioResult r = run_dumbbell_scenario(jobs, cfg);
  bus.flush();
  ASSERT_GE(ck.snapshots_taken(), 5u);
  ASSERT_TRUE(r.recovery.has_value());

  Fnv result;
  for (const ScenarioJobStats& j : r.jobs) {
    result.str(j.name).u64(j.iterations).f64(j.mean_ms).f64(j.median_ms);
    result.f64(j.p95_ms);
    for (const double ms : j.iteration_ms) result.f64(ms);
  }
  for (const FaultEvent& ev : r.faults_applied) {
    result.u64(static_cast<std::uint64_t>(ev.at.since_origin().ns()));
    result.u64(static_cast<std::uint64_t>(ev.kind)).str(ev.link_name);
  }
  result.str(r.recovery->summary());

  Hashes actual = {{"result", result.value()},
                   {"trace", hash_of(trace_out.str())}};
  for (auto& section : snapshot_hashes(dir)) actual.push_back(section);
  expect_golden(actual, {
      {"result", 0x07358708e4fc7604ULL},
      {"trace", 0xbb220d4efc2d3660ULL},
      {"ckpt.spec", 0x409f408946870836ULL},
      {"ckpt.cursor", 0xfbd30d1c5841e7f6ULL},
      {"ckpt.sim", 0xdd19474e98bb5a09ULL},
      {"ckpt.net", 0x422180b2d2580e8dULL},
      {"ckpt.cc", 0xb2ad9ed2c0ebf0b4ULL},
      {"ckpt.jobs", 0xbd85e598fddc6e2cULL},
      {"ckpt.faults", 0xac574dddb4a0eb1bULL},
  });
}

// --- Orchestrator::run ------------------------------------------------------

TEST(HarnessGolden, Orchestrator) {
  const std::string dir = fresh_dir("orchestrator");
  // 4 ToRs x 3 hosts on a 4:1 fabric; every job spans two racks.
  const Topology topo =
      Topology::leaf_spine(4, 3, 1, Rate::gbps(50), Rate::gbps(37.5));
  ArrivalConfig acfg;
  acfg.seed = 21;
  acfg.rate_per_min = 18.0;
  acfg.horizon = Duration::seconds(20);
  acfg.min_workers = 4;
  acfg.max_workers = 4;
  acfg.profile_rate = Rate::gbps(31.875);
  acfg.catalog = {{"VGG19", 1200}, {"VGG19", 1200}, {"BERT", 16}};

  std::ostringstream trace_out;
  TraceBus bus;
  JsonlSink sink(trace_out, JsonlSinkOptions{Duration::millis(50)});
  bus.add_sink(sink);
  CheckpointCoordinator ck(CheckpointCoordinator::Options{
      Duration::seconds(4), dir, "golden-cluster",
      CheckpointCoordinator::Mode::kRecord, {}, 0});

  OrchestratorConfig cfg;
  cfg.horizon = acfg.horizon;
  cfg.circle = OrchestratorConfig::CircleMode::kGraph;
  cfg.faults.flap(TimePoint::origin() + Duration::seconds(8),
                  Duration::seconds(1), "tor0->spine0");
  cfg.trace = &bus;
  cfg.checkpoint = &ck;
  const ClusterRunReport r =
      Orchestrator(topo, generate_arrivals(acfg), cfg).run();
  bus.flush();
  ASSERT_GE(ck.snapshots_taken(), 4u);
  ASSERT_EQ(r.faults_applied, 2u);

  Hashes actual = {{"summary", hash_of(r.summary())},
                   {"trace", hash_of(trace_out.str())}};
  for (auto& section : snapshot_hashes(dir)) actual.push_back(section);
  expect_golden(actual, {
      {"summary", 0x748b5e34b38c9b0fULL},
      {"trace", 0xa9b35c3aa5ca70d2ULL},
      {"ckpt.spec", 0x303b24c975e2179bULL},
      {"ckpt.cursor", 0x55d5d8e0c505f2a9ULL},
      {"ckpt.sim", 0xbe1e80458dcc0fe8ULL},
      {"ckpt.net", 0xf0e9dc1bb5c57cf8ULL},
      {"ckpt.cc", 0xbab665ed15c43194ULL},
      {"ckpt.orch", 0xd7330232977531b4ULL},
      {"ckpt.igraph", 0x1de3ef44f55bccf1ULL},
      {"ckpt.faults", 0x37541c3519709dc1ULL},
  });
}

// --- Orchestrator: static §4/§5 placement comparison ----------------------

JobArrival static_job(const char* name, int workers, std::int64_t period_ms,
                      std::int64_t compute_ms) {
  JobArrival a;
  a.at = TimePoint::origin();
  a.service = Duration::seconds(6);  // past the horizon: never departs
  a.request.name = name;
  a.request.workers = workers;
  a.request.profile = ModelZoo::synthetic(
      name, Duration::millis(compute_ms),
      Rate::gbps(42.5) * Duration::millis(period_ms - compute_ms));
  a.request.comm_profile = CommProfile::single_phase(
      name, Duration::millis(period_ms), Duration::millis(compute_ms),
      Rate::gbps(42.5));
  return a;
}

TEST(HarnessGolden, OrchestratorS5StaticPlacement) {
  // bench/s5_cluster_placement's cluster and workload, 3 s per run: the
  // four admission x flow-schedule runs, each hashed from its summary (what
  // the bench prints) and its JSONL trace (which pins the placements: every
  // flow's route).
  const Topology topo =
      Topology::leaf_spine(5, 3, 1, Rate::gbps(50), Rate::gbps(50));
  ArrivalSchedule schedule;
  schedule.jobs = {static_job("heavy", 4, 90, 36),
                   static_job("lightB", 4, 100, 70),
                   static_job("lightC", 4, 100, 70),
                   static_job("local1", 2, 120, 90)};
  Hashes actual;
  const auto run = [&](const std::string& name, AdmissionPolicyKind admission,
                       bool flow_schedule) {
    std::ostringstream trace_out;
    TraceBus bus;
    JsonlSink sink(trace_out, JsonlSinkOptions{Duration::millis(50)});
    bus.add_sink(sink);
    OrchestratorConfig cfg;
    cfg.policy = PolicyKind::kMaxMinFair;
    cfg.admission.policy = admission;
    cfg.flow_schedule = flow_schedule;
    cfg.horizon = Duration::seconds(3);
    cfg.trace = &bus;
    const std::string summary =
        Orchestrator(topo, schedule, cfg).run().summary();
    bus.flush();
    actual.emplace_back(name + ".summary", hash_of(summary));
    actual.emplace_back(name + ".trace", hash_of(trace_out.str()));
  };
  run("a", AdmissionPolicyKind::kLocalityOnly, false);
  run("b", AdmissionPolicyKind::kLocalityOnly, true);
  run("c", AdmissionPolicyKind::kCompatibilityAware, false);
  run("d", AdmissionPolicyKind::kCompatibilityAware, true);
  expect_golden(actual, {
      {"a.summary", 0x981054f8d5245f85ULL},
      {"a.trace", 0x85c0a218b64b89aeULL},
      {"b.summary", 0x58675da918f8d526ULL},
      {"b.trace", 0x76526fea0a44c2dfULL},
      {"c.summary", 0x727aa1b077aaf5deULL},
      {"c.trace", 0x4fc1982b74b7dfe3ULL},
      {"d.summary", 0xf0662730f7dd69abULL},
      {"d.trace", 0x5aa93280244ccee8ULL},
  });
}

// --- Ideal allocators, untraced (fused stepping) ---------------------------

using Group = std::vector<std::pair<const char*, int>>;

/// A Table-1 group on the dumbbell for 5 s with no trace bus or observer
/// attached, through a brownout and a flap of the bottleneck (the flap parks
/// every flow until it heals).  Job i starts 37*i ms in, with WFQ weight
/// n - i and priority i.
std::uint64_t ideal_run_hash(const Group& members, PolicyKind policy,
                             bool flow_schedule) {
  std::vector<ScenarioJob> jobs;
  for (std::size_t i = 0; i < members.size(); ++i) {
    ScenarioJob job;
    job.name = members[i].first;
    job.profile = *ModelZoo::calibrated(members[i].first, members[i].second);
    job.start_offset = Duration::micros(37'000 * static_cast<std::int64_t>(i));
    job.weight = static_cast<double>(members.size() - i);
    job.priority = static_cast<int>(i);
    jobs.push_back(std::move(job));
  }
  ScenarioConfig cfg;
  cfg.policy = policy;
  cfg.duration = Duration::seconds(5);
  cfg.warmup_iterations = 2;
  cfg.flow_schedule = flow_schedule;
  cfg.faults.brownout(TimePoint::origin() + Duration::millis(1200),
                      Duration::millis(700), "swL->swR", 0.4);
  cfg.faults.flap(TimePoint::origin() + Duration::millis(3100),
                  Duration::millis(300), "swL->swR");
  const ScenarioResult r = run_dumbbell_scenario(jobs, cfg);

  Fnv h;
  for (const ScenarioJobStats& j : r.jobs) {
    h.str(j.name).u64(j.iterations).f64(j.mean_ms).f64(j.median_ms);
    h.f64(j.p95_ms);
    for (const double ms : j.iteration_ms) h.f64(ms);
  }
  for (const FaultEvent& ev : r.faults_applied) {
    h.u64(static_cast<std::uint64_t>(ev.at.since_origin().ns()));
    h.u64(static_cast<std::uint64_t>(ev.kind)).str(ev.link_name);
  }
  if (r.recovery) h.str(r.recovery->summary());
  return h.value();
}

TEST(HarnessGolden, IdealAllocatorsUntraced) {
  // Table-1 group 3.  The solver refutes this group, so its flow schedule
  // would leave every job ungated; the gated case runs group 2 (DLRM x2),
  // which the solver interleaves, re-solving the gates after each fault.
  const Group group3 = {{"BERT", 8}, {"VGG19", 1400}, {"WideResNet", 800}};
  const Group group2 = {{"DLRM", 2000}, {"DLRM", 2000}};
  const Hashes actual = {
      {"maxmin", ideal_run_hash(group3, PolicyKind::kMaxMinFair, false)},
      {"wfq", ideal_run_hash(group3, PolicyKind::kWfq, false)},
      {"priority", ideal_run_hash(group3, PolicyKind::kPriority, false)},
      {"maxmin_gated", ideal_run_hash(group2, PolicyKind::kMaxMinFair, true)},
  };
  expect_golden(actual, {
      {"maxmin", 0x7ef3eac2ce91b84bULL},
      {"wfq", 0x2958c34183589e78ULL},
      {"priority", 0x189999be38d40107ULL},
      {"maxmin_gated", 0x94d12ded8fe9ae29ULL},
  });
}

// --- CompatibilitySolver ----------------------------------------------------

CommProfile phase_job(const char* name, std::int64_t period_ms,
                      std::int64_t compute_ms, double demand_gbps = 42.5) {
  return CommProfile::single_phase(name, Duration::millis(period_ms),
                                   Duration::millis(compute_ms),
                                   Rate::gbps(demand_gbps));
}

/// A job with three communication arcs per iteration, the last one ending
/// exactly at the period.
CommProfile multi_arc_job(const char* name, std::int64_t period_ms) {
  CommProfile p;
  p.name = name;
  p.period = Duration::millis(period_ms);
  p.arcs = {Arc{Duration::millis(3), Duration::millis(7)},
            Arc{Duration::millis(period_ms / 2), Duration::millis(5)},
            Arc{Duration::millis(period_ms - 4), Duration::millis(4)}};
  p.demand = Rate::gbps(20);
  return p;
}

std::uint64_t solver_hash(const SolverResult& r) {
  Fnv h;
  h.u64(r.rotations.size());
  for (const Duration rot : r.rotations) {
    h.u64(static_cast<std::uint64_t>(rot.ns()));
  }
  h.f64(r.violation_fraction).f64(r.overlap_fraction).u64(r.nodes_explored);
  h.u64(r.compatible).u64(r.proven).u64(r.circle_exact);
  return h.value();
}

TEST(SolverGolden, SearchPaths) {
  Hashes actual;
  const auto solve = [&](const char* name, const SolverOptions& opts,
                         const std::vector<CommProfile>& jobs) {
    const SolverResult r = CompatibilitySolver(opts).solve(jobs);
    actual.emplace_back(name, solver_hash(r));
  };
  const SolverOptions defaults;

  // Exact DFS: compatible (with slack spreading), mismatched periods, a
  // multi-arc group, and a proven-infeasible group that falls to annealing.
  solve("dfs_pair", defaults,
        {phase_job("a", 100, 60), phase_job("b", 100, 60)});
  solve("dfs_fig5", defaults,
        {phase_job("J1", 40, 34), phase_job("J2", 60, 50)});
  solve("dfs_triple", defaults,
        {phase_job("vgg19", 330, 270), phase_job("vgg16", 330, 270),
         phase_job("resnet", 165, 163)});
  solve("dfs_multi_arc", defaults,
        {multi_arc_job("m1", 60), multi_arc_job("m2", 90),
         phase_job("p", 45, 40)});
  {
    SolverOptions o;
    o.anneal_iterations = 3000;
    solve("dfs_refuted_anneal", o,
          {phase_job("a", 40, 30), phase_job("b", 60, 45)});
  }

  // Sector DFS: count mode with cap 2, and bandwidth mode.
  {
    SolverOptions o;
    o.max_concurrent = 2;
    o.anneal_iterations = 3000;
    solve("sector_cap2", o,
          {phase_job("a", 100, 40), phase_job("b", 100, 50),
           phase_job("c", 50, 30)});
    solve("refuted_cap2", o,
          {phase_job("a", 100, 20), phase_job("b", 100, 30),
           phase_job("c", 100, 35)});
  }
  {
    SolverOptions o;
    o.mode = SolverOptions::Mode::kBandwidth;
    o.link_capacity = Rate::gbps(50);
    o.anneal_iterations = 3000;
    solve("bandwidth_fit", o,
          {phase_job("a", 100, 30, 20.0), phase_job("b", 100, 30, 20.0),
           phase_job("c", 50, 35, 25.0)});
    solve("bandwidth_over", o,
          {phase_job("a", 100, 30, 30.0), phase_job("b", 100, 30, 30.0)});
    solve("bandwidth_multi_arc", o,
          {multi_arc_job("m1", 60), multi_arc_job("m2", 90),
           phase_job("p", 45, 30, 35.0)});
  }

  // Annealing fallback: after an exhausted DFS budget, and after the
  // necessary condition refutes a group on a clamped circle.
  {
    SolverOptions o;
    o.search_budget = 5;
    o.anneal_iterations = 2000;
    solve("anneal_budget", o,
          {phase_job("a", 100, 70), phase_job("b", 60, 40),
           phase_job("c", 75, 50)});
    o.search_budget = 50;
    solve("anneal_trio", o,
          {phase_job("a", 97, 40), phase_job("b", 89, 35),
           phase_job("c", 83, 30)});
  }

  // Warm starts: a violation-free witness, and a violated seed for the
  // annealing walk.
  {
    SolverOptions o;
    o.warm_start = {Duration::zero(), Duration::millis(50)};
    solve("warm_hit", o, {phase_job("a", 100, 60), phase_job("b", 100, 60)});
    SolverOptions v;
    v.warm_start = {Duration::millis(5), Duration::millis(11),
                    Duration::millis(17)};
    v.search_budget = 50;
    v.anneal_iterations = 2000;
    solve("warm_anneal", v,
          {phase_job("a", 97, 40), phase_job("b", 89, 35),
           phase_job("c", 83, 30)});
  }

  // GPU multi-tenancy groups.
  {
    SolverOptions o;
    o.gpu_groups = {0, 0};
    solve("gpu_exact_fit", o,
          {phase_job("a", 100, 60), phase_job("b", 100, 40)});
    SolverOptions over;
    over.gpu_groups = {0, 0, -1};
    over.anneal_iterations = 2000;
    solve("gpu_overloaded", over,
          {phase_job("a", 100, 70), phase_job("b", 100, 70),
           phase_job("c", 50, 45)});
  }

  // A clamped circle: the periods' LCM exceeds the perimeter cap, so the
  // last replica of each job wraps onto its first.
  {
    SolverOptions o;
    o.circle.perimeter_cap = Duration::millis(1000);
    o.anneal_iterations = 2000;
    solve("clamped", o,
          {phase_job("a", 97, 80), phase_job("b", 89, 70),
           phase_job("c", 83, 60)});
  }

  // solve_multi: jobs placed on a 4x3 leaf-spine (one spine), each job's
  // links the union of its ring's routes.
  {
    const Topology topo =
        Topology::leaf_spine(4, 3, 1, Rate::gbps(50), Rate::gbps(37.5));
    const Router router(topo);
    const std::vector<NodeId> hosts = topo.hosts();
    const std::vector<std::vector<std::size_t>> placements = {
        {0, 3, 6}, {1, 4}, {7, 10}, {2, 9, 11}, {5, 8}};
    std::vector<CommProfile> profiles = {
        phase_job("r0", 100, 70), phase_job("r1", 100, 80),
        phase_job("r2", 80, 60), phase_job("r3", 120, 90),
        multi_arc_job("r4", 60)};
    std::vector<std::vector<std::int32_t>> links;
    for (const auto& ring : placements) {
      std::vector<std::int32_t> ls;
      for (std::size_t k = 0; k < ring.size(); ++k) {
        const Route route = router.pick(hosts[ring[k]],
                                        hosts[ring[(k + 1) % ring.size()]], 0);
        for (const LinkId l : route.links) ls.push_back(l.value);
      }
      std::sort(ls.begin(), ls.end());
      ls.erase(std::unique(ls.begin(), ls.end()), ls.end());
      links.push_back(std::move(ls));
    }
    SolverOptions o;
    o.anneal_iterations = 2000;
    actual.emplace_back(
        "multi_leaf_spine",
        solver_hash(CompatibilitySolver(o).solve_multi(profiles, links)));
  }

  expect_golden(actual, {
      {"dfs_pair", 0x1c8da81f3a4e9206ULL},
      {"dfs_fig5", 0xe5720b5e46bd72c7ULL},
      {"dfs_triple", 0xecaedd4926f8c716ULL},
      {"dfs_multi_arc", 0x9808e4d626bbc05aULL},
      {"dfs_refuted_anneal", 0xc49725943d6b42e6ULL},
      {"sector_cap2", 0x7bc817030e829218ULL},
      {"refuted_cap2", 0x8e4972593cffe65bULL},
      {"bandwidth_fit", 0xd26e3b2c39e9e9ffULL},
      {"bandwidth_over", 0xa06635df4e3e0798ULL},
      {"bandwidth_multi_arc", 0x4eca502e036d7a2dULL},
      {"anneal_budget", 0xfa863c8bec8cce27ULL},
      {"anneal_trio", 0xd51a0ae5e870086cULL},
      {"warm_hit", 0x9caa5b8162171850ULL},
      {"warm_anneal", 0x9e6dd67fe5d3be0dULL},
      {"gpu_exact_fit", 0xa0ae18538449e4d2ULL},
      {"gpu_overloaded", 0x46963e5168dce3fdULL},
      {"clamped", 0x10a2051f76f92306ULL},
      {"multi_leaf_spine", 0xc9526a4f34486a63ULL},
  });
}

}  // namespace
}  // namespace ccml
