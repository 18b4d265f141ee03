// Golden FNV-1a hashes pinning the three run harnesses across refactors:
// run_dumbbell_scenario (the §2 dumbbell), Orchestrator::run (the online
// cluster scheduler) and run_cluster_experiment (the static §4/§5 placement
// comparison).  Each run exercises every piece of wiring its harness owns —
// engine, trace preamble, faults, gate solves and checkpoint sections — and
// hashes the result, the full JSONL trace and every section of the last
// snapshot.  The expected values were captured before the harnesses shared
// any code; a refactor of the run wiring must reproduce them bit for bit.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/snapshot.h"
#include "cluster/experiment.h"
#include "cluster/scenario.h"
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

// --- run_cluster_experiment -------------------------------------------------

JobRequest request(const char* name, int workers, std::int64_t period_ms,
                   std::int64_t compute_ms) {
  JobRequest r;
  r.name = name;
  r.workers = workers;
  r.profile = ModelZoo::synthetic(
      name, Duration::millis(compute_ms),
      Rate::gbps(42.5) * Duration::millis(period_ms - compute_ms));
  r.comm_profile = CommProfile::single_phase(name, Duration::millis(period_ms),
                                             Duration::millis(compute_ms),
                                             Rate::gbps(42.5));
  return r;
}

std::uint64_t experiment_hash(const ExperimentResult& r) {
  Fnv h;
  for (const JobOutcome& o : r.outcomes) {
    h.str(o.name).u64(o.iterations).f64(o.mean_ms).f64(o.median_ms);
    h.f64(o.p99_ms).f64(o.solo_ms).f64(o.slowdown);
    h.u64(o.placed).u64(o.spans_fabric);
  }
  for (const auto& sl : r.placement.shared_links) {
    h.u64(static_cast<std::uint64_t>(sl.link.value)).u64(sl.compatible);
    for (const std::size_t j : sl.jobs) h.u64(j);
  }
  return h.f64(r.mean_slowdown()).f64(r.max_slowdown()).value();
}

TEST(HarnessGolden, ClusterExperimentS5Configurations) {
  // bench/s5_cluster_placement's cluster and workload, 3 s per run.
  const Topology topo =
      Topology::leaf_spine(5, 3, 1, Rate::gbps(50), Rate::gbps(50));
  const std::vector<JobRequest> workload = {
      request("heavy", 4, 90, 36), request("lightB", 4, 100, 70),
      request("lightC", 4, 100, 70), request("local1", 2, 120, 90)};
  ExperimentConfig cfg;
  cfg.policy = PolicyKind::kMaxMinFair;
  cfg.run_time = Duration::seconds(3);
  ExperimentConfig sched = cfg;
  sched.flow_schedule = true;

  Hashes actual;
  {
    LocalityPlacement p;
    actual.emplace_back("a", experiment_hash(
                                 run_cluster_experiment(topo, workload, p, cfg)));
  }
  {
    LocalityPlacement p;
    actual.emplace_back(
        "b", experiment_hash(run_cluster_experiment(topo, workload, p, sched)));
  }
  {
    CompatibilityAwarePlacement p;
    actual.emplace_back("c", experiment_hash(
                                 run_cluster_experiment(topo, workload, p, cfg)));
  }
  {
    CompatibilityAwarePlacement p;
    actual.emplace_back(
        "d", experiment_hash(run_cluster_experiment(topo, workload, p, sched)));
  }
  expect_golden(actual, {
      {"a", 0xcebbf2f4c87069b3ULL},
      {"b", 0xcebbf2f4c87069b3ULL},
      {"c", 0x05b38690a67ad08dULL},
      {"d", 0xf3e27005fdb3bb22ULL},
  });
}

}  // namespace
}  // namespace ccml
