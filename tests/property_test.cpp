// Property-based and parameterized sweeps over the library's invariants:
//  * solver soundness — a "compatible" verdict always comes with rotations
//    whose exact (continuous) overlap is zero;
//  * solver agreement with brute force on small instances;
//  * water-fill feasibility/Pareto properties on random topologies;
//  * conservation in the fluid network: delivered bytes equal flow sizes;
//  * compatibility threshold sweep: two equal jobs are compatible iff their
//    comm fraction is <= 1/2;
//  * the unified circle's cached, shifted job arcs and its merged boundary
//    sweep agree bit for bit with arc-by-arc insertion and a sorted sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "cc/max_min_fair.h"
#include "cc/water_fill.h"
#include "cluster/scenario.h"
#include "core/solver.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/math.h"
#include "util/rng.h"
#include "workload/profiler.h"

namespace ccml {
namespace {

CommProfile job(std::string name, Duration period, Duration compute,
                double demand_gbps = 42.5) {
  return CommProfile::single_phase(std::move(name), period, compute,
                                   Rate::gbps(demand_gbps));
}

// ---------------------------------------------------------------------------
// Solver soundness on random instances.

class SolverSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverSoundness, CompatibleVerdictsHaveZeroOverlap) {
  Rng rng(GetParam());
  const int n = static_cast<int>(rng.uniform_int(2, 4));
  std::vector<CommProfile> jobs;
  // Friendly periods keep the LCM small so the test stays fast.
  const std::int64_t periods[] = {40, 60, 80, 120, 240};
  for (int j = 0; j < n; ++j) {
    const std::int64_t p = periods[rng.uniform_int(0, 4)];
    const std::int64_t comm = rng.uniform_int(1, p / 2);
    jobs.push_back(job(std::string("j").append(std::to_string(j)),
                       Duration::millis(p), Duration::millis(p - comm)));
  }
  SolverOptions opts;
  opts.anneal_iterations = 2000;
  const SolverResult r = CompatibilitySolver(opts).solve(jobs);
  ASSERT_EQ(r.rotations.size(), jobs.size());
  const UnifiedCircle circle(jobs);
  if (r.compatible) {
    EXPECT_NEAR(circle.overlap_fraction(r.rotations), 0.0, 1e-12);
    EXPECT_LE(circle.max_concurrency(r.rotations), 1);
    EXPECT_DOUBLE_EQ(r.violation_fraction, 0.0);
  } else {
    // The reported violation must match the rotations it returned.
    EXPECT_GT(r.violation_fraction, 0.0);
  }
  // Rotations always normalized into each job's own period.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_GE(r.rotations[j], Duration::zero());
    EXPECT_LT(r.rotations[j], jobs[j].period);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SolverSoundness,
                         ::testing::Range<std::uint64_t>(1, 26));

// ---------------------------------------------------------------------------
// Solver vs brute force on 2-job same-period instances.

class SolverVsBruteForce
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SolverVsBruteForce, AgreesWithExhaustiveRotation) {
  const auto [comm1, comm2] = GetParam();
  const Duration period = Duration::millis(100);
  const std::vector<CommProfile> jobs = {
      job("a", period, Duration::millis(100 - comm1)),
      job("b", period, Duration::millis(100 - comm2))};
  const SolverResult r = CompatibilitySolver().solve(jobs);
  // Brute force: same-period single-arc jobs are compatible iff
  // comm1 + comm2 <= period.
  const bool expected = comm1 + comm2 <= 100;
  EXPECT_EQ(r.compatible, expected)
      << "comm1=" << comm1 << " comm2=" << comm2;
}

INSTANTIATE_TEST_SUITE_P(
    CommSweep, SolverVsBruteForce,
    ::testing::Values(std::make_tuple(10, 10), std::make_tuple(30, 30),
                      std::make_tuple(50, 50), std::make_tuple(60, 50),
                      std::make_tuple(70, 20), std::make_tuple(80, 30),
                      std::make_tuple(90, 15), std::make_tuple(99, 1),
                      std::make_tuple(45, 55), std::make_tuple(20, 85)));

// ---------------------------------------------------------------------------
// Water-fill invariants on random leaf-spine instances.

class WaterFillProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WaterFillProperties, FeasibleAndPareto) {
  Rng rng(GetParam());
  const int tors = static_cast<int>(rng.uniform_int(2, 4));
  const int hosts_per = static_cast<int>(rng.uniform_int(2, 4));
  const int spines = static_cast<int>(rng.uniform_int(1, 3));
  const Topology topo = Topology::leaf_spine(tors, hosts_per, spines,
                                             Rate::gbps(50), Rate::gbps(40));
  Simulator sim;
  NetworkConfig cfg;
  cfg.goodput_factor = 1.0;
  Network net(topo, std::make_unique<MaxMinFairPolicy>(), cfg);
  net.attach(sim);
  const Router router(topo);
  const auto hosts = topo.hosts();

  const int flows = static_cast<int>(rng.uniform_int(2, 10));
  std::unordered_map<FlowId, double> weights;
  for (int i = 0; i < flows; ++i) {
    const NodeId src = hosts[rng.uniform_int(0, hosts.size() - 1)];
    NodeId dst = src;
    while (dst == src) {
      dst = hosts[rng.uniform_int(0, hosts.size() - 1)];
    }
    FlowSpec fs;
    fs.src = src;
    fs.dst = dst;
    fs.route = router.pick(src, dst, rng.uniform_int(0, 1000));
    fs.size = Bytes::giga(1);
    const FlowId id = net.start_flow(std::move(fs));
    weights[id] = rng.uniform(0.5, 4.0);
  }

  auto residual = full_residual(net);
  const auto slots = net.active_slots();
  const auto flow_ids = net.active_flows();
  std::vector<double> weight_vec;
  weight_vec.reserve(flow_ids.size());
  for (const FlowId fid : flow_ids) weight_vec.push_back(weights[fid]);
  const auto rates = water_fill(net, slots, residual, weight_vec);

  // Feasibility: no link oversubscribed.
  std::vector<double> load(topo.link_count(), 0.0);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_GE(rates[i].bits_per_sec(), 0.0);
    for (const std::int32_t l : net.route_links(slots[i])) {
      load[l] += rates[i].bits_per_sec();
    }
  }
  for (std::size_t l = 0; l < load.size(); ++l) {
    EXPECT_LE(load[l], net.effective_capacity(
                           LinkId{static_cast<std::int32_t>(l)})
                               .bits_per_sec() *
                           (1.0 + 1e-9));
  }
  // Pareto: every flow hits a saturated link.
  for (std::size_t i = 0; i < slots.size(); ++i) {
    bool saturated = false;
    for (const std::int32_t l : net.route_links(slots[i])) {
      if (residual[l].bits_per_sec() < 1.0) saturated = true;
    }
    EXPECT_TRUE(saturated);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, WaterFillProperties,
                         ::testing::Range<std::uint64_t>(100, 120));

// ---------------------------------------------------------------------------
// Byte conservation in the fluid network.

class ByteConservation : public ::testing::TestWithParam<double> {};

TEST_P(ByteConservation, DeliveredEqualsSize) {
  const double mb = GetParam();
  const Topology topo = Topology::dumbbell(1, Rate::gbps(50), Rate::gbps(50));
  Simulator sim;
  NetworkConfig cfg;
  cfg.goodput_factor = 1.0;
  Network net(topo, std::make_unique<MaxMinFairPolicy>(), cfg);
  net.attach(sim);
  const Router router(topo);
  const auto hosts = topo.hosts();
  FlowSpec fs;
  fs.src = hosts[0];
  fs.dst = hosts[1];
  fs.route = router.pick(fs.src, fs.dst, 0);
  fs.size = Bytes::mega(mb);
  double delivered = -1;
  TimePoint finish;
  net.start_flow(std::move(fs), [&](const Flow& f, TimePoint t) {
    // Completion implies the full size was delivered.
    delivered = f.spec.size.to_mb();
    finish = t;
  });
  sim.run_for(Duration::seconds(2));
  ASSERT_GE(delivered, 0.0) << "flow did not finish";
  EXPECT_NEAR(delivered, mb, mb * 1e-9 + 1e-9);
  // And the finish time matches bytes/rate exactly.
  const double expect_ms = mb * 8.0 / 50.0;  // MB at 50 Gbps
  EXPECT_NEAR((finish - TimePoint::origin()).to_millis(), expect_ms,
              expect_ms * 0.01 + 0.03);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ByteConservation,
                         ::testing::Values(0.1, 1.0, 6.25, 62.5, 625.0));

// ---------------------------------------------------------------------------
// Compatibility threshold sweep (paper §3): two identical jobs are
// compatible iff comm fraction <= 0.5.

class ThresholdSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThresholdSweep, TwoEqualJobsThresholdAtHalf) {
  const int comm = GetParam();
  const std::vector<CommProfile> jobs = {
      job("a", Duration::millis(100), Duration::millis(100 - comm)),
      job("b", Duration::millis(100), Duration::millis(100 - comm))};
  const SolverResult r = CompatibilitySolver().solve(jobs);
  EXPECT_EQ(r.compatible, comm <= 50) << "comm=" << comm;
}

INSTANTIATE_TEST_SUITE_P(Fractions, ThresholdSweep,
                         ::testing::Values(5, 15, 25, 35, 45, 50, 55, 65, 75,
                                           85, 95));

// ---------------------------------------------------------------------------
// Cross-validation: the geometric verdict predicts the fluid simulation.
// For same-period pairs away from the 0.5 threshold, a solver-compatible
// pair must reach ~solo speed under unfair DCQCN, and a solver-incompatible
// pair must leave at least one job measurably above solo.

class SolverVsSimulation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverVsSimulation, VerdictMatchesUnfairDcqcnOutcome) {
  Rng rng(GetParam());
  // Sample comm fractions away from the borderline region around 0.5.
  auto sample_fraction = [&] {
    const double f = rng.uniform(0.10, 0.80);
    return f > 0.45 && f < 0.58 ? f + 0.15 : f;
  };
  const double f1 = sample_fraction();
  double f2 = sample_fraction();
  // Keep the pair away from the compatibility boundary f1 + f2 = 1, where
  // the verdict is exactly right but the fluid transport's finite
  // convergence time blurs the measured outcome.
  if (std::abs(f1 + f2 - 1.0) < 0.12) f2 = std::max(0.10, f2 - 0.30);
  const Duration period = Duration::millis(200);
  const Rate goodput = scenario_goodput();

  auto make_job = [&](double f) {
    const Duration comm = period * f;
    return ModelZoo::synthetic("p", period - comm, goodput * comm);
  };
  const JobProfile a = make_job(f1);
  const JobProfile b = make_job(f2);

  const std::vector<CommProfile> profiles = {analytic_profile(a, goodput),
                                             analytic_profile(b, goodput)};
  const SolverResult verdict = CompatibilitySolver().solve(profiles);
  EXPECT_EQ(verdict.compatible, f1 + f2 <= 1.0 + 1e-9);

  std::vector<ScenarioJob> jobs = {{"J1", a}, {"J2", b}};
  jobs[0].cc_timer = aggressive_knobs().timer;
  jobs[0].cc_rai = aggressive_knobs().rai;
  jobs[1].cc_timer = meek_knobs().timer;
  jobs[1].cc_rai = meek_knobs().rai;
  ScenarioConfig cfg;
  cfg.policy = PolicyKind::kDcqcn;
  cfg.duration = Duration::seconds(10);
  cfg.warmup_iterations = 10;
  const ScenarioResult sim = run_dumbbell_scenario(jobs, cfg);

  const double solo1 = a.solo_iteration(goodput).to_millis();
  const double solo2 = b.solo_iteration(goodput).to_millis();
  ASSERT_GT(sim.jobs[0].iterations, 12u);
  ASSERT_GT(sim.jobs[1].iterations, 12u);
  if (verdict.compatible) {
    EXPECT_LT(sim.jobs[0].mean_ms, solo1 * 1.10)
        << "f1=" << f1 << " f2=" << f2;
    EXPECT_LT(sim.jobs[1].mean_ms, solo2 * 1.10)
        << "f1=" << f1 << " f2=" << f2;
  } else {
    const double worst = std::max(sim.jobs[0].mean_ms / solo1,
                                  sim.jobs[1].mean_ms / solo2);
    EXPECT_GT(worst, 1.10) << "f1=" << f1 << " f2=" << f2;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPairs, SolverVsSimulation,
                         ::testing::Range<std::uint64_t>(1000, 1010));

// ---------------------------------------------------------------------------
// Unified circle: cached shifted arcs and the merged sweep vs references.

using Segments = std::vector<std::pair<std::int64_t, std::int64_t>>;

/// Reference coverage: every replica of every arc inserted one at a time,
/// each insert scanning the segment list from the front and merging what it
/// overlaps or abuts.
class ReferenceSet {
 public:
  explicit ReferenceSet(std::int64_t perimeter) : L_(perimeter) {}

  void add(std::int64_t start, std::int64_t length) {
    if (length <= 0) return;
    if (length >= L_) {
      segs_.assign(1, {0, L_});
      return;
    }
    std::int64_t lo = start % L_;
    if (lo < 0) lo += L_;
    if (lo + length <= L_) {
      insert(lo, lo + length);
    } else {
      insert(lo, L_);
      insert(0, lo + length - L_);
    }
  }
  const Segments& segments() const { return segs_; }

 private:
  void insert(std::int64_t lo, std::int64_t hi) {
    auto first = segs_.begin();
    while (first != segs_.end() && first->second < lo) ++first;
    auto last = first;
    while (last != segs_.end() && last->first <= hi) {
      lo = std::min(lo, last->first);
      hi = std::max(hi, last->second);
      ++last;
    }
    first = segs_.erase(first, last);
    segs_.insert(first, {lo, hi});
  }

  std::int64_t L_;
  Segments segs_;
};

Segments segments_of(const CircularIntervalSet& set) {
  Segments out;
  for (const auto& [lo, hi] : set.segments()) {
    out.emplace_back(lo.ns(), hi.ns());
  }
  return out;
}

Segments reference_arcs(const UnifiedCircle& circle, std::size_t j,
                        Duration rotation, Duration quantum) {
  const CommProfile& job = circle.job(j);
  Duration p = quantize(job.period, quantum);
  if (!p.is_positive()) p = quantum;
  ReferenceSet set(circle.perimeter().ns());
  for (std::int64_t k = 0; k < circle.repetitions(j); ++k) {
    for (const Arc& a : job.arcs) {
      set.add((a.start + rotation + p * k).ns(), a.length.ns());
    }
  }
  return set.segments();
}

struct ReferenceSweep {
  std::int64_t overlapped = 0;  // length covered by >= 2 jobs
  int peak_jobs = 0;
  double peak_demand = 0.0;
  std::int64_t violated = 0;  // length where the solver constraint fails
};

/// The sweep as a sort of every boundary, applying each position's deltas
/// before sampling the peaks.
ReferenceSweep reference_sweep(const UnifiedCircle& circle,
                               std::span<const Duration> rotations,
                               Duration quantum, const SolverOptions& opts) {
  struct Boundary {
    std::int64_t pos;
    int count_delta;
    double demand_delta;
  };
  std::vector<Boundary> bounds;
  for (std::size_t j = 0; j < circle.job_count(); ++j) {
    const double d = circle.job(j).demand.bits_per_sec();
    for (const auto& [lo, hi] :
         reference_arcs(circle, j, rotations[j], quantum)) {
      bounds.push_back({lo, +1, d});
      bounds.push_back({hi, -1, -d});
    }
  }
  std::sort(bounds.begin(), bounds.end(),
            [](const Boundary& a, const Boundary& b) { return a.pos < b.pos; });
  ReferenceSweep out;
  const double cap_bps = opts.link_capacity.bits_per_sec() * (1.0 + 1e-9);
  int depth = 0;
  double demand = 0.0;
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < bounds.size();) {
    const std::int64_t pos = bounds[i].pos;
    const bool bad = opts.mode == SolverOptions::Mode::kCount
                         ? depth > opts.max_concurrent
                         : demand > cap_bps;
    if (bad) out.violated += pos - prev;
    if (depth >= 2) out.overlapped += pos - prev;
    for (; i < bounds.size() && bounds[i].pos == pos; ++i) {
      depth += bounds[i].count_delta;
      demand += bounds[i].demand_delta;
    }
    out.peak_jobs = std::max(out.peak_jobs, depth);
    out.peak_demand = std::max(out.peak_demand, demand);
    prev = pos;
  }
  return out;
}

/// 1-4 jobs with 1-3 arcs each (some crossing the period's end, some
/// abutting on whole milliseconds, and one in eight covering its whole
/// period), periods off the millisecond grid now and then, whole-bps
/// demands.
std::vector<CommProfile> random_circle_jobs(Rng& rng) {
  const std::int64_t periods_ms[] = {20, 30, 40, 45, 60, 90, 97};
  const int n = static_cast<int>(rng.uniform_int(1, 4));
  std::vector<CommProfile> jobs;
  for (int j = 0; j < n; ++j) {
    CommProfile p;
    p.name = std::string("j").append(std::to_string(j));
    p.period = Duration::millis(periods_ms[rng.uniform_int(0, 6)]);
    if (rng.chance(0.2)) p.period += Duration::micros(rng.uniform_int(1, 900));
    p.demand = Rate::gbps(static_cast<double>(rng.uniform_int(5, 45)));
    if (rng.chance(0.125)) {
      p.arcs = {Arc{Duration::micros(rng.uniform_int(0, 5000)), p.period}};
    } else {
      const int arcs = static_cast<int>(rng.uniform_int(1, 3));
      const std::int64_t budget = p.period.ns() / (2 * arcs);
      for (int a = 0; a < arcs; ++a) {
        const bool on_grid = rng.chance(0.5);
        const std::int64_t period_ms = p.period.ns() / 1'000'000;
        const Duration start =
            on_grid ? Duration::millis(rng.uniform_int(0, period_ms - 1))
                    : Duration::nanos(rng.uniform_int(0, p.period.ns() - 1));
        const Duration length =
            on_grid ? Duration::millis(std::max<std::int64_t>(
                          1, rng.uniform_int(1, budget / 1'000'000)))
                    : Duration::nanos(rng.uniform_int(1, budget));
        p.arcs.push_back(Arc{start, length});
      }
    }
    jobs.push_back(std::move(p));
  }
  return jobs;
}

Duration random_rotation(Rng& rng, Duration perimeter) {
  switch (rng.uniform_int(0, 4)) {
    case 0:
      return Duration::zero();
    case 1:
      return -Duration::nanos(rng.uniform_int(1, 3 * perimeter.ns()));
    case 2:
      return perimeter * rng.uniform_int(1, 3);  // whole turns
    case 3:
      return Duration::nanos(rng.uniform_int(perimeter.ns(),
                                             4 * perimeter.ns()));
    default:
      return Duration::millis(rng.uniform_int(0, perimeter.ns() / 1'000'000));
  }
}

class CircleShiftAndSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CircleShiftAndSweep, MatchesInsertionAndSortedSweep) {
  Rng rng(GetParam());
  for (int instance = 0; instance < 20; ++instance) {
    const std::vector<CommProfile> jobs = random_circle_jobs(rng);
    // The cap clamps about a third of the circles, and any other whose
    // LCM passes 3 s.
    UnifiedCircleOptions copts;
    copts.perimeter_cap = rng.chance(0.35)
                              ? Duration::millis(rng.uniform_int(50, 400))
                              : Duration::seconds(3);
    const UnifiedCircle circle(jobs, copts);
    const Duration L = circle.perimeter();
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<Duration> rot;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        rot.push_back(random_rotation(rng, L));
        EXPECT_EQ(segments_of(circle.job_arcs(j, rot[j])),
                  reference_arcs(circle, j, rot[j], copts.quantum))
            << "job " << j << " rotation " << rot[j].ns() << " on "
            << L.ns() << (circle.exact() ? "" : " (clamped)");
      }
      SolverOptions count;
      count.max_concurrent = static_cast<int>(rng.uniform_int(1, 2));
      SolverOptions bw;
      bw.mode = SolverOptions::Mode::kBandwidth;
      bw.link_capacity =
          Rate::gbps(static_cast<double>(rng.uniform_int(30, 60)));
      const ReferenceSweep ref = reference_sweep(circle, rot, copts.quantum,
                                                 count);
      const double perimeter = static_cast<double>(L.ns());
      EXPECT_EQ(circle.overlap_fraction(rot),
                static_cast<double>(ref.overlapped) / perimeter);
      EXPECT_EQ(circle.max_concurrency(rot), ref.peak_jobs);
      EXPECT_EQ(circle.peak_demand(rot).bits_per_sec(), ref.peak_demand);
      EXPECT_EQ(circle_violation_fraction(circle, rot, count),
                static_cast<double>(ref.violated) / perimeter);
      const ReferenceSweep ref_bw = reference_sweep(circle, rot,
                                                    copts.quantum, bw);
      EXPECT_EQ(circle_violation_fraction(circle, rot, bw),
                static_cast<double>(ref_bw.violated) / perimeter);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCircles, CircleShiftAndSweep,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace ccml
