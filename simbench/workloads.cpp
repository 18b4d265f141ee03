#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <stdexcept>
#include <streambuf>

#include "cluster/scenario.h"
#include "obs/analytics/engine.h"
#include "obs/analytics/trace_reader.h"
#include "obs/sinks.h"
#include "orch/orchestrator.h"
#include "util/rng.h"

namespace simbench {

using namespace ccml;

namespace {

// Simulated length of one unit per workload.  Chosen so that one round of
// every unit takes about a second of host time, and long enough that every
// job completes iterations past its warm-up.
constexpr std::int64_t kZooSeconds = 15;
constexpr std::int64_t kIdealSeconds = 10;
constexpr std::int64_t kJsonlSeconds = 60;
constexpr std::int64_t kTable1Seconds = 40;
// fabric-churn: one fixed Poisson draw of arrivals over kChurnArrivalSeconds
// (kChurnStreamSeed), each arrival delayed by up to kChurnJitterMs drawn from
// the benchmark seed; the cluster then drains for kChurnDrainSeconds.  The
// orchestrator's cost is set by which hard sharing components a stream
// produces and how its refinement walks go, so re-drawn streams, and even
// 500 ms of jitter, change the work by tens of percent (README.md); 20 ms of
// jitter keeps the decisions while still changing every simulated output.
constexpr std::uint64_t kChurnStreamSeed = 6;
constexpr double kChurnJitterMs = 20.0;
constexpr std::int64_t kChurnArrivalSeconds = 60;
constexpr std::int64_t kChurnDrainSeconds = 30;

// Job start offsets are drawn from the seed in [0, kMaxOffsetMs).
constexpr double kMaxOffsetMs = 200.0;

struct GroupSpec {
  std::vector<std::pair<const char*, int>> members;  // (model, batch)
  std::vector<double> paper_unfair_ms;
};

// The paper's Table-1 job groups, with its unfair-DCQCN column.  The
// simulator is calibrated on solo and fair-share times only, so the unfair
// column is held-out data.
const std::vector<GroupSpec>& table1_groups() {
  static const std::vector<GroupSpec> groups = {
      {{{"BERT", 8}, {"VGG19", 1200}}, {157, 315}},
      {{{"DLRM", 2000}, {"DLRM", 2000}}, {1001, 1019}},
      {{{"BERT", 8}, {"VGG19", 1400}, {"WideResNet", 800}}, {216, 466, 505}},
      {{{"WideResNet", 800}, {"VGG16", 1400}}, {273, 274}},
      {{{"VGG19", 1400}, {"VGG16", 1700}, {"ResNet50", 1600}},
       {329, 329, 165}},
  };
  return groups;
}

std::string digest(const ScenarioResult& r) {
  std::string out;
  char buf[256];
  for (const ScenarioJobStats& j : r.jobs) {
    const std::uint64_t h =
        fnv1a(j.iteration_ms.data(), j.iteration_ms.size() * sizeof(double));
    std::snprintf(buf, sizeof buf, "%s:%zu:%.17g:%.17g:%.17g:%016llx;",
                  j.name.c_str(), j.iterations, j.mean_ms, j.median_ms,
                  j.p95_ms, static_cast<unsigned long long>(h));
    out += buf;
  }
  return out;
}

/// One dumbbell simulation: the jobs, the config and their solo times.
struct Scenario {
  std::vector<ScenarioJob> jobs;
  ScenarioConfig cfg;
  std::vector<double> solo_ms;
};

/// Builds a Table-1 group with seed-drawn start offsets.
Scenario make_group(const GroupSpec& group, PolicyKind kind, Rng& rng,
                    std::int64_t seconds) {
  Scenario sc;
  sc.cfg.policy = kind;
  sc.cfg.duration = Duration::seconds(seconds);
  sc.cfg.warmup_iterations = 4;
  for (const auto& [model, batch] : group.members) {
    ScenarioJob job;
    job.name = std::string(model) + "(" + std::to_string(batch) + ")";
    const auto profile = ModelZoo::calibrated(model, batch);
    if (!profile) throw std::logic_error("uncalibrated model " + job.name);
    job.profile = *profile;
    job.start_offset = Duration::micros(
        static_cast<std::int64_t>(rng.uniform(0.0, kMaxOffsetMs * 1000.0)));
    sc.solo_ms.push_back(
        job.profile.solo_iteration(scenario_goodput(sc.cfg)).to_millis());
    sc.jobs.push_back(std::move(job));
  }
  validate_scenario(sc.jobs, sc.cfg);
  return sc;
}

void make_unfair(Scenario& sc) {
  for (std::size_t i = 0; i < sc.jobs.size(); ++i) {
    const Aggressiveness knobs = ranked_knobs(static_cast<int>(i));
    sc.jobs[i].cc_timer = knobs.timer;
    sc.jobs[i].cc_rai = knobs.rai;
  }
}

/// Runs a scenario, optionally with the cc probe and a trace bus attached.
void run_scenario(const Scenario& sc, bool probe_cc, double plant,
                  TraceBus* bus, UnitRun& out) {
  ScenarioConfig cfg = sc.cfg;
  cfg.trace = bus;
  if (probe_cc || plant > 0.0) {
    // No flow is active yet when instrument runs, so swapping in a fresh
    // policy built from the same config is exact.
    cfg.instrument = [&](Network& net) {
      net.replace_policy(std::make_unique<TimedPolicy>(
          make_policy(cfg.policy, cfg.transports), out.host.cc,
          out.host.stack, plant));
    };
  }
  const ScenarioResult r = run_dumbbell_scenario(sc.jobs, cfg);
  SimOutcome& sim = out.sim;
  sim.fingerprint = digest(r);
  sim.sim_s = cfg.duration.to_seconds();
  for (std::size_t i = 0; i < r.jobs.size(); ++i) {
    const ScenarioJobStats& j = r.jobs[i];
    sim.iterations += j.iterations;
    if (j.iterations <= cfg.warmup_iterations || !(j.mean_ms > 0.0)) {
      sim.error = "job " + j.name + " finished no iteration past warm-up";
      continue;
    }
    sim.slowdown_sum += j.mean_ms / sc.solo_ms[i];
    ++sim.slowdown_n;
  }
}

/// Table-1 groups under a list of transports, fair and unfair.
class DumbbellZoo final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    static const char* const kTransports[] = {
        "dcqcn", "dcqcn-adaptive", "timely",       "swift",
        "bbr",   "mltcp-dcqcn",    "mltcp-timely", "mltcp-swift"};
    scenarios_.clear();
    for (const char* t : kTransports) {
      const PolicyKind kind = parse_policy_kind(t);
      Rng rng(seed);  // the same offsets under every transport
      for (const GroupSpec& g : table1_groups()) {
        Scenario fair = make_group(g, kind, rng, kZooSeconds);
        Scenario unfair = fair;
        make_unfair(unfair);
        scenarios_.push_back(std::move(fair));
        scenarios_.push_back(std::move(unfair));
      }
    }
  }
  std::size_t units() const override { return scenarios_.size(); }
  UnitRun run(std::size_t unit, Mode mode, double plant, bool) override {
    UnitRun out;
    run_scenario(scenarios_[unit], mode == Mode::kProbed, plant, nullptr,
                 out);
    return out;
  }

 private:
  std::vector<Scenario> scenarios_;
};

/// The paper's §4 remedies with ideal allocators: max-min fair sharing,
/// weighted fair queueing and strict priority ranked by Table-1 order, and
/// the solver-gated max-min flow schedule.
class IdealRemedies final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    scenarios_.clear();
    Rng rng(seed);
    for (const GroupSpec& g : table1_groups()) {
      Scenario maxmin =
          make_group(g, PolicyKind::kMaxMinFair, rng, kIdealSeconds);
      Scenario wfq = maxmin;
      wfq.cfg.policy = PolicyKind::kWfq;
      Scenario prio = maxmin;
      prio.cfg.policy = PolicyKind::kPriority;
      for (std::size_t i = 0; i < maxmin.jobs.size(); ++i) {
        wfq.jobs[i].weight = static_cast<double>(maxmin.jobs.size() - i);
        prio.jobs[i].priority = static_cast<int>(i);
      }
      Scenario gated = maxmin;
      gated.cfg.flow_schedule = true;
      scenarios_.push_back(std::move(maxmin));
      scenarios_.push_back(std::move(wfq));
      scenarios_.push_back(std::move(prio));
      scenarios_.push_back(std::move(gated));
    }
  }
  std::size_t units() const override { return scenarios_.size(); }
  UnitRun run(std::size_t unit, Mode mode, double plant, bool) override {
    UnitRun out;
    run_scenario(scenarios_[unit], mode == Mode::kProbed, plant, nullptr,
                 out);
    return out;
  }

 private:
  std::vector<Scenario> scenarios_;
};

/// Counts the bytes written through it; keeps them only when capturing.
class CountingBuf final : public std::streambuf {
 public:
  explicit CountingBuf(std::string* capture) : capture_(capture) {}
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return 0;
    const char c = traits_type::to_char_type(ch);
    xsputn(&c, 1);
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    if (capture_ != nullptr) capture_->append(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  std::string* capture_;
  std::uint64_t bytes_ = 0;
};

/// Reads a string in place, so replaying a captured trace needs no copy.
class StringReadBuf final : public std::streambuf {
 public:
  explicit StringReadBuf(const std::string& s) {
    char* p = const_cast<char*>(s.data());
    setg(p, p, p + s.size());
  }
};

/// A DCQCN DLRM x2 dumbbell traced to JSONL through the run-health
/// analytics engine, as `ccml_sim scenario --trace ... --health-report`
/// wires it (5 ms link sampling).
class DumbbellJsonl final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    sc_ = make_group(table1_groups()[1], PolicyKind::kDcqcn, rng,
                     kJsonlSeconds);
  }
  std::size_t units() const override { return 1; }
  bool has_deep_checks() const override { return true; }
  std::vector<Mode> traced_modes() const override {
    return {Mode::kPlain, Mode::kProduct, Mode::kProbed};
  }
  UnitRun run(std::size_t, Mode mode, double plant,
              bool deep_check) override {
    UnitRun out;
    if (mode == Mode::kPlain) {
      run_scenario(sc_, false, plant, nullptr, out);
      return out;
    }
    const bool probed = mode == Mode::kProbed;
    std::string captured;
    CountingBuf buf(deep_check ? &captured : nullptr);
    std::ostream stream(&buf);
    AnalyticsConfig acfg;
    acfg.sample_cadence = kCadence;
    AnalyticsEngine engine(acfg);
    JsonlSinkOptions jopts;
    jopts.sample_cadence = kCadence;
    JsonlSink jsonl(stream, jopts);
    TimedSink timed_jsonl(jsonl, out.host.jsonl, out.host.stack);
    TimedSink timed_engine(engine, out.host.engine, out.host.stack);
    engine.set_output(probed ? static_cast<TraceSink*>(&timed_jsonl)
                             : &jsonl);
    TraceBus bus;
    bus.add_sink(probed ? static_cast<TraceSink&>(timed_engine) : engine);
    run_scenario(sc_, probed, plant, &bus, out);
    bus.flush();
    const RunHealthReport report = engine.report();
    out.sim.trace_bytes = buf.bytes();
    out.sim.trace_digest =
        report.json + "|bytes=" + std::to_string(buf.bytes());
    if (deep_check && out.sim.error.empty()) {
      out.sim.error = check_offline_replay(captured, report.json, acfg);
    }
    return out;
  }

 private:
  static constexpr Duration kCadence = Duration::millis(5);

  /// The online report must equal an offline replay of the captured trace.
  static std::string check_offline_replay(const std::string& trace,
                                          const std::string& online,
                                          const AnalyticsConfig& acfg) {
    StringReadBuf buf(trace);
    std::istream in(&buf);
    AnalyticsEngine offline(acfg);
    TraceReplayStats stats;
    std::string error;
    if (!replay_trace_jsonl(in, offline, stats, &error)) {
      return "offline replay failed: " + error;
    }
    offline.flush();
    if (offline.report().json != online) {
      return "online run-health report differs from the offline replay";
    }
    return {};
  }

  Scenario sc_;
};

/// Online orchestrator churn on a 4x3 leaf-spine with one spine (as in
/// bench/s6_multi_bottleneck) at 2:1 and 4:1 oversubscription.
/// Locality-only and compat-graph admission replay the same arrivals.
class FabricChurn final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    points_.clear();
    for (const double fabric_gbps : {75.0, 37.5}) {
      Point pt{Topology::leaf_spine(4, 3, 1, Rate::gbps(50),
                                    Rate::gbps(fabric_gbps)),
               {}};
      ArrivalConfig acfg;
      acfg.seed = kChurnStreamSeed;
      acfg.rate_per_min = 10.0;
      acfg.min_service = Duration::seconds(12);
      acfg.mean_service_extra = Duration::seconds(8);
      acfg.horizon = Duration::seconds(kChurnArrivalSeconds);
      acfg.min_workers = 4;
      acfg.max_workers = 4;
      acfg.catalog = {{"VGG19", 1200}, {"VGG19", 1200}, {"VGG19", 1200},
                      {"VGG19", 1200}, {"BERT", 16}};
      // Comm arcs at the dedicated rate a spanning job sees on this fabric.
      acfg.profile_rate = Rate::gbps(std::min(42.5, 0.85 * fabric_gbps));
      pt.schedule = generate_arrivals(acfg);
      Rng rng(seed);  // the same jitter at both ratios
      for (JobArrival& a : pt.schedule.jobs) {
        a.at = a.at + Duration::micros(static_cast<std::int64_t>(
                          rng.uniform(0.0, kChurnJitterMs * 1000.0)));
      }
      std::stable_sort(
          pt.schedule.jobs.begin(), pt.schedule.jobs.end(),
          [](const JobArrival& x, const JobArrival& y) { return x.at < y.at; });
      points_.push_back(std::move(pt));
    }
  }
  std::size_t units() const override { return points_.size() * 2; }
  UnitRun run(std::size_t unit, Mode mode, double, bool) override {
    const Point& pt = points_[unit / 2];
    OrchestratorConfig cfg;
    cfg.admission.policy = unit % 2 == 0
                               ? AdmissionPolicyKind::kLocalityOnly
                               : AdmissionPolicyKind::kCompatibilityAware;
    cfg.circle = OrchestratorConfig::CircleMode::kGraph;
    cfg.horizon = Duration::seconds(kChurnArrivalSeconds + kChurnDrainSeconds);
    UnitRun out;
    TraceBus bus;
    OrchClockSink clock(out.host.orch);
    if (mode == Mode::kProbed) {
      bus.add_sink(clock);
      cfg.trace = &bus;
    }
    const ClusterRunReport r = Orchestrator(pt.topo, pt.schedule, cfg).run();
    SimOutcome& sim = out.sim;
    sim.fingerprint = r.summary();
    sim.sim_s = cfg.horizon.to_seconds();
    for (const ClusterJobOutcome& j : r.jobs) {
      sim.iterations += j.iterations;
      if (j.slowdown > 0.0) {
        sim.slowdown_sum += j.slowdown;
        ++sim.slowdown_n;
      }
    }
    sim.admitted = r.admitted;
    sim.rejected = r.rejected;
    sim.queue_delay_ms = r.mean_queue_delay_ms();
    sim.lookups = r.resolve.lookups();
    sim.hits = r.resolve.cache_hits;
    sim.component_lookups =
        r.resolve.component_solves + r.resolve.component_cache_hits;
    sim.component_hits = r.resolve.component_cache_hits;
    sim.nodes = r.resolve.nodes_explored;
    out.host.link_solve_us = r.resolve.wall_micros;
    if (r.submitted != pt.schedule.size()) {
      sim.error = "not every arrival was submitted";
    } else if (r.submitted != r.admitted + r.rejected + r.queued_at_end) {
      sim.error = "submitted != admitted + rejected + queued_at_end";
    }
    return out;
  }

 private:
  struct Point {
    Topology topo;
    ArrivalSchedule schedule;
  };
  std::vector<Point> points_;
};

}  // namespace

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "dumbbell-zoo", "ideal-remedies", "fabric-churn", "dumbbell-jsonl"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "dumbbell-zoo") return std::make_unique<DumbbellZoo>();
  if (name == "ideal-remedies") return std::make_unique<IdealRemedies>();
  if (name == "fabric-churn") return std::make_unique<FabricChurn>();
  if (name == "dumbbell-jsonl") return std::make_unique<DumbbellJsonl>();
  return nullptr;
}

double table1_unfair_error_pct(std::uint64_t seed) {
  Rng rng(seed);
  double err = 0.0;
  int n = 0;
  for (const GroupSpec& g : table1_groups()) {
    Scenario sc = make_group(g, PolicyKind::kDcqcn, rng, kTable1Seconds);
    sc.cfg.warmup_iterations = 8;
    make_unfair(sc);
    const ScenarioResult r = run_dumbbell_scenario(sc.jobs, sc.cfg);
    for (std::size_t i = 0; i < r.jobs.size(); ++i) {
      err += std::abs(r.jobs[i].mean_ms - g.paper_unfair_ms[i]) /
             g.paper_unfair_ms[i];
      ++n;
    }
  }
  return 100.0 * err / n;
}

}  // namespace simbench
