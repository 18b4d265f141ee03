// SoA/scalar kernel parity: the slab kernels (rp_pass_soa, TIMELY's SoA
// pass) must be bit-identical to the reference per-flow rate machines kept
// behind DcqcnConfig/TimelyConfig::reference_kernel — every floating-point
// operation in the same order on the same values.  These tests run the two
// paths interleaved (A, B, A, B over multiple rounds) and assert exact
// equality of per-tick flow rates, completion times, and serialized trace
// streams; any reordering of the arithmetic shows up as a bit difference
// here long before it shows up as a wrong experiment.
//
// The ideal allocators (max-min, WFQ, strict priority) have no reference
// kernel; their fused bursts are checked against per-tick stepping on
// random leaf-spine instances instead.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cc/dcqcn.h"
#include "cc/max_min_fair.h"
#include "cc/priority.h"
#include "cc/timely.h"
#include "cc/wfq.h"
#include "net/network.h"
#include "net/routing.h"
#include "obs/sinks.h"
#include "obs/trace_bus.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace ccml {
namespace {

/// Samples every active flow's exact rate bits after each executed step.
class RateRecorder : public NetObserver {
 public:
  void on_step(const Network& net, TimePoint) override {
    for (const std::uint32_t slot : net.active_slots()) {
      samples_.push_back(net.rates_bps()[slot]);
    }
  }
  bool quiescence_compatible() const override { return true; }
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

struct RunResult {
  std::vector<double> rates;       // per-tick per-flow exact rate doubles
  std::vector<double> finish_ms;   // completion times, exact
  std::string trace;               // JSONL bytes
};

/// One asymmetric-DCQCN (or TIMELY) contest on a dumbbell: two flows with
/// different aggressiveness repeatedly crossing the bottleneck.  `observe`
/// attaches the per-tick rate recorder (which disables fused stepping), so
/// running each kernel with and without it also covers the fused burst path
/// against per-tick stepping.
template <typename MakePolicy>
RunResult run_contest(MakePolicy make_policy, bool observe) {
  const Topology topo = Topology::dumbbell(2, Rate::gbps(50), Rate::gbps(50));
  const Router router(topo);
  Simulator sim;
  NetworkConfig cfg;
  cfg.step = Duration::micros(20);
  Network net(topo, make_policy(), cfg);
  net.attach(sim);

  RunResult result;
  std::ostringstream trace_out;
  TraceBus bus;
  JsonlSink sink(trace_out);
  bus.add_sink(sink);
  net.set_trace_bus(&bus);

  RateRecorder recorder;
  if (observe) net.add_observer(recorder);

  const auto hosts = topo.hosts();
  const auto start = [&](int pair, Duration timer, Rate rai) {
    FlowSpec fs;
    fs.src = hosts[pair * 2];
    fs.dst = hosts[pair * 2 + 1];
    fs.route = router.pick(fs.src, fs.dst, 0);
    fs.size = Bytes::mega(8);
    fs.cc_timer = timer;
    fs.cc_rai = rai;
    net.start_flow(std::move(fs), [&result](const Flow&, TimePoint t) {
      result.finish_ms.push_back(t.since_origin().to_millis());
    });
  };
  // Aggressive vs meek sender (the paper's Figure 1 shape), restarted a few
  // times so flow finish/start edges and queue drain stretches are covered.
  for (int round = 0; round < 3; ++round) {
    start(0, Duration::micros(55), Rate::mbps(80));
    start(1, Duration::micros(300), Rate::mbps(40));
    sim.run_for(Duration::millis(8));
  }
  sim.run_for(Duration::millis(30));  // let the contest finish

  bus.flush();
  result.rates = observe ? recorder.samples() : std::vector<double>{};
  result.trace = trace_out.str();
  return result;
}

void expect_bit_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.rates.size(), b.rates.size());
  if (!a.rates.empty()) {
    // memcmp: bit-level equality, catches -0.0 vs 0.0 and NaN payloads that
    // operator== would wave through.
    EXPECT_EQ(std::memcmp(a.rates.data(), b.rates.data(),
                          a.rates.size() * sizeof(double)),
              0);
  }
  ASSERT_EQ(a.finish_ms.size(), b.finish_ms.size());
  for (std::size_t i = 0; i < a.finish_ms.size(); ++i) {
    EXPECT_EQ(a.finish_ms[i], b.finish_ms[i]) << "completion " << i;
  }
  EXPECT_EQ(a.trace, b.trace);
}

DcqcnConfig dcqcn_config(bool reference) {
  DcqcnConfig cfg;
  cfg.reference_kernel = reference;
  return cfg;
}

TEST(KernelParity, DcqcnSoaMatchesReferencePerTick) {
  const auto make_ref = [] {
    return std::make_unique<DcqcnPolicy>(dcqcn_config(true));
  };
  const auto make_soa = [] {
    return std::make_unique<DcqcnPolicy>(dcqcn_config(false));
  };
  // Interleaved A/B: fresh alternating runs across rounds, so neither path
  // can leak state into the other and both see identical alloc patterns.
  for (int round = 0; round < 2; ++round) {
    const RunResult ref = run_contest(make_ref, /*observe=*/true);
    const RunResult soa = run_contest(make_soa, /*observe=*/true);
    ASSERT_FALSE(ref.rates.empty());
    ASSERT_FALSE(ref.finish_ms.empty());
    expect_bit_identical(ref, soa);
  }
}

TEST(KernelParity, DcqcnFusedBurstMatchesPerTickStepping) {
  // Without an observer the kernel fuses completion-free tick runs
  // (Network::step_burst); trace bytes and completion times must still be
  // exactly those of per-tick stepping, for both kernels.
  for (const bool reference : {false, true}) {
    const auto make = [&] {
      return std::make_unique<DcqcnPolicy>(dcqcn_config(reference));
    };
    const RunResult fused = run_contest(make, /*observe=*/false);
    const RunResult ticked = run_contest(make, /*observe=*/true);
    ASSERT_FALSE(fused.trace.empty());
    ASSERT_EQ(fused.finish_ms.size(), ticked.finish_ms.size());
    for (std::size_t i = 0; i < fused.finish_ms.size(); ++i) {
      EXPECT_EQ(fused.finish_ms[i], ticked.finish_ms[i]);
    }
    EXPECT_EQ(fused.trace, ticked.trace);
  }
}

TEST(KernelParity, DcqcnAdaptiveRaiSoaMatchesReference) {
  // adaptive_rai feeds flow progress into the increase step — the one code
  // path where the kernels read Network::progress_at — so it gets its own
  // parity run.
  const auto make = [](bool reference) {
    DcqcnConfig cfg;
    cfg.reference_kernel = reference;
    cfg.adaptive_rai = true;
    return std::make_unique<DcqcnPolicy>(cfg);
  };
  const RunResult ref = run_contest([&] { return make(true); }, true);
  const RunResult soa = run_contest([&] { return make(false); }, true);
  ASSERT_FALSE(ref.rates.empty());
  expect_bit_identical(ref, soa);
}

TEST(KernelParity, TimelySoaMatchesReference) {
  const auto make = [](bool reference) {
    TimelyConfig cfg;
    cfg.reference_kernel = reference;
    return std::make_unique<TimelyPolicy>(cfg);
  };
  for (int round = 0; round < 2; ++round) {
    const RunResult ref = run_contest([&] { return make(true); }, true);
    const RunResult soa = run_contest([&] { return make(false); }, true);
    ASSERT_FALSE(ref.rates.empty());
    ASSERT_FALSE(ref.finish_ms.empty());
    expect_bit_identical(ref, soa);
  }
}

TEST(KernelParity, TimelyFusedBurstMatchesPerTickStepping) {
  const auto make = [] { return std::make_unique<TimelyPolicy>(); };
  const RunResult fused = run_contest(make, /*observe=*/false);
  const RunResult ticked = run_contest(make, /*observe=*/true);
  ASSERT_FALSE(fused.trace.empty());
  ASSERT_EQ(fused.finish_ms.size(), ticked.finish_ms.size());
  for (std::size_t i = 0; i < fused.finish_ms.size(); ++i) {
    EXPECT_EQ(fused.finish_ms[i], ticked.finish_ms[i]);
  }
  EXPECT_EQ(fused.trace, ticked.trace);
}

// --- Ideal allocators: fused bursts vs per-tick stepping ------------------

/// Forwards every BandwidthPolicy virtual to the wrapped policy and counts
/// fused bursts, so a test can tell that the fused path actually ran.
class BurstCounter final : public BandwidthPolicy {
 public:
  BurstCounter(std::unique_ptr<BandwidthPolicy> inner, std::uint64_t& bursts)
      : inner_(std::move(inner)), bursts_(bursts) {}
  const char* name() const override { return inner_->name(); }
  void on_flow_started(Network& net, Flow& flow) override {
    inner_->on_flow_started(net, flow);
  }
  void on_flow_finished(Network& net, const Flow& flow) override {
    inner_->on_flow_finished(net, flow);
  }
  void on_link_capacity_changed(Network& net, LinkId link) override {
    inner_->on_link_capacity_changed(net, link);
  }
  void update_rates(Network& net, TimePoint now, Duration dt) override {
    inner_->update_rates(net, now, dt);
  }
  void update_rates_burst(Network& net, TimePoint first, Duration dt,
                          std::uint64_t ticks) override {
    ++bursts_;
    inner_->update_rates_burst(net, first, dt, ticks);
  }
  double rate_bound_bps(const Network& net, std::uint32_t slot) const override {
    return inner_->rate_bound_bps(net, slot);
  }
  bool quiescent() const override { return inner_->quiescent(); }

 private:
  std::unique_ptr<BandwidthPolicy> inner_;
  std::uint64_t& bursts_;
};

enum class Ideal { kMaxMin, kWfq, kPriority };

struct IdealRun {
  std::vector<std::pair<std::int64_t, double>> finish_ms;  // (flow id, ms)
  std::uint64_t bursts = 0;
  std::size_t parked = 0;  // flows parked by the outage
};

/// WaterFillProperties' random leaf-spine instance for `seed`, with random
/// weights and priorities, flows starting 0-20 ms apart, a brownout of one
/// used link, and one used link taken down and back up (rerouting its
/// flows over another spine, or parking them when none is left).
IdealRun run_ideal(Ideal kind, std::uint64_t seed, bool observe) {
  Rng rng(seed);
  const int tors = static_cast<int>(rng.uniform_int(2, 4));
  const int hosts_per = static_cast<int>(rng.uniform_int(2, 4));
  const int spines = static_cast<int>(rng.uniform_int(1, 3));
  const Topology topo = Topology::leaf_spine(tors, hosts_per, spines,
                                             Rate::gbps(50), Rate::gbps(40));
  std::unique_ptr<BandwidthPolicy> policy;
  switch (kind) {
    case Ideal::kMaxMin:
      policy = std::make_unique<MaxMinFairPolicy>();
      break;
    case Ideal::kWfq:
      policy = std::make_unique<WfqPolicy>();
      break;
    case Ideal::kPriority:
      policy = std::make_unique<PriorityPolicy>();
      break;
  }
  IdealRun out;
  Simulator sim;
  Network net(topo, std::make_unique<BurstCounter>(std::move(policy),
                                                   out.bursts));
  net.attach(sim);
  const Router router(topo);
  net.set_reroute_provider([&](const Flow& flow) {
    return router.pick(flow.spec.src, flow.spec.dst,
                       static_cast<std::uint64_t>(flow.id.value),
                       [&](LinkId l) { return net.link_is_up(l); });
  });
  RateRecorder recorder;
  if (observe) net.add_observer(recorder);

  const auto hosts = topo.hosts();
  const int flows = static_cast<int>(rng.uniform_int(3, 10));
  std::vector<Route> routes;
  for (int i = 0; i < flows; ++i) {
    const NodeId src = hosts[rng.uniform_int(0, hosts.size() - 1)];
    NodeId dst = src;
    while (dst == src) dst = hosts[rng.uniform_int(0, hosts.size() - 1)];
    FlowSpec fs;
    fs.src = src;
    fs.dst = dst;
    fs.route = router.pick(src, dst, rng.uniform_int(0, 1000));
    fs.size = Bytes::mega(rng.uniform(2.0, 40.0));
    fs.weight = rng.uniform(0.5, 4.0);
    fs.priority = static_cast<int>(rng.uniform_int(0, 2));
    routes.push_back(fs.route);
    const Duration at = Duration::micros(rng.uniform_int(0, 20'000));
    sim.schedule_at(TimePoint::origin() + at, [&net, &out, fs] {
      net.start_flow(fs, [&out](const Flow& f, TimePoint t) {
        out.finish_ms.emplace_back(f.id.value, t.since_origin().to_millis());
      });
    });
  }
  const auto used_link = [&] {
    const Route& r = routes[rng.uniform_int(0, routes.size() - 1)];
    return r.links[rng.uniform_int(0, r.links.size() - 1)];
  };
  const LinkId brown = used_link();
  const double factor = rng.uniform(0.2, 0.8);
  sim.schedule_at(TimePoint::origin() + Duration::millis(6),
                  [&, brown, factor] {
                    net.set_link_capacity_factor(brown, factor);
                  });
  sim.schedule_at(TimePoint::origin() + Duration::millis(18),
                  [&, brown] { net.set_link_capacity_factor(brown, 1.0); });
  const LinkId down = used_link();
  sim.schedule_at(TimePoint::origin() + Duration::millis(9), [&, down] {
    net.set_link_capacity_factor(down, 0.0);
    out.parked = net.parked_flows().size();
  });
  sim.schedule_at(TimePoint::origin() + Duration::millis(14),
                  [&, down] { net.set_link_capacity_factor(down, 1.0); });
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(net.active_flow_count(), 0u) << "every flow must finish";
  EXPECT_EQ(out.finish_ms.size(), static_cast<std::size_t>(flows));
  return out;
}

class IdealFusedBurst : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IdealFusedBurst, MatchesPerTickStepping) {
  for (const Ideal kind : {Ideal::kMaxMin, Ideal::kWfq, Ideal::kPriority}) {
    const IdealRun fused = run_ideal(kind, GetParam(), /*observe=*/false);
    const IdealRun ticked = run_ideal(kind, GetParam(), /*observe=*/true);
    EXPECT_GT(fused.bursts, 0u) << "the unobserved run must fuse ticks";
    EXPECT_EQ(ticked.bursts, 0u) << "an observer forces per-tick stepping";
    EXPECT_EQ(fused.parked, ticked.parked);
    ASSERT_EQ(fused.finish_ms.size(), ticked.finish_ms.size());
    for (std::size_t i = 0; i < fused.finish_ms.size(); ++i) {
      EXPECT_EQ(fused.finish_ms[i].first, ticked.finish_ms[i].first);
      // Bit equality, not closeness: the burst must keep every tick's
      // arithmetic.
      EXPECT_EQ(fused.finish_ms[i].second, ticked.finish_ms[i].second)
          << "policy " << static_cast<int>(kind) << " completion " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLeafSpines, IdealFusedBurst,
                         ::testing::Range<std::uint64_t>(100, 120));

}  // namespace
}  // namespace ccml
