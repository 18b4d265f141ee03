// Fused burst stepping against per-tick stepping: a run with no per-tick
// observer lets Network::step_burst fuse completion-free ticks, and must
// still produce exactly the completion times and trace bytes of a run that
// steps tick by tick.  DCQCN, TIMELY and Swift are checked on the shared dumbbell
// contest (tests/cc_contest.h); the ideal allocators (max-min, WFQ, strict
// priority) on random leaf-spine instances with brownouts and outages.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cc/max_min_fair.h"
#include "cc/priority.h"
#include "cc/wfq.h"
#include "cc_contest.h"
#include "net/network.h"
#include "net/routing.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace ccml {
namespace {

/// Runs the contest with and without the per-tick observer: without one the
/// kernel fuses completion-free tick runs (Network::step_burst), and trace
/// bytes and completion times must still be exactly those of per-tick
/// stepping.
void expect_fused_matches_per_tick(PolicyKind kind) {
  Contest fused;
  fused.observe = false;
  const ContestResult burst = run_contest(kind, {}, fused);
  const ContestResult ticked = run_contest(kind);
  ASSERT_FALSE(burst.trace.empty());
  ASSERT_EQ(burst.finish_ms.size(), ticked.finish_ms.size());
  for (std::size_t i = 0; i < burst.finish_ms.size(); ++i) {
    EXPECT_EQ(burst.finish_ms[i], ticked.finish_ms[i]) << "completion " << i;
  }
  EXPECT_EQ(burst.trace, ticked.trace);
}

TEST(KernelParity, DcqcnFusedBurstMatchesPerTickStepping) {
  expect_fused_matches_per_tick(PolicyKind::kDcqcn);
}

TEST(KernelParity, TimelyFusedBurstMatchesPerTickStepping) {
  expect_fused_matches_per_tick(PolicyKind::kTimely);
}

TEST(KernelParity, SwiftFusedBurstMatchesPerTickStepping) {
  expect_fused_matches_per_tick(PolicyKind::kSwift);
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
