// Regression tests for the quiescence-aware NetObserver contract: attaching
// a quiescence-compatible observer (or sink) must NOT disable the kernel's
// idle fast-forward, and the series recorded across a fast-forwarded gap
// must be identical to stepping through it.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <set>
#include <stdexcept>

#include "cc/max_min_fair.h"
#include "net/network.h"
#include "obs/sinks.h"
#include "obs/trace_bus.h"
#include "sim/simulator.h"
#include "telemetry/recorders.h"

namespace ccml {
namespace {

/// Counts executed steps and the steps covered by synthesized idle gaps.
struct CountingObserver : NetObserver {
  explicit CountingObserver(bool compatible) : compatible_(compatible) {}

  void on_step(const Network&, TimePoint) override { ++steps; }
  void on_idle_gap(const Network& net, TimePoint from, TimePoint to) override {
    ++gaps;
    gap_steps += (to - from).ns() / net.config().step.ns();
  }
  bool quiescence_compatible() const override { return compatible_; }

  std::int64_t steps = 0;
  std::int64_t gap_steps = 0;
  int gaps = 0;

 private:
  bool compatible_;
};

struct Fixture {
  Fixture() : topo(Topology::dumbbell(2, Rate::gbps(50), Rate::gbps(50))),
              router(topo) {
    NetworkConfig cfg;
    cfg.goodput_factor = 1.0;
    cfg.step = Duration::micros(20);
    net = std::make_unique<Network>(topo, std::make_unique<MaxMinFairPolicy>(),
                                    cfg);
    net->attach(sim);
    hosts = topo.hosts();
  }

  FlowId flow(int pair, Bytes size, JobId job) {
    FlowSpec fs;
    fs.src = hosts[2 * pair];
    fs.dst = hosts[2 * pair + 1];
    fs.route = router.pick(fs.src, fs.dst, 0);
    fs.size = size;
    fs.job = job;
    return net->start_flow(std::move(fs));
  }

  Simulator sim;
  Topology topo;
  Router router;
  std::unique_ptr<Network> net;
  std::vector<NodeId> hosts;
};

constexpr std::int64_t kTotalSteps = 500;  // 10 ms / 20 us

TEST(NetObserver, CompatibleObserverKeepsFastForward) {
  Fixture f;
  CountingObserver obs(/*compatible=*/true);
  f.net->add_observer(obs);
  f.flow(0, Bytes::mega(6.25), JobId{0});  // 1 ms at 50 Gbps
  f.sim.run_for(Duration::millis(10));
  f.net->flush_observers();
  // The ~9 ms idle tail must be fast-forwarded, not stepped ...
  EXPECT_GT(obs.gaps, 0);
  EXPECT_LT(obs.steps, kTotalSteps / 2);
  // ... and the synthesized gaps must account for every skipped tick.
  EXPECT_EQ(obs.steps + obs.gap_steps, kTotalSteps);
}

TEST(NetObserver, BlockingObserverForcesStepping) {
  Fixture f;
  CountingObserver obs(/*compatible=*/false);
  f.net->add_observer(obs);
  f.sim.run_for(Duration::millis(10));  // fully idle network
  f.net->flush_observers();
  EXPECT_EQ(obs.steps, kTotalSteps);
  EXPECT_EQ(obs.gaps, 0);
}

TEST(NetObserver, FlushObserversIsIdempotent) {
  Fixture f;
  CountingObserver obs(/*compatible=*/true);
  f.net->add_observer(obs);
  f.sim.run_for(Duration::millis(2));
  f.net->flush_observers();
  const std::int64_t after_first = obs.gap_steps;
  f.net->flush_observers();
  EXPECT_EQ(obs.gap_steps, after_first);
}

/// The satellite regression: an instrumented run (quiescence-compatible
/// sink + sampler) fast-forwards its idle gap AND records the exact series
/// a fully-stepped run records — byte-identical times and rates.
TEST(NetObserver, GapSynthesizedSeriesMatchesSteppedSeries) {
  const auto run = [](bool force_stepping) {
    Fixture f;
    TraceBus bus;
    LinkThroughputRecorder rec(LinkId{0}, Duration::millis(1));
    rec.attach(bus);
    auto sampler = bind_trace_bus(bus, *f.net);
    CountingObserver probe(/*compatible=*/!force_stepping);
    f.net->add_observer(probe);
    f.flow(0, Bytes::mega(6.25), JobId{3});  // active 1 ms, idle 9 ms
    f.sim.run_for(Duration::millis(10));
    f.net->flush_observers();
    if (force_stepping) {
      EXPECT_EQ(probe.steps, kTotalSteps);
    } else {
      EXPECT_LT(probe.steps, kTotalSteps / 2);  // gap really was skipped
      EXPECT_GT(probe.gaps, 0);
    }
    return rec.samples();
  };

  const auto fast = run(/*force_stepping=*/false);
  const auto stepped = run(/*force_stepping=*/true);
  ASSERT_EQ(fast.size(), stepped.size());
  ASSERT_EQ(fast.size(), 10u);
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].time, stepped[i].time) << "sample " << i;
    EXPECT_EQ(fast[i].total.bits_per_sec(), stepped[i].total.bits_per_sec())
        << "sample " << i;
    ASSERT_EQ(fast[i].per_job.size(), stepped[i].per_job.size());
    for (const auto& [job, rate] : fast[i].per_job) {
      ASSERT_TRUE(stepped[i].per_job.contains(job));
      EXPECT_EQ(rate.bits_per_sec(), stepped[i].per_job.at(job).bits_per_sec())
          << "sample " << i << " job " << job.value;
    }
  }
}

TEST(NetObserver, ObserverAttachedMidRunSeesOnlyLaterSteps) {
  Fixture f;
  f.flow(0, Bytes::giga(1), JobId{0});  // active for the whole run
  f.sim.run_for(Duration::millis(5));
  CountingObserver obs(/*compatible=*/true);
  f.net->add_observer(obs);
  f.sim.run_for(Duration::millis(5));
  f.net->flush_observers();
  EXPECT_EQ(obs.steps + obs.gap_steps, 250);  // 5 ms / 20 us
}

TEST(NetObserver, SamplerRejectsAnInvalidWatchedLink) {
  TraceBus bus;
  EXPECT_THROW(TraceThroughputSampler(bus, Duration::millis(1), {LinkId{}},
                                      /*quiescence_ok=*/true),
               std::invalid_argument);
}

/// The throughput sampler as first written, with ordered maps keyed by link
/// and job id: the reference the flat TraceThroughputSampler must match
/// event for event and bit for bit.
class MapSampler : public NetObserver {
 public:
  MapSampler(TraceBus& bus, Duration cadence, std::vector<LinkId> watch)
      : bus_(bus), cadence_(cadence) {
    for (const LinkId l : watch) links_[l.value];
  }

  void on_step(const Network& net, TimePoint now) override {
    const Duration dt = net.config().step;
    const std::span<const double> rates = net.rates_bps();
    for (const LinkId lid : net.links_in_use()) {
      LinkAcc& acc = links_[lid.value];
      for (const std::uint32_t slot : net.flow_slots_on_link(lid)) {
        const double bits = rates[slot] * dt.to_seconds();
        acc.total_bits += bits;
        acc.job_bits[net.flow_at(slot).spec.job.value] += bits;
      }
    }
    accumulated_ += dt;
    if (accumulated_ >= cadence_) emit_samples(net, now, false);
  }

  void on_idle_gap(const Network& net, TimePoint from,
                   TimePoint to) override {
    const Duration dt = net.config().step;
    std::int64_t steps = (to - from).ns() / dt.ns();
    TimePoint t = from;
    while (steps > 0) {
      std::int64_t need =
          ((cadence_ - accumulated_).ns() + dt.ns() - 1) / dt.ns();
      if (need < 1) need = 1;
      if (need > steps) {
        accumulated_ += dt * steps;
        return;
      }
      accumulated_ += dt * need;
      t = t + dt * need;
      emit_samples(net, t, /*idle=*/true);
      steps -= need;
    }
  }

  bool quiescence_compatible() const override { return true; }

 private:
  struct LinkAcc {
    double total_bits = 0.0;
    std::map<std::int32_t, double> job_bits;
  };

  void emit_samples(const Network& net, TimePoint t, bool idle) {
    const double secs = accumulated_.to_seconds();
    for (auto& [lv, acc] : links_) {
      TraceEvent ev;
      ev.time = t;
      ev.kind = TraceEventKind::kLinkThroughput;
      ev.link = LinkId{lv};
      ev.value = secs > 0.0 ? acc.total_bits / secs : 0.0;
      bus_.emit(ev);
      acc.total_bits = 0.0;
      for (auto& [jv, bits] : acc.job_bits) {
        TraceEvent je = ev;
        je.job = JobId{jv};
        je.value = secs > 0.0 ? bits / secs : 0.0;
        bus_.emit(je);
        bits = 0.0;
      }
      TraceEvent qe;
      qe.time = t;
      qe.kind = TraceEventKind::kLinkQueue;
      qe.link = LinkId{lv};
      qe.value = idle ? 0.0 : net.policy().link_queue(LinkId{lv}).count();
      bus_.emit(qe);
    }
    accumulated_ = Duration::zero();
  }

  TraceBus& bus_;
  Duration cadence_;
  Duration accumulated_ = Duration::zero();
  std::map<std::int32_t, LinkAcc> links_;
};

TEST(NetObserver, FlatSamplerMatchesMapSamplerBitForBit) {
  Fixture f;
  // Dumbbell(2) link ids: 0/1 the bottleneck pair, then per host pair
  // src->swL, swL->src, swR->dst, dst->swR.  Pair 0 routes over {2, 0, 4},
  // pair 1 over {6, 0, 8}: the sampled ids have gaps, and the watched idle
  // link 9 lies above every used one.
  const std::vector<LinkId> watch = {LinkId{9}};
  TraceBus flat_bus, map_bus;
  RingBufferSink flat_events(1 << 16), map_events(1 << 16);
  flat_bus.add_sink(flat_events);
  map_bus.add_sink(map_events);
  const Duration cadence = Duration::millis(1);
  TraceThroughputSampler flat(flat_bus, cadence, watch, /*quiescence_ok=*/true);
  MapSampler reference(map_bus, cadence, watch);
  CountingObserver probe(/*compatible=*/true);
  f.net->add_observer(flat);
  f.net->add_observer(reference);
  f.net->add_observer(probe);

  f.flow(0, Bytes::mega(12.5), JobId{7});
  f.flow(1, Bytes::mega(6.25), JobId{});  // background: no job
  f.sim.run_for(Duration::micros(2370));
  // Starts mid-window, with an id below the job already on the link.
  f.flow(0, Bytes::mega(6.25), JobId{2});
  f.sim.run_for(Duration::micros(9630));  // drains, then idles to 12 ms
  f.flow(1, Bytes::mega(6.25), JobId{4});
  f.sim.run_for(Duration::millis(8));
  f.net->flush_observers();
  EXPECT_GT(probe.gaps, 0);  // idle stretches were fast-forwarded

  const std::vector<TraceEvent> got = flat_events.events();
  const std::vector<TraceEvent> want = map_events.events();
  // The run reached what it is meant to cover: every sampled link, and the
  // bottleneck's unattributed, early, late-starting and last jobs.
  std::map<std::int32_t, std::set<std::int32_t>> jobs_by_link;
  std::map<std::int32_t, int> unattributed;  // link totals + -1 shares
  for (const TraceEvent& ev : want) {
    if (ev.kind != TraceEventKind::kLinkThroughput) continue;
    jobs_by_link[ev.link.value].insert(ev.job.value);
    if (!ev.job.valid()) ++unattributed[ev.link.value];
  }
  std::set<std::int32_t> sampled;
  for (const auto& [link, jobs] : jobs_by_link) sampled.insert(link);
  EXPECT_EQ(sampled, (std::set<std::int32_t>{0, 2, 4, 6, 8, 9}));
  EXPECT_EQ(jobs_by_link[0], (std::set<std::int32_t>{-1, 2, 4, 7}));
  // The watched idle link reports totals only; the bottleneck also reports
  // the background flow's share in every batch.
  EXPECT_EQ(jobs_by_link[9], (std::set<std::int32_t>{-1}));
  EXPECT_EQ(unattributed[0], 2 * unattributed[9]);

  ASSERT_EQ(flat_events.dropped(), 0u);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_GT(got.size(), 20u * 6u);  // 20 batches over 6 sampled links
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].time, want[i].time) << "event " << i;
    ASSERT_EQ(got[i].kind, want[i].kind) << "event " << i;
    ASSERT_EQ(got[i].link, want[i].link) << "event " << i;
    ASSERT_EQ(got[i].job, want[i].job) << "event " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].value),
              std::bit_cast<std::uint64_t>(want[i].value))
        << "event " << i;
  }
}

}  // namespace
}  // namespace ccml
