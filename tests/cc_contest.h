// The dumbbell contest shared by the cc kernel tests (cc_transport_zoo_test's
// goldens, cc_kernel_parity_test's fused-vs-per-tick checks): an aggressive
// and a meek sender (the paper's Figure 1 shape) restarted over a few rounds
// across one 50 Gbps bottleneck, with optional flow sizes, an optional
// bottleneck brownout, and an optional per-tick rate recorder.
#pragma once

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cc/factory.h"
#include "net/network.h"
#include "net/routing.h"
#include "obs/sinks.h"
#include "obs/trace_bus.h"
#include "sim/simulator.h"

namespace ccml {
namespace {

inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Samples every active flow's exact rate bits after each executed step.
/// Attaching it turns fused burst stepping off.
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

struct Contest {
  int rounds = 3;  ///< one aggressive + one meek flow start every 8 ms
  Bytes aggressive_size = Bytes::mega(8);
  Bytes meek_size = Bytes::mega(8);
  Duration tail = Duration::millis(30);  ///< run time after the last round
  bool observe = true;                   ///< attach the RateRecorder
  /// Bottleneck capacity factor held over [brownout_at, +brownout_for);
  /// 1.0 schedules nothing.
  double brownout_factor = 1.0;
  Duration brownout_at = Duration::millis(10);
  Duration brownout_for = Duration::millis(3);
};

struct ContestResult {
  /// FNV-1a over every per-tick rate sample, every finish time and the full
  /// JSONL trace, in that order.
  std::uint64_t hash = 0;
  std::vector<double> samples;
  std::vector<double> finish_ms;
  std::string trace;
  /// serialize_state() 2 ms into every round (flows in flight) and at the
  /// end of the run.
  std::string cc_state;
};

inline ContestResult run_contest(std::unique_ptr<BandwidthPolicy> policy,
                                 const Contest& c = {}) {
  const Topology topo = Topology::dumbbell(2, Rate::gbps(50), Rate::gbps(50));
  const Router router(topo);
  Simulator sim;
  NetworkConfig cfg;
  cfg.step = Duration::micros(20);
  Network net(topo, std::move(policy), cfg);
  net.attach(sim);

  ContestResult out;
  std::ostringstream trace_out;
  TraceBus bus;
  JsonlSink sink(trace_out);
  bus.add_sink(sink);
  net.set_trace_bus(&bus);

  RateRecorder recorder;
  if (c.observe) net.add_observer(recorder);

  const auto hosts = topo.hosts();
  const auto start = [&](int pair, Duration timer, Rate rai, Bytes size) {
    FlowSpec fs;
    fs.src = hosts[pair * 2];
    fs.dst = hosts[pair * 2 + 1];
    fs.route = router.pick(fs.src, fs.dst, 0);
    fs.size = size;
    fs.cc_timer = timer;
    fs.cc_rai = rai;
    net.start_flow(std::move(fs), [&out](const Flow&, TimePoint t) {
      out.finish_ms.push_back(t.since_origin().to_millis());
    });
  };
  if (c.brownout_factor != 1.0) {
    // Both pairs cross the switch-to-switch link, second on every route.
    const LinkId bottleneck = router.pick(hosts[0], hosts[1], 0).links[1];
    const auto brown = [&net, bottleneck](double factor) {
      return [&net, bottleneck, factor] {
        net.set_link_capacity_factor(bottleneck, factor);
      };
    };
    sim.schedule_at(TimePoint::origin() + c.brownout_at,
                    brown(c.brownout_factor));
    sim.schedule_at(TimePoint::origin() + c.brownout_at + c.brownout_for,
                    brown(1.0));
  }
  for (int round = 0; round < c.rounds; ++round) {
    start(0, Duration::micros(55), Rate::mbps(80), c.aggressive_size);
    start(1, Duration::micros(300), Rate::mbps(40), c.meek_size);
    sim.run_for(Duration::millis(2));
    out.cc_state += net.policy().serialize_state();
    sim.run_for(Duration::millis(6));
  }
  sim.run_for(c.tail);

  bus.flush();
  out.samples = recorder.samples();
  out.trace = trace_out.str();
  out.cc_state += net.policy().serialize_state();
  std::uint64_t h = fnv1a(out.samples.data(),
                          out.samples.size() * sizeof(double));
  h = fnv1a(out.finish_ms.data(), out.finish_ms.size() * sizeof(double), h);
  out.hash = fnv1a(out.trace.data(), out.trace.size(), h);
  return out;
}

inline ContestResult run_contest(PolicyKind kind,
                                 const TransportConfig& tc = {},
                                 const Contest& c = {}) {
  return run_contest(make_policy(kind, tc), c);
}

}  // namespace
}  // namespace ccml
