// Micro-benchmarks (google-benchmark): fluid-engine throughput — simulated
// seconds per wall second for the policies, and water-fill allocation cost
// on a populated leaf-spine fabric.
#include <benchmark/benchmark.h>

#include <utility>

#include "cc/factory.h"
#include "cc/water_fill.h"
#include "cluster/scenario.h"
#include "net/network.h"
#include "sim/simulator.h"

using namespace ccml;

namespace {

constexpr double kSimSeconds = 4.0;

void run_policy_benchmark(benchmark::State& state, PolicyKind kind) {
  const auto dlrm = *ModelZoo::calibrated("DLRM", 2000);
  for (auto _ : state) {
    ScenarioConfig cfg;
    cfg.policy = kind;
    cfg.duration = Duration::seconds(static_cast<int>(kSimSeconds));
    cfg.warmup_iterations = 0;
    const auto r = run_dumbbell_scenario({{"J1", dlrm}, {"J2", dlrm}}, cfg);
    benchmark::DoNotOptimize(r.jobs[0].iterations);
  }
  state.counters["sim_s_per_iter"] = kSimSeconds;
  state.counters["sim_s_per_wall_s"] = benchmark::Counter(
      kSimSeconds, benchmark::Counter::kIsIterationInvariantRate);
}

void BM_EngineDcqcn(benchmark::State& state) {
  run_policy_benchmark(state, PolicyKind::kDcqcn);
}
BENCHMARK(BM_EngineDcqcn)->Unit(benchmark::kMillisecond);

void BM_EngineMaxMin(benchmark::State& state) {
  run_policy_benchmark(state, PolicyKind::kMaxMinFair);
}
BENCHMARK(BM_EngineMaxMin)->Unit(benchmark::kMillisecond);

void BM_EnginePriority(benchmark::State& state) {
  run_policy_benchmark(state, PolicyKind::kPriority);
}
BENCHMARK(BM_EnginePriority)->Unit(benchmark::kMillisecond);

void BM_WaterFill(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  const Topology topo =
      Topology::leaf_spine(4, 8, 4, Rate::gbps(50), Rate::gbps(100));
  Simulator sim;
  Network net(topo, make_policy(PolicyKind::kMaxMinFair), {});
  net.attach(sim);
  const Router router(topo);
  const auto hosts = topo.hosts();
  for (int i = 0; i < flows; ++i) {
    FlowSpec fs;
    fs.src = hosts[i % hosts.size()];
    fs.dst = hosts[(i * 7 + 11) % hosts.size()];
    if (fs.src == fs.dst) fs.dst = hosts[(i + 1) % hosts.size()];
    fs.route = router.pick(fs.src, fs.dst, i);
    if (fs.route.empty()) continue;
    fs.size = Bytes::giga(1);
    net.start_flow(std::move(fs));
  }
  const auto slots = net.active_slots();
  for (auto _ : state) {
    auto residual = full_residual(net);
    auto rates = water_fill(net, slots, residual);
    benchmark::DoNotOptimize(rates.size());
  }
}
BENCHMARK(BM_WaterFill)->Arg(8)->Arg(32)->Arg(128);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int fired = 0;
    for (int i = 0; i < 10'000; ++i) {
      sim.schedule_at(TimePoint::from_ns(i * 100), [&fired] { ++fired; });
    }
    sim.run_until(TimePoint::from_ns(10'000 * 100));
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventQueueChurn)->Unit(benchmark::kMillisecond);

}  // namespace
