// Micro-benchmarks (google-benchmark): compatibility-solver performance as
// instances grow — job count, sector count, and mixed-period LCM blow-up.
// The paper's §4 envisions the scheduler calling this solver on every
// placement decision, so it must stay in the low milliseconds.
#include <benchmark/benchmark.h>

#include "core/solver.h"

using namespace ccml;

namespace {

CommProfile job(int i, std::int64_t period_ms, double comm_fraction) {
  const auto comm =
      static_cast<std::int64_t>(static_cast<double>(period_ms) * comm_fraction);
  return CommProfile::single_phase(
      std::string("j").append(std::to_string(i)), Duration::millis(period_ms),
      Duration::millis(period_ms - comm), Rate::gbps(42.5));
}

void BM_SolverCompatibleJobs(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<CommProfile> jobs;
  for (int i = 0; i < n; ++i) {
    jobs.push_back(job(i, 900, 0.9 / n));  // jointly feasible
  }
  for (auto _ : state) {
    const SolverResult r = CompatibilitySolver().solve(jobs);
    benchmark::DoNotOptimize(r.compatible);
  }
}
BENCHMARK(BM_SolverCompatibleJobs)->DenseRange(2, 6);

void BM_SolverInfeasibleJobs(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<CommProfile> jobs;
  for (int i = 0; i < n; ++i) {
    jobs.push_back(job(i, 900, 0.6));  // wildly infeasible
  }
  SolverOptions opts;
  opts.anneal_iterations = 1000;
  for (auto _ : state) {
    const SolverResult r = CompatibilitySolver(opts).solve(jobs);
    benchmark::DoNotOptimize(r.compatible);
  }
}
BENCHMARK(BM_SolverInfeasibleJobs)->DenseRange(2, 5);

void BM_SolverSectors(benchmark::State& state) {
  const std::vector<CommProfile> jobs = {job(0, 1000, 0.45),
                                         job(1, 1000, 0.45)};
  SolverOptions opts;
  opts.sectors = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const SolverResult r = CompatibilitySolver(opts).solve(jobs);
    benchmark::DoNotOptimize(r.compatible);
  }
}
BENCHMARK(BM_SolverSectors)->Arg(90)->Arg(360)->Arg(1440);

void BM_SolverMixedPeriods(benchmark::State& state) {
  // LCM growth: periods 40/60/90 -> unified circle 360 ms.
  const std::vector<CommProfile> jobs = {job(0, 40, 0.12), job(1, 60, 0.12),
                                         job(2, 90, 0.12)};
  for (auto _ : state) {
    const SolverResult r = CompatibilitySolver().solve(jobs);
    benchmark::DoNotOptimize(r.compatible);
  }
}
BENCHMARK(BM_SolverMixedPeriods);

void BM_UnifiedCircleOverlap(benchmark::State& state) {
  const std::vector<CommProfile> jobs = {job(0, 40, 0.2), job(1, 60, 0.2),
                                         job(2, 90, 0.2)};
  const UnifiedCircle circle(jobs);
  const std::vector<Duration> rot = {Duration::millis(3), Duration::millis(17),
                                     Duration::millis(42)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(circle.overlap_fraction(rot));
  }
}
BENCHMARK(BM_UnifiedCircleOverlap);

}  // namespace
