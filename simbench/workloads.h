// The benchmark's four workloads.  Each builds its inputs from the seed,
// splits its work into units (one simulation run each) and runs a unit in
// one of three modes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probes.h"

namespace simbench {

enum class Mode {
  kPlain,    ///< the simulation with nothing attached
  kProduct,  ///< what the workload's users run (dumbbell-jsonl: + JSONL trace)
  kProbed,   ///< kProduct with the benchmark's layer probes attached
};

/// Deterministic outputs of one unit: a pure function of the inputs.
struct SimOutcome {
  std::string fingerprint;   ///< full-precision digest of the results
  std::string trace_digest;  ///< run-health report + trace size (JSONL only)
  double sim_s = 0.0;
  double slowdown_sum = 0.0;  ///< per-job slowdown vs a dedicated network
  std::size_t slowdown_n = 0;
  std::uint64_t iterations = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  double queue_delay_ms = 0.0;  ///< mean over admitted jobs
  std::uint64_t lookups = 0;    ///< resolver group lookups and hits
  std::uint64_t hits = 0;
  std::uint64_t component_lookups = 0;
  std::uint64_t component_hits = 0;
  std::uint64_t nodes = 0;
  std::uint64_t trace_bytes = 0;
  std::string error;  ///< non-empty when an output check failed
};

/// Host-side costs of one unit (nondeterministic).
struct HostCost {
  CcCounters cc;
  LayerStack stack;
  OrchCounters orch;
  std::uint64_t link_solve_us = 0;  ///< ResolveStats::wall_micros
  SinkCounters engine;  ///< analytics engine, including its chained output
  SinkCounters jsonl;
};

struct UnitRun {
  SimOutcome sim;
  HostCost host;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every input of the workload from `seed` (timed as set-up).
  virtual void setup(std::uint64_t seed) = 0;
  virtual std::size_t units() const = 0;
  /// Runs one unit.  `plant` > 0 installs the cc probe in every mode with a
  /// busy-wait of that fraction of each policy call (attribution self-test).
  /// `deep_check` adds checks too costly for every repetition.  Throws on
  /// simulator errors.
  virtual UnitRun run(std::size_t unit, Mode mode, double plant,
                      bool deep_check) = 0;
  /// Whether `deep_check` adds anything, so a benchmark run needs a
  /// deep-check round.
  virtual bool has_deep_checks() const { return false; }
  /// The modes a traced benchmark run runs each unit in, in this order.
  virtual std::vector<Mode> traced_modes() const {
    return {Mode::kProduct, Mode::kProbed};
  }
};

std::unique_ptr<Workload> make_workload(const std::string& name);
/// Names make_workload accepts.
const std::vector<std::string>& workload_names();

/// FNV-1a over `n` bytes, continuing from `h` (fingerprints only).
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ull);

/// Mean error, in percent, of DCQCN unfair iteration times against the
/// paper's Table-1 unfair column (held out from calibration), with the
/// seed's start offsets.
double table1_unfair_error_pct(std::uint64_t seed);

}  // namespace simbench
