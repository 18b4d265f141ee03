// The data-parallel training job state machine.
//
// Each iteration alternates a compute phase (forward pass; no network
// traffic) and a communication phase (backprop + allreduce folded together,
// per the paper's definition) during which the job's flows inject bytes.
// The iteration ends when every flow of the communication phase completes;
// the next iteration starts immediately — or, when a flow-scheduling gate is
// configured (paper §4, direction (iii)), at the next admitted slot.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/schedule.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/model_zoo.h"

namespace ccml {

/// One network path a job's communication phase uses.
struct JobPath {
  NodeId src;
  NodeId dst;
  Route route;
};

/// A time gate for the communication phase (central flow scheduling).
/// Communication may begin in the window [epoch + offset + k*period,
/// epoch + offset + k*period + window) for integer k >= 0; outside a window
/// the job waits for the next one.  A zero window degenerates to strict
/// instants.  Multi-phase jobs may carry one offset per phase in
/// `phase_offsets` (falling back to `offset` when it is empty or shorter
/// than the phase index).
struct CommGate {
  TimePoint epoch;
  Duration offset;
  Duration period;
  std::vector<Duration> phase_offsets;
  Duration window = Duration::zero();

  /// The gate for slot `k` of a solved flow schedule, anchored at the
  /// schedule's epoch.
  static CommGate from_schedule(const FlowSchedule& fs, std::size_t k) {
    const CommSlot& slot = fs.slots[k];
    return {fs.epoch, slot.start_offset, slot.period, slot.phase_offsets,
            slot.window};
  }
};

struct JobSpec {
  JobId id;
  std::string name;
  JobProfile profile;
  /// Paths used by the communication phase; all must finish to end the
  /// iteration.  Must be non-empty.
  std::vector<JobPath> paths;
  /// When true (default), profile.comm_bytes is split evenly across paths —
  /// the single-bottleneck abstraction.  When false, *each* path carries the
  /// full comm_bytes, matching ring allreduce where every worker's NIC
  /// injects the whole per-worker wire volume.
  bool split_bytes = true;
  TimePoint start = TimePoint::origin();
  int max_iterations = 0;  ///< 0 = run until simulation ends

  // Knobs forwarded to FlowSpec:
  int priority = 0;
  double weight = 1.0;
  Duration cc_timer = Duration::zero();  ///< per-flow DCQCN T override
  Rate cc_rai = Rate::zero();            ///< per-flow DCQCN R_AI override

  std::optional<CommGate> gate;

  /// Per-iteration Gaussian jitter applied to every compute phase (real
  /// jobs' step times vary with data loading, kernel scheduling, stragglers).
  /// Zero disables jitter.  The paper's abstraction assumes phases are
  /// "more or less the same" across iterations; bench/ablation_compute_jitter
  /// probes how much variation the mechanism tolerates.
  Duration compute_jitter = Duration::zero();
  std::uint64_t jitter_seed = 0;
};

class TrainingJob {
 public:
  /// Throws std::invalid_argument when `spec` is malformed (empty path list,
  /// non-positive gate period, gate window longer than the period, negative
  /// jitter or phase durations, ...).
  TrainingJob(Simulator& sim, Network& net, JobSpec spec);
  TrainingJob(const TrainingJob&) = delete;
  TrainingJob& operator=(const TrainingJob&) = delete;
  ~TrainingJob();

  /// Schedules the first compute phase at spec.start.
  void start();

  const JobSpec& spec() const { return spec_; }
  JobId id() const { return spec_.id; }

  enum class Phase {
    kIdle,
    kComputing,
    kWaitingGate,
    kCommunicating,
    kPaused,
    kDone,
  };
  Phase phase() const { return phase_; }

  // --- Fault-injection hooks (see src/faults) ------------------------------

  /// Multiplies every compute-phase duration (persistent straggler onset —
  /// distinct from the Gaussian `compute_jitter` noise).  Takes effect at
  /// the next phase start; 1.0 restores nominal speed.
  void set_compute_scale(double scale);
  double compute_scale() const { return compute_scale_; }

  /// Replaces the communication gate (solver re-solve after topology or job
  /// set changed).  Consulted at the next compute->communicate transition;
  /// a job currently waiting on the old gate re-evaluates against the new
  /// one immediately.
  void set_gate(std::optional<CommGate> gate);

  /// Suspends the job mid-run: in-flight flows are aborted and pending phase
  /// timers cancelled.  The iteration clock keeps running, so the outage
  /// shows up in the disrupted iteration's duration.  No-op when done.
  void pause();

  /// Resumes a paused job: the interrupted phase restarts from its beginning
  /// (aborted transfers are requeued in full).  No-op unless paused.
  void resume();
  bool paused() const { return phase_ == Phase::kPaused; }

  /// Permanently tears the job down mid-run (departure): aborts flows,
  /// cancels timers and marks the job done.  Completed iterations remain
  /// observable.  Idempotent.
  void stop();

  std::size_t completed_iterations() const { return iteration_times_.size(); }

  /// Wall-clock duration of each completed iteration (interpolated flow
  /// completion, not step-quantized).
  const std::vector<Duration>& iteration_times() const {
    return iteration_times_;
  }

  /// Start timestamps of each completed or in-flight iteration.
  const std::vector<TimePoint>& iteration_starts() const {
    return iteration_starts_;
  }

  /// Checkpoint capture (src/ckpt): phase machine, in-flight flow set,
  /// iteration history and the jitter RNG stream, as deterministic bytes.
  std::string serialize_state() const;

  /// Fired when max_iterations completes.
  std::function<void(const TrainingJob&)> on_done;

  /// Fired at each iteration boundary with (iteration index, duration).
  std::function<void(std::size_t, Duration)> on_iteration;

 private:
  void validate_spec() const;
  /// Publishes a kPhase event (detail = `name`, a static string) when the
  /// network carries a trace bus; no-op otherwise.
  void trace_phase(const char* name, TimePoint t, double value = 0.0);
  void begin_iteration(TimePoint t);
  void begin_phase(TimePoint t);
  void on_compute_done();
  void launch_comm_phase(TimePoint t);
  void on_flow_complete(TimePoint finish);
  void phase_done(TimePoint t);
  void finish_iteration(TimePoint t);
  void abort_live_flows();
  void cancel_pending();

  Simulator& sim_;
  Network& net_;
  JobSpec spec_;
  Rng jitter_rng_;
  std::vector<PhaseSpec> phases_;       // normalized iteration structure
  std::size_t phase_index_ = 0;         // current phase within the iteration
  Phase phase_ = Phase::kIdle;
  Phase paused_phase_ = Phase::kIdle;   // phase interrupted by pause()
  TimePoint iter_start_;
  std::size_t flows_in_flight_ = 0;
  TimePoint last_flow_finish_;
  std::vector<FlowId> live_flows_;
  std::vector<Duration> iteration_times_;
  std::vector<TimePoint> iteration_starts_;
  double compute_scale_ = 1.0;
  /// The one outstanding timer (start, compute deadline, or gate slot);
  /// tracked so pause()/stop() can cancel it.
  EventId pending_event_ = kInvalidEventId;
  bool destroyed_guard_ = false;
};

}  // namespace ccml
