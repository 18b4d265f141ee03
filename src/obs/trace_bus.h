// The central observability bus.
//
// Producers (Network, congestion-control policies, TrainingJob, the fault
// injector, the scenario/experiment harnesses) publish typed TraceEvents to
// one TraceBus; sinks subscribe and serialize or aggregate them.  The bus is
// deliberately dumb: a non-owning sink list, an inline fan-out loop, and a
// name->Counter/Gauge registry — all deterministic (registries are ordered
// maps, events are delivered in emission order), so traces are byte-stable
// across runs and across SweepRunner thread counts.
//
// Sink contract: besides receiving events, a sink *declares* what sampling
// it needs.  `sample_cadence()` > 0 asks for integrated per-link
// kLinkThroughput/kLinkQueue series at that period (produced by telemetry's
// TraceThroughputSampler, which the scenario layer attaches when any sink
// asks); `sampled_links()` names links to sample even while idle; and
// `quiescence_compatible()` states whether the sink's output is well-defined
// across idle fast-forward gaps (see NetObserver in net/network.h).  All
// built-in sinks are quiescence-compatible, so instrumented runs keep the
// kernel's idle fast-forward.
//
// Cost when unobserved: producers guard emission on Network::trace_bus()
// being non-null, so an un-instrumented run does no observability work at
// all (simbench's untraced dumbbell-zoo workload, gated by tools/ab_gate.py,
// covers it; numbers in docs/observability.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace_event.h"
#include "util/spsc_ring.h"
#include "util/time.h"

namespace ccml {

class TraceBus;

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Receives every event published on the bus, in emission order.
  virtual void on_event(const TraceEvent& ev) = 0;

  /// Sampling period the sink wants for integrated link series
  /// (kLinkThroughput / kLinkQueue); zero = no sampling needed.
  virtual Duration sample_cadence() const { return Duration::zero(); }

  /// Links the sink wants sampled even while they carry no flows (e.g. a
  /// recorder watching a specific bottleneck).  Links in use are always
  /// sampled; this only forces idle ones into the series.
  virtual std::vector<LinkId> sampled_links() const { return {}; }

  /// True when the sink's output is identical whether idle stretches are
  /// stepped through or fast-forwarded (all built-in sinks are; see the
  /// NetObserver contract in net/network.h).
  virtual bool quiescence_compatible() const { return true; }

  /// Called when the sink is added to a bus (sinks that render job names or
  /// read counters keep the pointer).
  virtual void attached(TraceBus& bus) { (void)bus; }

  /// Finalizes output (writes trailing structure, flushes streams).  Called
  /// by TraceBus::flush() after the run.
  virtual void flush() {}
};

/// How the async trace path reacts when the SPSC ring is full.
enum class TraceOverflowPolicy {
  /// Producer waits for the consumer to free a slot: lossless, keeps traces
  /// byte-identical to synchronous delivery, but the sim can stall on slow
  /// sink I/O.  The default, because determinism is this repo's contract.
  kBlock,
  /// Producer drops the event and counts it: the sim never stalls (the
  /// real-time-safe choice), at the cost of holes in the trace.  Drops are
  /// reported via the `trace.dropped_events` counter and a trailing
  /// kTraceDrops event.
  kDropNewest,
};

struct TraceAsyncOptions {
  /// Ring capacity in events (rounded up to a power of two).
  std::size_t capacity = 1 << 16;
  TraceOverflowPolicy overflow = TraceOverflowPolicy::kBlock;
};

class TraceBus {
 public:
  TraceBus() = default;
  TraceBus(const TraceBus&) = delete;
  TraceBus& operator=(const TraceBus&) = delete;
  ~TraceBus() { stop_async(); }

  /// Subscribes `sink` (non-owning; must outlive the bus's use).  Must not
  /// be called while the async consumer is running.
  void add_sink(TraceSink& sink);

  bool has_sinks() const { return !sinks_.empty(); }

  /// Fans `ev` out to every sink, in subscription order.  With the async
  /// path active the event is instead enqueued on the SPSC ring — one
  /// relaxed load and a release store on the steady path — and the consumer
  /// thread performs the identical fan-out in FIFO (= emission) order, so
  /// sink output stays byte-identical to synchronous delivery.
  void emit(const TraceEvent& ev) {
    if (ring_) [[unlikely]] {
      emit_async(ev);
      return;
    }
    for (TraceSink* s : sinks_) s->on_event(ev);
  }

  // --- Async (lock-free SPSC) delivery ------------------------------------

  /// Moves event delivery onto a consumer thread fed by a lock-free SPSC
  /// ring.  Call from the emitting thread before the run; only that one
  /// thread may emit until stop_async().  No-op if already started.
  void start_async(TraceAsyncOptions opts = {});

  /// Drains the ring completely, joins the consumer thread, and — when the
  /// overflow policy dropped events — bumps `trace.dropped_events` and
  /// delivers one trailing kTraceDrops event (after everything drained, so
  /// ordering invariants hold).  Safe to call when async is not active.
  void stop_async();

  bool async_active() const { return ring_ != nullptr; }

  /// Producer-side barrier: returns once every event emitted so far has been
  /// fanned out to the sinks by the consumer thread.  Synchronous delivery
  /// makes this a no-op.  Used by the checkpoint layer, which must know the
  /// sinks' byte position at the snapshot instant; events dropped by the
  /// kDropNewest policy never reach the sinks and are not waited for (the
  /// checkpoint layer refuses drop mode outright for exactly that reason).
  void sync() {
    if (!ring_) return;
    while (consumed_.load(std::memory_order_acquire) < produced_) {
      std::this_thread::yield();
    }
  }

  /// Events discarded by TraceOverflowPolicy::kDropNewest so far.
  std::uint64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Finalizes every sink's output.  Call once after the run (the CLI and
  /// the scenario harnesses do).  Stops the async path first so every
  /// enqueued event reaches the sinks before their flush().
  void flush() {
    stop_async();
    for (TraceSink* s : sinks_) s->flush();
  }

  /// Minimum positive cadence any sink declared; zero when no sink samples.
  Duration sample_cadence() const;

  /// Sorted union of every sink's sampled_links().
  std::vector<LinkId> sampled_links() const;

  /// True when every sink tolerates idle fast-forward.
  bool sinks_quiescence_compatible() const;

  // --- Job-name registry (for human-readable sink output) ------------------
  // Mutex-guarded: the orchestrator registers jobs mid-run on the emitting
  // thread while sinks resolve names on the async consumer thread.  The
  // lock is uncontended per-event and entirely off the simulation hot path
  // (producers never call job_name).

  void register_job(JobId id, std::string name);
  /// Registered display name, or nullptr when the job is unknown.  The
  /// pointer stays valid for the bus's lifetime (names are never removed).
  const std::string* job_name(JobId id) const;

  // --- Counter / Gauge registry -------------------------------------------

  /// Returns the named counter, creating it on first use.  The reference is
  /// stable for the bus's lifetime — producers cache it.
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }

  /// Human-readable dump of every non-zero counter and every gauge (the
  /// CLI's run-summary block).
  std::string metrics_summary() const;

 private:
  /// Out of line so emit() inlines to a null check plus the direct fan-out.
  void emit_async(const TraceEvent& ev);
  void consume_loop();

  std::vector<TraceSink*> sinks_;
  mutable std::mutex job_names_mu_;
  std::unordered_map<std::int32_t, std::string> job_names_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;

  // Async path state.  `ring_` doubles as the "async active" flag; the
  // producer-side members (overflow_, last_emit_time_, dropped_) are only
  // written by the emitting thread.
  std::unique_ptr<SpscRing<TraceEvent>> ring_;
  std::thread consumer_;
  std::atomic<bool> stop_flag_{false};
  std::atomic<std::uint64_t> dropped_{0};
  /// Events successfully enqueued (producer-owned) vs. fanned out by the
  /// consumer; sync() spins on their difference.
  std::uint64_t produced_ = 0;
  std::atomic<std::uint64_t> consumed_{0};
  TraceOverflowPolicy overflow_ = TraceOverflowPolicy::kBlock;
  TimePoint last_emit_time_;
};

}  // namespace ccml
