// Layer probes: forwarding decorators around the simulator's public
// interfaces, so per-layer host time is measured from outside src/.
//
//  * TimedPolicy  — wraps a BandwidthPolicy (the cc layer).  Installed through
//                   ScenarioConfig::instrument + Network::replace_policy.
//  * TimedSink    — wraps a TraceSink (the obs layer).
//  * OrchClockSink — a TraceSink that stamps host time on every event and
//                   charges the intervals around orchestrator decisions to
//                   the orch layer.
//
// Every decorator forwards every virtual of the interface it wraps, so a
// decorated run must produce the same simulated outputs as an undecorated
// one; the benchmark checks that on every traced run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/policy.h"
#include "obs/trace_bus.h"

namespace simbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t elapsed_ns(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Host time an empty timed span reads (the clock's own cost inside a span),
/// median of many; subtracted per span from layers timed per fluid tick.
inline double clock_overhead_ns() {
  std::vector<std::uint64_t> v(4001);
  for (std::uint64_t& x : v) {
    const auto t0 = Clock::now();
    x = elapsed_ns(t0, Clock::now());
  }
  std::nth_element(v.begin(), v.begin() + 2000, v.end());
  return static_cast<double>(v[2000]);
}

/// Busy-waits `ns` nanoseconds (the planted slowdown of the attribution
/// self-test; never used in a normal run).
inline void spin_ns(std::uint64_t ns) {
  const auto until = Clock::now() + std::chrono::nanoseconds(ns);
  while (Clock::now() < until) {
  }
}

/// Which probed layer is currently on the stack, so a sink called from inside
/// a policy (rate events are emitted from the cc kernels) is charged to obs
/// and subtracted from cc's self time.
struct LayerStack {
  bool in_cc = false;
  int sink_depth = 0;  ///< TimedSink calls on the stack (chained sinks nest)
  std::uint64_t obs_ns_inside_cc = 0;
};

struct CcCounters {
  std::uint64_t ns = 0;     ///< inclusive host time in the policy
  std::uint64_t spans = 0;  ///< timed policy calls
  std::uint64_t calls = 0;  ///< update_rates + update_rates_burst calls
  std::uint64_t ticks = 0;  ///< fluid steps computed (a burst counts each)
  std::uint64_t burst_ticks = 0;
};

class TimedPolicy final : public ccml::BandwidthPolicy {
 public:
  /// `plant` > 0 busy-waits that fraction of each timed call's duration
  /// inside the timed region (attribution self-test only).
  TimedPolicy(std::unique_ptr<ccml::BandwidthPolicy> inner, CcCounters& out,
              LayerStack& stack, double plant)
      : inner_(std::move(inner)), out_(out), stack_(stack), plant_(plant) {}

  const char* name() const override { return inner_->name(); }

  void on_flow_started(ccml::Network& net, ccml::Flow& flow) override {
    timed([&] { inner_->on_flow_started(net, flow); });
  }
  void on_flow_finished(ccml::Network& net, const ccml::Flow& flow) override {
    timed([&] { inner_->on_flow_finished(net, flow); });
  }
  void on_link_capacity_changed(ccml::Network& net,
                                ccml::LinkId link) override {
    timed([&] { inner_->on_link_capacity_changed(net, link); });
  }
  void update_rates(ccml::Network& net, ccml::TimePoint now,
                    ccml::Duration dt) override {
    ++out_.calls;
    ++out_.ticks;
    timed([&] { inner_->update_rates(net, now, dt); });
  }
  void update_rates_burst(ccml::Network& net, ccml::TimePoint first,
                          ccml::Duration dt, std::uint64_t ticks) override {
    ++out_.calls;
    out_.ticks += ticks;
    out_.burst_ticks += ticks;
    timed([&] { inner_->update_rates_burst(net, first, dt, ticks); });
  }
  double rate_bound_bps(const ccml::Network& net,
                        std::uint32_t slot) const override {
    return inner_->rate_bound_bps(net, slot);
  }
  bool quiescent() const override { return inner_->quiescent(); }
  ccml::Bytes link_queue(ccml::LinkId link) const override {
    return inner_->link_queue(link);
  }
  std::string serialize_state() const override {
    return inner_->serialize_state();
  }

 private:
  template <class F>
  void timed(F&& f) {
    ++out_.spans;
    const auto t0 = Clock::now();
    stack_.in_cc = true;
    f();
    stack_.in_cc = false;
    if (plant_ > 0.0) {
      spin_ns(static_cast<std::uint64_t>(
          plant_ * static_cast<double>(elapsed_ns(t0, Clock::now()))));
    }
    out_.ns += elapsed_ns(t0, Clock::now());
  }

  std::unique_ptr<ccml::BandwidthPolicy> inner_;
  CcCounters& out_;
  LayerStack& stack_;
  double plant_;
};

struct SinkCounters {
  std::uint64_t ns = 0;  ///< inclusive host time in on_event + flush
  std::uint64_t events = 0;
  std::uint64_t rate_timer_events = 0;
};

class TimedSink final : public ccml::TraceSink {
 public:
  TimedSink(ccml::TraceSink& inner, SinkCounters& out, LayerStack& stack)
      : inner_(inner), out_(out), stack_(stack) {}

  void on_event(const ccml::TraceEvent& ev) override {
    ++out_.events;
    if (ev.kind == ccml::TraceEventKind::kRateTimer) ++out_.rate_timer_events;
    timed([&] { inner_.on_event(ev); });
  }
  ccml::Duration sample_cadence() const override {
    return inner_.sample_cadence();
  }
  std::vector<ccml::LinkId> sampled_links() const override {
    return inner_.sampled_links();
  }
  bool quiescence_compatible() const override {
    return inner_.quiescence_compatible();
  }
  void attached(ccml::TraceBus& bus) override { inner_.attached(bus); }
  void flush() override {
    timed([&] { inner_.flush(); });
  }

 private:
  template <class F>
  void timed(F&& f) {
    const auto t0 = Clock::now();
    ++stack_.sink_depth;
    f();
    --stack_.sink_depth;
    const std::uint64_t ns = elapsed_ns(t0, Clock::now());
    out_.ns += ns;
    // Only the outermost sink of a chain reports to cc; inner ones are
    // already inside its interval.
    if (stack_.in_cc && stack_.sink_depth == 0) stack_.obs_ns_inside_cc += ns;
  }

  ccml::TraceSink& inner_;
  SinkCounters& out_;
  LayerStack& stack_;
};

struct OrchCounters {
  std::uint64_t decide_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t rate_timer_events = 0;
};

/// Charges to the orch layer every host-time interval between consecutive
/// bus events that starts at a job-submit, admit, reject, depart or solve
/// event, or ends at an admit or solve event (admission scoring and gate
/// re-solving run just before those two are emitted).  Producers emit
/// flow, phase and rate events every few fluid steps, so an interval that
/// spans plain simulation is short.
class OrchClockSink final : public ccml::TraceSink {
 public:
  explicit OrchClockSink(OrchCounters& out) : out_(out) {}

  void on_event(const ccml::TraceEvent& ev) override {
    const auto now = Clock::now();
    ++out_.events;
    if (ev.kind == ccml::TraceEventKind::kRateTimer) ++out_.rate_timer_events;
    const bool ends_decision = ev.kind == ccml::TraceEventKind::kJobAdmit ||
                               ev.kind == ccml::TraceEventKind::kSolve;
    if (seen_ && (prev_is_decision_ || ends_decision)) {
      out_.decide_ns += elapsed_ns(prev_, now);
    }
    seen_ = true;
    prev_ = now;
    prev_is_decision_ = ends_decision ||
                        ev.kind == ccml::TraceEventKind::kJobSubmit ||
                        ev.kind == ccml::TraceEventKind::kJobReject ||
                        ev.kind == ccml::TraceEventKind::kJobDepart;
  }

 private:
  OrchCounters& out_;
  bool seen_ = false;
  bool prev_is_decision_ = false;
  Clock::time_point prev_;
};

}  // namespace simbench
