#include "cluster/run_assembly.h"

#include <algorithm>

#include "ckpt/checkpoint.h"
#include "ckpt/snapshot.h"
#include "faults/injector.h"
#include "obs/trace_bus.h"
#include "telemetry/recorders.h"

namespace ccml {

RunAssembly::RunAssembly(const Topology& topo, PolicyKind policy,
                         const TransportConfig& transports,
                         const NetworkConfig& config, TraceBus* trace)
    : net(topo, make_policy(policy, transports), config),
      router(topo),
      trace_(trace) {
  net.attach(sim);
  if (trace_ != nullptr) sampler_ = bind_trace_bus(*trace_, net);
}

RunAssembly::~RunAssembly() = default;

void RunAssembly::trace_jobs(
    const std::vector<std::pair<std::string, Duration>>& jobs) {
  if (trace_ == nullptr) return;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobId id{static_cast<std::int32_t>(j)};
    trace_->register_job(id, jobs[j].first);
    TraceEvent ev;
    ev.time = sim.now();
    ev.kind = TraceEventKind::kSoloBaseline;
    ev.job = id;
    ev.value = jobs[j].second.to_millis();
    trace_->emit(ev);
  }
}

void RunAssembly::trace_solve(bool compatible, double violation,
                              const char* counter, const char* detail) {
  if (trace_ == nullptr) return;
  TraceEvent ev;
  ev.time = sim.now();
  ev.kind = TraceEventKind::kSolve;
  ev.value = compatible ? 1.0 : 0.0;
  ev.value2 = violation;
  ev.detail = detail;
  trace_->emit(ev);
  trace_->counter(counter).add();
}

Rate RunAssembly::host_goodput() const {
  const Topology& topo = net.topology();
  const auto hosts = topo.hosts();
  if (hosts.empty()) return Rate::zero();
  return net.effective_capacity(topo.links_from(hosts.front()).front());
}

FaultInjector& RunAssembly::inject(FaultPlan plan) {
  injector_ = std::make_unique<FaultInjector>(sim, net, std::move(plan));
  return *injector_;
}

void RunAssembly::arm_watchdog(WatchdogConfig config) {
  if (config.max_events == 0 && config.max_sim_time.is_zero()) return;
  sim.set_watchdog(config, [this] {
    std::string out = injector_ ? injector_->diagnose()
                                : std::string("fault state: none\n");
    out += "  active flows: " + std::to_string(net.active_flows().size()) +
           ", parked: " + std::to_string(net.parked_flows().size()) + "\n";
    return out;
  });
}

void RunAssembly::install_checkpoint(CheckpointCoordinator& ck,
                                     std::vector<Section> harness_sections,
                                     std::function<void()> on_cursor) {
  ck.add_provider("sim", [this] {
    StateBuf b;
    b.put_u64(sim.pending_events());
    return b.take();
  });
  ck.add_provider("net", [this] { return net.serialize_state(); });
  ck.add_provider("cc", [this] { return net.policy().serialize_state(); });
  for (auto& [name, capture] : harness_sections) {
    ck.add_provider(std::move(name), std::move(capture));
  }
  ck.add_provider("faults", [this] {
    return injector_ ? injector_->serialize_state() : std::string();
  });
  ck.on_cursor = std::move(on_cursor);
  ck.install(sim, trace_);
}

void RunAssembly::run_until(TimePoint end) {
  sim.run_until(end);
  net.flush_observers();
}

JobSpec ring_job_spec(const Router& router, const JobRequest& request,
                      const std::vector<NodeId>& hosts, std::size_t job) {
  JobSpec spec;
  spec.id = JobId{static_cast<std::int32_t>(job)};
  spec.name = request.name;
  spec.profile = request.profile;
  spec.paths = ring_paths(router, hosts, job);
  spec.split_bytes = false;  // ring: full wire bytes per worker path
  if (spec.paths.empty()) {
    // Network::start_flow rejects the empty route, but TrainingJob never
    // starts a flow when comm_bytes is zero.
    spec.profile.comm_bytes = Bytes::zero();
    spec.paths = {JobPath{hosts[0], hosts[0], Route{}}};
  }
  return spec;
}

Cdf steady_state_ms(const std::vector<Duration>& iterations) {
  const std::size_t skip = std::min<std::size_t>(iterations.size() / 5, 10);
  Cdf cdf;
  for (std::size_t i = skip; i < iterations.size(); ++i) {
    cdf.add(iterations[i].to_millis());
  }
  return cdf;
}

}  // namespace ccml
