// simbench: the repository benchmark's measuring program (see README.md).
//
//   simbench --workload NAME --seed N --seconds S --trace 0|1 [--plant-cc F]
//
// --trace 0 measures the end-to-end metrics with nothing attached to the
// simulator; --trace 1 runs every unit unprobed and probed, back to back,
// and reports the per-layer metrics.  Either way every simulated output is
// checked, and the last line of stdout is one JSON object with the result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "workloads.h"

#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
#define SIMBENCH_UNOPTIMISED 1
#endif

namespace simbench {
namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--plant-cc FRACTION]\n",
               msg);
  std::exit(2);
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The host-speed probe's time on the reference host (README.md, Baseline);
/// host times are reported scaled to it.
constexpr double kProbeRefS = 400e-6;

volatile std::uint64_t g_probe_sink;

/// Host-speed probe, benchmark code only: 800 snprintf("%.17g") calls, a
/// branchy mix of integer arithmetic, table lookups and calls much like the
/// simulator's own code.  On a shared host the simulator slows by tens of
/// percent for minutes at a time while other tenants load the same cores;
/// the probe slows in step, so a host time divided by the probe times around
/// it cancels most of that noise.  Of the kernels tried (README.md, Metrics)
/// this one tracked every workload best.
double probe_s() {
  const auto t0 = Clock::now();
  char buf[32];
  double v = 0.1;
  std::uint64_t acc = 0;
  for (int i = 0; i < 800; ++i) {
    v = v * 1.0000001 + 0.37;
    acc += static_cast<std::uint64_t>(std::snprintf(buf, sizeof buf, "%.17g", v));
  }
  g_probe_sink = acc;
  return seconds_since(t0);
}

/// Host costs of one round, summed over its units.  Times are in
/// milliseconds at the reference probe speed (each unit scaled by the probes
/// taken around it), so rounds run during slow host phases stay comparable.
struct RoundTotals {
  double ref_ms = 0.0;
  double cc_ms = 0.0;  ///< policy self time: minus nested sinks and clock cost
  double decide_ms = 0.0;
  double link_solve_ms = 0.0;
  double sinks_ms = 0.0;  ///< outermost trace sink, including chained ones
                          ///< (both minus the clock's cost per span)
  double jsonl_ms = 0.0;
  double cc_calls = 0.0, cc_ticks = 0.0, cc_burst_ticks = 0.0;
  double events = 0.0, rate_timer_events = 0.0;

  void add(double wall_s, double scale, const HostCost& h, double span_ns) {
    const auto ms = [scale](double ns) { return ns * 1e-6 * scale; };
    ref_ms += wall_s * 1e3 * scale;
    cc_ms += ms(static_cast<double>(h.cc.ns - h.stack.obs_ns_inside_cc) -
                span_ns * static_cast<double>(h.cc.spans));
    decide_ms += ms(static_cast<double>(h.orch.decide_ns));
    link_solve_ms += ms(1e3 * static_cast<double>(h.link_solve_us));
    // The chained JSONL decorator's two clock reads run inside the outer
    // (engine) span.
    const double outer_spans = static_cast<double>(h.engine.events);
    const double inner_spans = static_cast<double>(h.jsonl.events);
    sinks_ms += ms(static_cast<double>(h.engine.ns) -
                   span_ns * (outer_spans + 2.0 * inner_spans));
    jsonl_ms += ms(static_cast<double>(h.jsonl.ns) - span_ns * inner_spans);
    cc_calls += static_cast<double>(h.cc.calls);
    cc_ticks += static_cast<double>(h.cc.ticks);
    cc_burst_ticks += static_cast<double>(h.cc.burst_ticks);
    events += static_cast<double>(h.engine.events + h.orch.events);
    rate_timer_events += static_cast<double>(h.engine.rate_timer_events +
                                             h.orch.rate_timer_events);
  }
};

const char* to_string(Mode m) {
  switch (m) {
    case Mode::kPlain: return "plain";
    case Mode::kProduct: return "product";
    case Mode::kProbed: return "probed";
  }
  return "?";
}

class Bench {
 public:
  Bench(Workload& wl, double plant)
      : wl_(wl), plant_(plant), span_ns_(clock_overhead_ns()) {}

  /// Runs every unit once in each of `modes`, a unit's modes back to back so
  /// that they see the same host load; returns the round's totals per mode
  /// and checks each run's outputs against the unit's first run.  A
  /// deep-check round's host times are not counted in `sim_s_per_wall_s`.
  std::vector<RoundTotals> round(const std::vector<Mode>& modes,
                                 bool deep_check) {
    std::vector<RoundTotals> totals(modes.size());
    for (std::size_t u = 0; u < wl_.units(); ++u) {
      for (std::size_t k = 0; k < modes.size(); ++k) {
        const Mode mode = modes[k];
        ++attempted_;
        std::string error;
        try {
          const double probe_before = probe_s();
          const auto t0 = Clock::now();
          UnitRun run = wl_.run(u, mode, plant_, deep_check);
          const double wall = seconds_since(t0);
          const double probe = 0.5 * (probe_before + probe_s());
          probes_.push_back(probe);
          const double scale = kProbeRefS / probe;
          error = run.sim.error.empty() ? compare(u, mode, run.sim)
                                        : run.sim.error;
          if (mode == Mode::kProduct && !deep_check) {
            walls_[u].push_back(wall * scale);
          }
          RoundTotals unit;
          unit.add(wall, scale, run.host, span_ns_);
          if (mode == Mode::kProbed) last_probed_[u] = unit;
          totals[k].add(wall, scale, run.host, span_ns_);
        } catch (const std::exception& e) {
          error = std::string("exception: ") + e.what();
        }
        if (!error.empty()) {
          ++failed_;
          std::printf("FAIL unit %zu (%s): %s\n", u, to_string(mode),
                      error.c_str());
        }
      }
    }
    return totals;
  }

  /// One line per unit of the last probed round (small workloads only).
  void print_probed_units() const {
    if (last_probed_.size() > 8) return;
    for (const auto& [u, t] : last_probed_) {
      std::printf("probed unit %zu (reference ms): host %.1f, cc %.1f, "
                  "orch.decide %.1f, core.link_solve %.1f, obs sinks %.1f\n",
                  u, t.ref_ms, t.cc_ms, t.decide_ms, t.link_solve_ms,
                  t.sinks_ms);
    }
  }

  double span_ns() const { return span_ns_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::map<std::size_t, SimOutcome>& reference() const {
    return reference_;
  }

  /// Σ simulated seconds / Σ per-unit median host seconds (at reference
  /// probe speed) over the timed product rounds, warm-up excluded.
  double sim_s_per_wall_s() const {
    double sim = 0.0, wall = 0.0;
    for (const auto& [u, ref] : reference_) {
      const auto it = walls_.find(u);
      if (it == walls_.end() || it->second.size() < 2) continue;
      sim += ref.sim_s;
      wall += median({it->second.begin() + 1, it->second.end()});
    }
    return ratio(sim, wall);
  }

  /// One line per unit: median reference seconds and, for the orchestrator,
  /// its solver work (small workloads only).
  void print_units() const {
    if (reference_.size() > 8) return;
    for (const auto& [u, ref] : reference_) {
      const auto it = walls_.find(u);
      if (it == walls_.end() || it->second.size() < 2) continue;
      std::printf("unit %zu: %.3f s at reference speed (best %.3f), %llu "
                  "component solves, %llu DFS nodes\n",
                  u, median({it->second.begin() + 1, it->second.end()}),
                  *std::min_element(it->second.begin() + 1, it->second.end()),
                  static_cast<unsigned long long>(ref.component_lookups -
                                                  ref.component_hits),
                  static_cast<unsigned long long>(ref.nodes));
    }
  }

  /// Host speed relative to the reference host (> 1 = faster), from every
  /// probe taken so far.
  double host_speed() const { return ratio(kProbeRefS, median(probes_)); }

 private:
  /// Simulated outputs must not depend on the mode or the repetition.
  std::string compare(std::size_t u, Mode mode, const SimOutcome& sim) {
    const auto [it, first] = reference_.emplace(u, sim);
    if (first) return {};
    const SimOutcome& ref = it->second;
    if (sim.fingerprint != ref.fingerprint) {
      return "simulated results differ from the reference run";
    }
    if (mode != Mode::kPlain && sim.trace_digest != ref.trace_digest) {
      return "trace or run-health report differs from the reference run";
    }
    return {};
  }

  Workload& wl_;
  double plant_;
  std::map<std::size_t, SimOutcome> reference_;  ///< first run of each unit
  std::map<std::size_t, std::vector<double>> walls_;  ///< reference seconds
  std::map<std::size_t, RoundTotals> last_probed_;
  double span_ns_;  ///< clock cost inside one timed span
  std::vector<double> probes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set of this program in MB.  VmHWM, because getrusage's
/// ru_maxrss keeps the launching process's peak across exec.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-26s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[160];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

std::string fingerprint(const std::map<std::size_t, SimOutcome>& ref) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const auto& [u, s] : ref) {
    h = fnv1a(s.fingerprint.data(), s.fingerprint.size(), h);
    h = fnv1a(s.trace_digest.data(), s.trace_digest.size(), h);
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

int run(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  double plant = 0.0;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--workload") == 0) {
      workload = value();
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::atoll(value());
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = std::atof(value());
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = std::atoi(value());
    } else if (std::strcmp(argv[i], "--plant-cc") == 0) {
      plant = std::atof(value());
    } else {
      usage("unknown argument");
    }
  }
  std::unique_ptr<Workload> wl = make_workload(workload);
  if (!wl) {
    std::string names;
    for (const std::string& n : workload_names()) names += " " + n;
    usage(("unknown workload; expected one of:" + names).c_str());
  }
  if (seed < 0) usage("--seed must be a non-negative integer");
  if (!(seconds > 0.0)) usage("--seconds must be positive");
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
  if (plant < 0.0 || plant > 10.0) usage("--plant-cc must be in [0, 10]");

  std::printf("host: cpu=\"%s\" nproc=%u compiler=\"%s\" build=%s\n",
              cpu_model().c_str(), std::thread::hardware_concurrency(),
              __VERSION__, SIMBENCH_BUILD_TYPE);
#ifdef SIMBENCH_UNOPTIMISED
  std::fprintf(stderr,
               "simbench: refusing to measure an unoptimised build "
               "(needs -O2 or higher and NDEBUG)\n");
  return 3;
#endif
  std::printf("workload: %s seed=%lld seconds=%g trace=%d plant_cc=%g\n",
              workload.c_str(), seed, seconds, trace, plant);
  std::fflush(stdout);

  // Set-up: building every input from the seed.  Timed in batches of at
  // least 5 ms (one set-up takes microseconds); the median batch counts.
  std::size_t batch = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) {
      wl->setup(static_cast<std::uint64_t>(seed));
    }
    if (seconds_since(t0) >= 5e-3) break;
    batch *= 2;
  }
  std::vector<double> setups;
  const auto setup_start = Clock::now();
  while (setups.size() < 15 ||
         (setups.size() < 101 && seconds_since(setup_start) < 0.5)) {
    const double probe = probe_s();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) {
      wl->setup(static_cast<std::uint64_t>(seed));
    }
    setups.push_back(seconds_since(t0) / static_cast<double>(batch) *
                     kProbeRefS / probe);
  }

  const auto start = Clock::now();
  Bench bench(*wl, plant);
  std::vector<Metric> metrics;
  if (trace == 0) {
    bench.round({Mode::kProduct}, false);  // warm-up and reference
    // At least five timed rounds: fabric-churn's rounds take seconds each,
    // and a median of fewer swings with the host.
    int rounds = 0;
    while (rounds < 5 || seconds_since(start) < seconds) {
      bench.round({Mode::kProduct}, false);
      ++rounds;
    }
    // Read before the deep checks, whose captured trace and replay would
    // otherwise set the high-water mark.
    const double rss_mb = peak_rss_mb();
    if (wl->has_deep_checks()) bench.round({Mode::kProduct}, true);
    // Accuracy against the paper's held-out column, outside the timed rounds.
    const double table1_err =
        table1_unfair_error_pct(static_cast<std::uint64_t>(seed));
    double slow_sum = 0.0;
    std::size_t slow_n = 0;
    for (const auto& [u, s] : bench.reference()) {
      slow_sum += s.slowdown_sum;
      slow_n += s.slowdown_n;
    }
    const double attempted = static_cast<double>(bench.attempted());
    metrics = {
        {"sim_s_per_wall_s", bench.sim_s_per_wall_s(), "sim_s/s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"ok_run_share",
         ratio(attempted - static_cast<double>(bench.failed()), attempted),
         "ratio"},
        {"sim_slowdown", ratio(slow_sum, static_cast<double>(slow_n)), "x"},
        {"table1_unfair_err_pct", table1_err, "%"},
    };
    bench.print_units();
    std::printf("rounds: %d timed + 1 warm-up%s, %.2f s\n", rounds,
                wl->has_deep_checks() ? " + 1 deep check" : "",
                seconds_since(start));
  } else {
    const std::vector<Mode> modes = wl->traced_modes();
    bench.round({Mode::kProduct}, true);
    std::map<Mode, std::vector<RoundTotals>> by_mode;
    while (by_mode[Mode::kProbed].empty() || seconds_since(start) < seconds) {
      const std::vector<RoundTotals> totals = bench.round(modes, false);
      for (std::size_t k = 0; k < modes.size(); ++k) {
        by_mode[modes[k]].push_back(totals[k]);
      }
    }
    // Per-layer times are medians over the rounds of each mode, in
    // milliseconds at the reference probe speed.
    const auto med = [&](Mode m, double RoundTotals::*field) {
      std::vector<double> v;
      for (const RoundTotals& r : by_mode[m]) v.push_back(r.*field);
      return median(v);
    };
    // Shares and remainders are taken against the unprobed runs of the same
    // round (median over the rounds), so the probes' own cost is not charged
    // to the layers outside them.
    const auto paired = [&](auto f) {
      const auto& product = by_mode[Mode::kProduct];
      const auto& probed = by_mode[Mode::kProbed];
      std::vector<double> v;
      for (std::size_t i = 0; i < probed.size(); ++i) {
        v.push_back(f(product[i].ref_ms, probed[i]));
      }
      return median(v);
    };
    const bool has_plain = !by_mode[Mode::kPlain].empty();
    const double probed_ms = med(Mode::kProbed, &RoundTotals::ref_ms);
    const double product_ms = med(Mode::kProduct, &RoundTotals::ref_ms);
    const double plain_ms =
        has_plain ? med(Mode::kPlain, &RoundTotals::ref_ms) : 0.0;
    const double cc = med(Mode::kProbed, &RoundTotals::cc_ms);
    const double decide = med(Mode::kProbed, &RoundTotals::decide_ms);
    const double link_solve = med(Mode::kProbed, &RoundTotals::link_solve_ms);
    const double sinks = med(Mode::kProbed, &RoundTotals::sinks_ms);
    const double jsonl = med(Mode::kProbed, &RoundTotals::jsonl_ms);
    const RoundTotals& counts = by_mode[Mode::kProbed].front();

    double sim_s = 0.0, hits = 0.0, lookups = 0.0, chits = 0.0, clookups = 0.0;
    double nodes = 0.0, admitted = 0.0, rejected = 0.0, qdelay = 0.0;
    double iterations = 0.0, trace_bytes = 0.0;
    for (const auto& [u, s] : bench.reference()) {
      sim_s += s.sim_s;
      hits += static_cast<double>(s.hits);
      lookups += static_cast<double>(s.lookups);
      chits += static_cast<double>(s.component_hits);
      clookups += static_cast<double>(s.component_lookups);
      nodes += static_cast<double>(s.nodes);
      admitted += static_cast<double>(s.admitted);
      rejected += static_cast<double>(s.rejected);
      qdelay += s.queue_delay_ms;
      iterations += static_cast<double>(s.iterations);
      trace_bytes += static_cast<double>(s.trace_bytes);
    }
    const double n_units = static_cast<double>(bench.reference().size());
    const double ticks = counts.cc_ticks;
    metrics = {
        {"cc.ms", cc, "ms"},
        {"cc.calls", counts.cc_calls, "count"},
        {"cc.ticks", ticks, "count"},
        {"cc.fused_share", ratio(counts.cc_burst_ticks, ticks), "ratio"},
        {"cc.ns_per_tick", ratio(cc * 1e6, ticks), "ns"},
        {"cc.host_share",
         paired([](double host, const RoundTotals& r) {
           return ratio(r.cc_ms, host);
         }),
         "ratio"},
        {"cluster.rest_ms",
         paired([](double host, const RoundTotals& r) {
           return host - r.cc_ms;
         }),
         "ms"},
        {"cluster.fluid_ms",
         paired([](double host, const RoundTotals& r) {
           return host - r.decide_ms - r.sinks_ms;
         }),
         "ms"},
        {"orch.decide_ms", decide, "ms"},
        {"orch.host_share",
         paired([](double host, const RoundTotals& r) {
           return ratio(r.decide_ms, host);
         }),
         "ratio"},
        {"core.link_solve_ms", link_solve, "ms"},
        {"core.refine_ms", decide - link_solve, "ms"},
        {"core.nodes", nodes, "count"},
        {"orch.hit_rate", ratio(hits, lookups), "ratio"},
        {"orch.component_hit_rate", ratio(chits, clookups), "ratio"},
        {"orch.admitted", admitted, "count"},
        {"orch.rejected", rejected, "count"},
        {"orch.queue_delay_ms", ratio(qdelay, n_units), "sim_ms"},
        {"obs.events", counts.events, "count"},
        {"obs.rate_timer_share", ratio(counts.rate_timer_events, counts.events),
         "ratio"},
        {"obs.bytes_per_sim_s", ratio(trace_bytes, sim_s), "B/sim_s"},
        {"obs.jsonl_ms", jsonl, "ms"},
        {"obs.analytics_ms", sinks - jsonl, "ms"},
        {"obs.emit_ms", has_plain ? product_ms - plain_ms - sinks : 0.0, "ms"},
        {"obs.overhead_x", has_plain ? ratio(product_ms, plain_ms) : 0.0, "x"},
        {"obs.host_share", has_plain ? 1.0 - ratio(plain_ms, product_ms) : 0.0,
         "ratio"},
        {"workload.iterations", iterations, "count"},
        {"bench.trace_overhead_pct", 100.0 * (ratio(probed_ms, product_ms) - 1.0),
         "%"},
    };
    std::printf("clock: %.1f ns per empty span\n", bench.span_ns());
    bench.print_probed_units();
    std::printf("rounds: %zu probed + %zu product%s, %.2f s\n",
                by_mode[Mode::kProbed].size(), by_mode[Mode::kProduct].size(),
                has_plain ? " + plain" : "", seconds_since(start));
  }
  std::printf("host speed: %.4f x the reference probe speed\n",
              bench.host_speed());
  std::printf("fingerprint: %s %s\n", workload.c_str(),
              fingerprint(bench.reference()).c_str());
  // Failed runs are part of the result (correct=false), not a crash.
  print_result(bench.failed() == 0, bench.attempted(), bench.failed(),
               metrics);
  return 0;
}

}  // namespace
}  // namespace simbench

int main(int argc, char** argv) { return simbench::run(argc, argv); }
