// ccml_sim — command-line driver for the library: the paper's dumbbell
// (scenario, faults, sweep), the compatibility solver and online cluster
// (solve, cluster), trace analytics (analyze) and what-if branching from a
// checkpoint (branch).  usage() lists every command and option, and
// command_options() says what each option's value may be.
//
// Long runs can be checkpointed (--checkpoint-every) and, after a crash,
// resumed (--resume) with byte-identical output; see docs/robustness.md.
//
// Example:
//   ccml_sim scenario --policy dcqcn --seconds 20
//       --job model=DLRM,batch=2000,timer_us=55,rai_mbps=80
//       --job model=DLRM,batch=2000,timer_us=300,rai_mbps=40
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cc/policy/registry.h"
#include "ckpt/checkpoint.h"
#include "ckpt/snapshot.h"
#include "cluster/scenario.h"
#include "core/solver.h"
#include "faults/injector.h"
#include "obs/analytics/engine.h"
#include "obs/analytics/trace_reader.h"
#include "obs/sinks.h"
#include "obs/trace_bus.h"
#include "orch/orchestrator.h"
#include "sim/sweep.h"
#include "telemetry/table.h"
#include "workload/profiler.h"

using namespace ccml;

namespace {

/// Option name (without "--") -> raw value, as given on the command line.
using Options = std::map<std::string, std::string>;
/// Fault flags (kind, K=V spec) in command-line order.
using FaultArgs = std::vector<std::pair<std::string, std::string>>;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr, R"(usage: ccml_sim <command> [options]

commands:
  zoo                         list models and calibrated (model,batch) entries
  transports                  list registered transports with family,
                              admission goodput derating, MLTCP variants and
                              per-transport tunables
  profile --model M --batch B [--policy P] [--iterations N]
                              profile one job in isolation
  solve --job K=V[,K=V...] [--job ...] [--sectors N] [--capacity-gbps G]
                              compatibility of jobs on one link
       job keys: period_ms, comm_ms (or model+batch), demand_gbps
  scenario --job K=V[,K=V...] [--job ...] [--policy P] [--seconds S]
           [--flow-schedule 0|1] [--trace FILE]
           [--trace-format chrome|jsonl] [--trace-cadence-ms N]
           [--trace-async block|drop] [--health-report FILE|-] [--slo-*]
                              simulate jobs on a shared dumbbell bottleneck
       job keys: model, batch, name, compute_ms, comm_ms, timer_us,
                 rai_mbps, priority, weight, start_ms
       --flow-schedule 1 solves a CASSINI-style compatibility schedule at
       run start and gates every job with it (emits a solve event so the
       measured interleaving can be compared with the prediction)
  sweep --job K=V[,K=V...] [--job ...] --param P --values V1,V2,...
        [--policy P] [--seconds S] [--threads N (0 = all cores)]
                              run the scenario once per grid value, fanned
                              across threads; results print in grid order
       params: timer_us | rai_mbps | start_ms (applied to the first job)
               bottleneck_gbps (applied to the fabric)
  faults --job K=V[,K=V...] [--job ...] [--policy P] [--seconds S]
         [--seed N] [--flap K=V,...] [--brownout K=V,...]
         [--straggler K=V,...] [--pause K=V,...] [--depart K=V,...]
         [--arrive K=V,...]
                              scenario with scripted faults; reports per-job
                              stats, the applied events and recovery metrics
       flap keys:      at_ms, for_ms, [link]   (default link: the bottleneck
                                               cable swL->swR, both ways)
       brownout keys:  at_ms, for_ms, factor, [link]
       straggler keys: at_ms, for_ms, job, slowdown
       pause keys:     at_ms, for_ms, job
       depart keys:    at_ms, job
       arrive keys:    at_ms, job
       also accepts --trace / --trace-format / --trace-cadence-ms /
                            --trace-async / --flow-schedule /
                            --health-report / --slo-*
  cluster [--seed N] [--seconds S] [--rate JOBS_PER_MIN] [--service-s S]
          [--admission locality|compat] [--queue-cap N] [--queue-timeout-s S]
          [--workers-min N] [--workers-max N] [--tors N] [--hosts N]
          [--spines N] [--policy P] [--flow-schedule 0|1]
          [--fabric-gbps G] [--circle single|graph]
          [--flap K=V,...] [--brownout K=V,...]
                              online orchestrator: Poisson job arrivals on a
                              leaf-spine fabric, admission control, and
                              incremental gate re-solving; the report is
                              byte-deterministic for a given seed
       flap/brownout keys as above (default link: tor0->spine0)
       also accepts --trace / --trace-format / --trace-cadence-ms /
                            --trace-async / --health-report / --slo-*
  analyze FILE [--health-report FILE|-] [--slo-*]
                              replay a JSONL trace (from --trace-format
                              jsonl) through the same streaming analyzers
                              the live run uses and emit the run-health
                              report; exits 1 when an SLO check fails
  branch --from SNAPSHOT [--vary admission=locality|compat]
         [--vary transport=POLICY] [--with-flap K=V,...]
         [--with-brownout K=V,...] [--threads N (0 = all cores)]
                              fork what-if continuations from a checkpoint:
                              each branch deterministically replays the
                              recorded history to the snapshot's cursor,
                              verifies it byte-for-byte, applies its
                              variation (admission policy, transport swap,
                              extra post-cursor link faults), runs to the
                              original horizon in memory, and is diffed
                              against the unmodified baseline continuation
  policies: maxmin | wfq | priority | dcqcn | dcqcn-adaptive | timely |
            swift | bbr | table | mltcp-dcqcn | mltcp-timely | mltcp-swift
            (run `ccml_sim transports` for the catalogue; `table` needs
            --cc-policy-table FILE in the ccml-cc-table v1 format)

tracing (scenario and faults):
  --trace FILE              write a structured trace of the run (flow
                            lifecycles, job phases/iterations, DCQCN rate
                            events, faults, link series) and print run
                            metrics afterwards
  --trace-format chrome     Chrome trace_event JSON; open in Perfetto
                            (https://ui.perfetto.dev) or chrome://tracing
                            [default]
  --trace-format jsonl      one JSON object per line (machine-diffable)
  --trace-cadence-ms N      link throughput/queue sampling period
                            [default 5; 0 disables the sampled series]
  --trace-async MODE        deliver events to the sink from a consumer
                            thread fed by a lock-free SPSC ring instead of
                            inline.  MODE block: lossless (producer waits
                            when the ring is full; output byte-identical to
                            inline delivery).  MODE drop: never stalls the
                            sim; overflow is counted in trace.dropped_events
                            and reported by a trailing trace-drops event

run health (scenario, faults, cluster and analyze):
  --health-report DEST      fold the event stream through the streaming
                            analyzers (src/obs/analytics) and write a
                            run-health JSON report — iteration/queue HDR
                            percentiles, measured interleaving vs the
                            solver's prediction, Jain fairness windows,
                            anomaly events and SLO verdicts — to DEST
                            ("-" = stdout).  On live runs this chains the
                            analytics in front of any --trace sink, so
                            derived anomaly.* events also land in the trace.
  --slo-min-fairness F      fail unless every fairness window's Jain >= F
  --slo-max-slowdown F      fail when mean slowdown-vs-dedicated > F
  --slo-max-p99-ms F        fail when any job's p99 iteration > F ms
  --slo-max-anomalies N     fail when more than N anomaly events fire
  --slo-require-anomaly 1   fail unless at least one anomaly fired (fault
                            runs must detect *something*)
  any --slo-* flag implies --health-report - ; a failed check exits 1

checkpointing (scenario, faults and cluster):
  --checkpoint-every MS     take a crash-safe snapshot of the full live
                            state (clock, flows, CC state, RNG streams,
                            fault and orchestrator state) every MS of
                            simulated time; each file is self-contained,
                            CRC-guarded and atomically renamed into
                            --checkpoint-dir (ckpt_<n>.ccml + latest.ccml)
  --checkpoint-dir DIR      snapshot directory [default: checkpoints]
  --resume FILE             resume a killed run: re-issue the *identical*
                            command line plus --resume FILE.  The run is
                            replayed from t=0 to the snapshot's cursor,
                            re-captured state is verified byte-for-byte
                            against the snapshot, the trace file is cut at
                            the cursor and appended to — the final trace
                            and health report are byte-identical to an
                            uninterrupted run's.  Checkpointed traces need
                            --trace-format jsonl; --trace-async drop is
                            incompatible with checkpointing

numeric options must parse in full and lie in range:
  >= 1  --sectors --tors --hosts --spines --workers-min --workers-max
  >= 0  --threads (0 = all cores) --queue-cap --service-s
        --queue-timeout-s --trace-cadence-ms
  > 0   --capacity-gbps --fabric-gbps --rate --checkpoint-every

exit codes:
  0  success
  1  an SLO gate failed, or a faulted scenario never reconverged
  2  usage error (an option the command does not take, a value that
     does not parse in full or is out of range, an unknown choice) or
     generic runtime error
  3  watchdog tripped: the simulation wedged (SimulatorWedged)
  4  snapshot refused: corrupt, truncated, CRC mismatch, version from the
     future, or recorded by a different command line (SnapshotError)
  5  resume divergence: the replay did not byte-reproduce the snapshot
     (changed binary, changed spec, or nondeterminism) (ResumeDivergence)
)");
  std::exit(2);
}

/// Parses all of `text` as a finite number; nullopt when anything is left
/// over ("30x", "") or the value is inf/nan.
std::optional<double> full_real(const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || errno != 0 || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

/// Parses all of `text` as a base-10 integer; nullopt otherwise ("0.5").
std::optional<long long> full_int(const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(begin, &end, 10);
  if (end == begin || *end != '\0' || errno != 0) return std::nullopt;
  return v;
}

// --- Option table ------------------------------------------------------------

/// How an option's value must parse.  Numeric values must parse in full.
enum class Value { kText, kInt, kSeed, kReal, kChoice };

/// The lower bound a kInt or kReal value must meet.
enum class Bound { kNone, kNonNegative, kPositive, kAtLeastOne };

/// What one option is: its kind and its valid range or choices.
struct OptionSpec {
  Value kind = Value::kText;
  Bound bound = Bound::kNone;
  std::vector<std::string> choices = {};  ///< kChoice: the accepted values
};

using OptionTable = std::map<std::string, OptionSpec>;

OptionTable merged(std::initializer_list<OptionTable> parts) {
  OptionTable out;
  for (const OptionTable& part : parts) out.insert(part.begin(), part.end());
  return out;
}

/// Every option each command takes, repeated flags (--job, the fault flags,
/// --vary, --with-*) included, with its kind and valid range or choices.
/// main rejects any option not listed here and any value outside its spec.
const std::map<std::string, OptionTable>& command_options() {
  static const std::map<std::string, OptionTable> table = [] {
    const OptionSpec text{Value::kText};
    const OptionSpec integer{Value::kInt};
    const OptionSpec count{Value::kInt, Bound::kAtLeastOne};
    const OptionSpec non_negative_int{Value::kInt, Bound::kNonNegative};
    const OptionSpec seed{Value::kSeed};
    const OptionSpec real{Value::kReal};
    const OptionSpec non_negative{Value::kReal, Bound::kNonNegative};
    const OptionSpec positive{Value::kReal, Bound::kPositive};
    const auto one_of = [](std::vector<std::string> choices) {
      return OptionSpec{Value::kChoice, Bound::kNone, std::move(choices)};
    };
    const OptionTable transport = {{"policy", text},
                                   {"cc-policy-table", text}};
    const OptionTable trace = {{"trace", text},
                               {"trace-format", one_of({"chrome", "jsonl"})},
                               {"trace-cadence-ms", non_negative},
                               {"trace-async", one_of({"block", "drop"})}};
    const OptionTable health = {{"health-report", text},
                                {"slo-min-fairness", real},
                                {"slo-max-slowdown", real},
                                {"slo-max-p99-ms", real},
                                {"slo-max-anomalies", integer},
                                {"slo-require-anomaly", integer}};
    const OptionTable checkpoint = {{"checkpoint-every", positive},
                                    {"checkpoint-dir", text},
                                    {"resume", text}};
    const OptionTable link_faults = {{"flap", text}, {"brownout", text}};
    const OptionTable scenario =
        merged({transport, trace, health, checkpoint,
                {{"job", text}, {"seconds", integer},
                 {"flow-schedule", integer}}});
    return std::map<std::string, OptionTable>{
        {"zoo", {}},
        {"transports", {}},
        {"profile",
         {{"model", text}, {"batch", integer}, {"policy", text},
          {"iterations", integer}}},
        {"solve",
         {{"job", text}, {"sectors", count}, {"capacity-gbps", positive}}},
        {"scenario", scenario},
        {"faults", merged({scenario, link_faults,
                           {{"seed", seed}, {"straggler", text},
                            {"pause", text}, {"depart", text},
                            {"arrive", text}}})},
        {"sweep",
         {{"job", text},
          {"param", one_of({"timer_us", "rai_mbps", "start_ms",
                            "bottleneck_gbps"})},
          {"values", text}, {"policy", text}, {"seconds", integer},
          {"threads", non_negative_int}}},
        {"cluster",
         merged({transport, trace, health, checkpoint, link_faults,
                 {{"seed", seed}, {"seconds", real}, {"rate", positive},
                  {"service-s", non_negative},
                  {"admission", one_of({"locality", "compat"})},
                  {"queue-cap", non_negative_int},
                  {"queue-timeout-s", non_negative},
                  {"workers-min", count}, {"workers-max", count},
                  {"tors", count}, {"hosts", count}, {"spines", count},
                  {"flow-schedule", integer}, {"fabric-gbps", positive},
                  {"circle", one_of({"single", "graph"})}}})},
        {"analyze", health},
        {"branch",
         {{"from", text}, {"vary", text}, {"with-flap", text},
          {"with-brownout", text}, {"threads", non_negative_int}}},
    };
  }();
  return table;
}

/// Rejects (usage, exit 2) a value that does not meet `spec`; `name` is how
/// the error line names the option ("--tors", "--vary admission").
void check_value(const std::string& name, const OptionSpec& spec,
                 const std::string& value) {
  const auto bad = [&](const std::string& what) {
    usage((name + " expects " + what + ", got '" + value + "'").c_str());
  };
  if (spec.kind == Value::kChoice) {
    std::string all;
    for (const std::string& c : spec.choices) {
      if (c == value) return;
      all += (all.empty() ? "" : "|") + c;
    }
    bad("one of " + all);
  }
  if (spec.kind == Value::kSeed && (!full_int(value) || value[0] == '-')) {
    bad("a non-negative integer");
  }
  if (spec.kind != Value::kInt && spec.kind != Value::kReal) return;
  const bool integral = spec.kind == Value::kInt;
  const auto i = full_int(value);
  std::optional<double> v = full_real(value);
  if (integral && !(i && *i >= INT_MIN && *i <= INT_MAX)) v.reset();
  const bool in_range = v && (spec.bound == Bound::kNone ||
                              (spec.bound == Bound::kNonNegative && *v >= 0) ||
                              (spec.bound == Bound::kPositive && *v > 0) ||
                              (spec.bound == Bound::kAtLeastOne && *v >= 1));
  static const char* const kBoundText[] = {"", " >= 0", " > 0", " >= 1"};
  if (!in_range) {
    bad(std::string(integral ? "an integer" : "a number") +
        kBoundText[static_cast<int>(spec.bound)]);
  }
}

/// Rejects (usage, exit 2) an unknown command, any flag the command does
/// not take, and any option value that does not meet its spec.
void check_options(const std::string& cmd,
                   const std::vector<std::string>& flags,
                   const Options& opts) {
  const auto it = command_options().find(cmd);
  if (it == command_options().end()) {
    usage(("unknown command: " + cmd).c_str());
  }
  const OptionTable& table = it->second;
  for (const std::string& flag : flags) {
    if (!table.contains(flag)) {
      usage(("unknown option --" + flag + " for " + cmd).c_str());
    }
  }
  for (const auto& [key, value] : opts) {
    check_value("--" + key, table.at(key), value);
  }
}

// --- Typed option reads ------------------------------------------------------
//
// Option values stay raw text (canonical_run_spec records them verbatim);
// these read them back typed.  Command-line values passed check_options,
// and a snapshot's spec was recorded by a run whose values did.

std::string opt_text(const Options& opts, const std::string& key,
                     const std::string& fallback) {
  return opts.contains(key) ? opts.at(key) : fallback;
}

int opt_int(const Options& opts, const std::string& key, int fallback) {
  return opts.contains(key) ? static_cast<int>(full_int(opts.at(key)).value())
                            : fallback;
}

std::uint64_t opt_seed(const Options& opts, const std::string& key,
                       std::uint64_t fallback) {
  return opts.contains(key)
             ? static_cast<std::uint64_t>(full_int(opts.at(key)).value())
             : fallback;
}

double opt_real(const Options& opts, const std::string& key,
                double fallback) {
  return opts.contains(key) ? full_real(opts.at(key)).value() : fallback;
}

std::map<std::string, std::string> parse_kv(const std::string& arg) {
  std::map<std::string, std::string> out;
  std::stringstream ss(arg);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto eq = item.find('=');
    if (eq == std::string::npos) usage(("bad key=value: " + item).c_str());
    out[item.substr(0, eq)] = item.substr(eq + 1);
  }
  return out;
}

double want_num(const std::map<std::string, std::string>& kv,
                const std::string& key, std::optional<double> fallback = {}) {
  const auto it = kv.find(key);
  if (it == kv.end()) {
    if (fallback) return *fallback;
    usage(("missing job key: " + key).c_str());
  }
  const auto v = full_real(it->second);
  if (!v) {
    usage(("key " + key + " expects a number, got '" + it->second + "'")
              .c_str());
  }
  return *v;
}

JobProfile job_profile_from(const std::map<std::string, std::string>& kv) {
  const std::string model = opt_text(kv, "model", "");
  if (!model.empty()) {
    const int batch = static_cast<int>(want_num(kv, "batch", 0.0));
    if (const auto cal = ModelZoo::calibrated(model, batch)) return *cal;
    const int workers = static_cast<int>(want_num(kv, "workers", 2.0));
    return ModelZoo::analytic(model, batch, workers);
  }
  const double compute_ms = want_num(kv, "compute_ms");
  const double comm_ms = want_num(kv, "comm_ms", 0.0);
  return ModelZoo::synthetic(
      opt_text(kv, "name", "job"), Duration::from_millis_f(compute_ms),
      Rate::gbps(42.5) * Duration::from_millis_f(comm_ms));
}

// --- Checkpoint plumbing -----------------------------------------------------

/// Counts every logical byte the trace sink produces and forwards them to
/// the real file buffer — except the first `suppress` bytes, which a resume
/// replay regenerates but which are already on disk.  The count therefore
/// always means "bytes since t=0 of the run", whichever process wrote them.
class CountingBuf : public std::streambuf {
 public:
  CountingBuf(std::streambuf* dst, std::uint64_t suppress)
      : dst_(dst), suppress_(suppress) {}

  std::uint64_t logical_bytes() const { return count_; }

 protected:
  int overflow(int ch) override {
    if (ch == traits_type::eof()) return 0;
    ++count_;
    if (count_ <= suppress_) return ch;
    return dst_->sputc(static_cast<char>(ch));
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const std::uint64_t before = count_;
    count_ += static_cast<std::uint64_t>(n);
    if (count_ <= suppress_) return n;  // still inside the replayed prefix
    const char* start = s;
    std::streamsize m = n;
    if (before < suppress_) {
      const auto skip = static_cast<std::streamsize>(suppress_ - before);
      start += skip;
      m -= skip;
    }
    dst_->sputn(start, m);
    return n;
  }

  int sync() override { return dst_->pubsync(); }

 private:
  std::streambuf* dst_;
  std::uint64_t suppress_;
  std::uint64_t count_ = 0;
};

/// True when the command line asks for run-health analytics.
bool wants_analytics(const Options& opts) {
  if (opts.contains("health-report")) return true;
  for (const auto& [key, value] : opts) {
    if (key.rfind("slo-", 0) == 0) return true;
  }
  return false;
}

/// Canonical textual spec of a run, stored as the "spec" section of every
/// snapshot: the command, every --job and fault flag in command-line order,
/// and every option that shapes the simulated trajectory.  Output paths
/// (--trace, --health-report, --checkpoint-dir) are normalized to presence
/// markers so a resumed run may write elsewhere, and --slo-* values only
/// gate the exit code; everything else — including --checkpoint-every,
/// whose ticks consume event budget — must match the recording run exactly.
std::string canonical_run_spec(const std::string& cmd,
                               const std::vector<std::string>& job_args,
                               const FaultArgs& fault_args,
                               const Options& opts) {
  std::string s = "ccml-run-spec v1\ncmd=" + cmd + "\n";
  for (const auto& j : job_args) s += "job=" + j + "\n";
  for (const auto& [kind, arg] : fault_args) {
    s += "fault." + kind + "=" + arg + "\n";
  }
  for (const auto& [k, v] : opts) {
    if (k == "resume" || k == "checkpoint-dir" || k == "threads" ||
        k == "health-report" || k.rfind("slo-", 0) == 0) {
      continue;
    }
    if (k == "trace") {
      s += "opt.trace=1\n";
      continue;
    }
    s += "opt." + k + "=" + v + "\n";
  }
  if (wants_analytics(opts)) s += "opt.health=1\n";
  return s;
}

/// A spec parsed back out of a snapshot — enough to reconstruct and replay
/// the recorded run without the original command line (`ccml_sim branch`).
struct RunSpec {
  std::string cmd;
  std::vector<std::string> job_args;
  FaultArgs fault_args;
  Options opts;
  bool traced = false;  ///< the recording run had a --trace file sink
  bool health = false;  ///< ... and/or a run-health analytics engine
};

RunSpec parse_run_spec(const std::string& spec) {
  RunSpec rs;
  std::stringstream ss(spec);
  std::string line;
  bool header = false;
  while (std::getline(ss, line)) {
    if (line.empty()) continue;
    if (line == "ccml-run-spec v1") {
      header = true;
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw SnapshotError("malformed run spec line: " + line);
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "cmd") {
      rs.cmd = value;
    } else if (key == "job") {
      rs.job_args.push_back(value);
    } else if (key.rfind("fault.", 0) == 0) {
      rs.fault_args.emplace_back(key.substr(6), value);
    } else if (key == "opt.trace") {
      rs.traced = true;
    } else if (key == "opt.health") {
      rs.health = true;
    } else if (key.rfind("opt.", 0) == 0) {
      rs.opts[key.substr(4)] = value;
    } else {
      throw SnapshotError("malformed run spec line: " + line);
    }
  }
  if (!header || rs.cmd.empty()) {
    throw SnapshotError("snapshot run spec is not in ccml-run-spec v1 format");
  }
  return rs;
}

int cmd_zoo() {
  std::printf("models:\n");
  TextTable models({"model", "params (M)", "fwd us/sample"});
  for (const auto& m : ModelZoo::models()) {
    models.add_row({m.name, TextTable::num(m.params_millions, 1),
                    TextTable::num(m.fwd_us_per_sample, 1)});
  }
  std::printf("%s\n", models.render().c_str());
  std::printf("calibrated Table-1 profiles (at 42.5 Gbps effective):\n");
  TextTable cal({"model", "batch", "compute ms", "comm MB", "solo ms"});
  const std::pair<const char*, int> entries[] = {
      {"BERT", 8},      {"VGG19", 1200},      {"DLRM", 2000},
      {"VGG19", 1400},  {"WideResNet", 800},  {"VGG16", 1400},
      {"VGG16", 1700},  {"ResNet50", 1600},
  };
  for (const auto& [model, batch] : entries) {
    const auto p = ModelZoo::calibrated(model, batch);
    if (!p) continue;
    cal.add_row({model, std::to_string(batch),
                 TextTable::num(p->fwd_compute.to_millis(), 0),
                 TextTable::num(p->comm_bytes.to_mb(), 0),
                 TextTable::num(
                     p->solo_iteration(Rate::gbps(42.5)).to_millis(), 0)});
  }
  std::printf("%s", cal.render().c_str());
  return 0;
}

int cmd_transports() {
  std::printf("registered transports:\n");
  TextTable table({"name", "family", "mltcp", "derating", "summary"});
  for (const TransportInfo& t : transport_catalogue()) {
    table.add_row({t.name, t.family, t.mltcp_wrappable ? "yes" : "-",
                   TextTable::num(t.goodput_derating, 2), t.summary});
  }
  std::printf("%s\n", table.render().c_str());
  for (const TransportInfo& t : transport_catalogue()) {
    if (t.tunables.empty()) continue;
    std::printf("%s tunables:\n", t.name);
    TextTable tt({"tunable", "preset", "meaning"});
    for (const TransportTunable& k : t.tunables) {
      tt.add_row({k.name, k.preset, k.meaning});
    }
    std::printf("%s\n", tt.render().c_str());
  }
  std::printf(
      "MLTCP variants scale the base transport's additive-increase step by\n"
      "(1 + bytes_sent/phase_bytes); `derating` is the goodput factor the\n"
      "orchestrator's admission model multiplies in for that transport.\n");
  return 0;
}

int cmd_profile(const Options& opts) {
  const JobProfile job = job_profile_from(opts);  // --model, --batch
  ProfilerOptions popts;
  popts.iterations = opt_int(opts, "iterations", popts.iterations);
  if (opts.contains("policy")) {
    popts.policy = parse_policy_kind(opts.at("policy"));
  }
  const MeasuredProfile m = measure_profile(job, popts);
  std::printf("model %s (batch %d) under %s:\n", job.model.c_str(), job.batch,
              to_string(popts.policy));
  std::printf("  mean iteration  %8.2f ms\n", m.mean_iteration.to_millis());
  std::printf("  p99 iteration   %8.2f ms\n", m.p99_iteration.to_millis());
  std::printf("  comm goodput    %8.2f Gbps\n", m.mean_comm_rate.to_gbps());
  std::printf("  comm fraction   %8.2f\n", m.profile.comm_fraction());
  std::printf("  circle: period %.2f ms, arcs:", m.profile.period.to_millis());
  for (const Arc& a : m.profile.arcs) {
    std::printf(" [%.1f, %.1f)", a.start.to_millis(),
                (a.start + a.length).to_millis());
  }
  std::printf("\n");
  return 0;
}

int cmd_solve(const std::vector<std::string>& job_args,
              const Options& opts) {
  if (job_args.size() < 2) usage("solve needs at least two --job");
  std::vector<CommProfile> profiles;
  for (const auto& arg : job_args) {
    const auto kv = parse_kv(arg);
    if (kv.contains("period_ms")) {
      const double period = want_num(kv, "period_ms");
      const double comm = want_num(kv, "comm_ms");
      profiles.push_back(CommProfile::single_phase(
          opt_text(kv, "name", "job" + std::to_string(profiles.size())),
          Duration::from_millis_f(period),
          Duration::from_millis_f(period - comm),
          Rate::gbps(want_num(kv, "demand_gbps", 42.5))));
    } else {
      profiles.push_back(
          analytic_profile(job_profile_from(kv), Rate::gbps(42.5)));
    }
  }
  SolverOptions sopts;
  sopts.sectors = opt_int(opts, "sectors", sopts.sectors);
  if (opts.contains("capacity-gbps")) {
    sopts.mode = SolverOptions::Mode::kBandwidth;
    sopts.link_capacity = Rate::gbps(opt_real(opts, "capacity-gbps", 0));
  }
  const SolverResult r = CompatibilitySolver(sopts).solve(profiles);
  std::printf("verdict: %s%s\n", r.compatible ? "COMPATIBLE" : "incompatible",
              r.proven ? "" : " (not proven; search budget exhausted)");
  std::printf("residual violation: %.4f of the unified circle\n",
              r.violation_fraction);
  for (std::size_t j = 0; j < profiles.size(); ++j) {
    std::printf("  %-10s period %8.2f ms  comm %5.1f%%  rotation %8.2f ms\n",
                profiles[j].name.c_str(), profiles[j].period.to_millis(),
                100.0 * profiles[j].comm_fraction(),
                r.rotations[j].to_millis());
  }
  return r.compatible ? 0 : 1;
}

/// Parses the --slo-* family into the engine's SLO gate config.
SloConfig parse_slo(const Options& opts) {
  SloConfig slo;
  slo.min_fairness = opt_real(opts, "slo-min-fairness", slo.min_fairness);
  slo.max_mean_slowdown =
      opt_real(opts, "slo-max-slowdown", slo.max_mean_slowdown);
  slo.max_p99_iteration_ms =
      opt_real(opts, "slo-max-p99-ms", slo.max_p99_iteration_ms);
  slo.max_anomalies = opt_int(opts, "slo-max-anomalies", slo.max_anomalies);
  slo.require_anomaly =
      opt_int(opts, "slo-require-anomaly", slo.require_anomaly ? 1 : 0) != 0;
  return slo;
}

/// Renders the run-health report to --health-report's destination ("-" or
/// unset = stdout) and prints the lower-bound warning when the async ring
/// dropped events.  Returns 1 when an SLO check failed, else 0.
int emit_health_report(const AnalyticsEngine& engine, const Options& opts) {
  const RunHealthReport report = engine.report(parse_slo(opts));
  const std::string dest = opt_text(opts, "health-report", "-");
  if (dest == "-") {
    std::printf("%s", report.json.c_str());
  } else {
    std::ofstream f(dest);
    if (!f) usage(("cannot open health report file: " + dest).c_str());
    f << report.json;
    std::printf("\nrun-health report written to %s (%s)\n", dest.c_str(),
                report.pass ? "PASS" : "FAIL");
  }
  if (engine.trace_drops() > 0) {
    std::fprintf(stderr,
                 "warning: %llu trace events were dropped (--trace-async "
                 "drop); analytics and anomaly counts are a lower bound\n",
                 static_cast<unsigned long long>(engine.trace_drops()));
  }
  return report.pass ? 0 : 1;
}

/// --trace-cadence-ms: the link-series and analytics sampling period.
Duration trace_cadence(const Options& opts) {
  return Duration::from_millis_f(opt_real(opts, "trace-cadence-ms", 5.0));
}

/// A run's trace bus and the sinks it feeds: an optional JSONL or Chrome
/// sink writing through a byte-counting stream, and an optional
/// AnalyticsEngine.  When both are present the engine is the bus's only
/// sink and *chains* to the file sink, so derived anomaly.* events
/// interleave deterministically with the raw stream.
struct TraceChain {
  /// Opens a `format` ("chrome" or "jsonl") sink writing to `dst`, minus
  /// its first `suppress` bytes (see CountingBuf).
  void open_sink(std::streambuf* dst, std::uint64_t suppress,
                 const std::string& format, Duration sample_cadence) {
    counting = std::make_unique<CountingBuf>(dst, suppress);
    stream = std::make_unique<std::ostream>(counting.get());
    if (format == "chrome") {
      ChromeTraceSinkOptions copts;
      copts.sample_cadence = sample_cadence;
      sink = std::make_unique<ChromeTraceSink>(*stream, copts);
    } else {
      JsonlSinkOptions jopts;
      jopts.sample_cadence = sample_cadence;
      sink = std::make_unique<JsonlSink>(*stream, jopts);
    }
  }

  /// Subscribes the bus to the sink, through an analytics engine when
  /// `health` asks for one.
  void connect(bool health, Duration cadence) {
    if (!health) {
      bus.add_sink(*sink);
      return;
    }
    AnalyticsConfig acfg;
    acfg.sample_cadence = cadence;
    engine = std::make_unique<AnalyticsEngine>(acfg);
    engine->set_output(sink.get());
    bus.add_sink(*engine);
  }

  /// Has every snapshot `ck` takes record the sink's logical bytes since
  /// t=0 (suppressed + written), flushed through to the OS first so a
  /// SIGKILL after the snapshot lands can never lose bytes its cursor
  /// claims exist.
  void count_bytes_for(CheckpointCoordinator& ck) {
    ck.set_trace_bytes_fn([this] {
      stream->flush();
      return counting->logical_bytes();
    });
  }

  std::unique_ptr<CountingBuf> counting;
  std::unique_ptr<std::ostream> stream;
  std::unique_ptr<TraceSink> sink;
  std::unique_ptr<AnalyticsEngine> engine;
  TraceBus bus;  // last: destroyed first, stopping any async consumer
};

/// What a live run writes besides its report: the trace file and run-health
/// report (--trace*, --health-report, --slo-*) and the checkpoints
/// (--checkpoint-every, --checkpoint-dir, --resume), linked so every
/// snapshot records the trace file's byte position.  On resume the snapshot
/// is loaded and validated, a spec recorded by a different command line is
/// refused, and the trace file is cut at the cursor and appended to.
class RunOutputs {
 public:
  RunOutputs(const std::string& spec, const Options& opts) : opts_(opts) {
    open_trace(open_checkpoints(spec));
    if (ck_ != nullptr && chain_.counting != nullptr) {
      chain_.count_bytes_for(*ck_);
    }
  }

  /// Hangs the coordinator and bus on a ScenarioConfig/OrchestratorConfig.
  template <typename Config>
  void attach(Config& cfg) {
    cfg.checkpoint = ck_.get();
    cfg.trace = enabled_ ? &chain_.bus : nullptr;
  }

  /// Call after the run: a resume whose replay ended before ever reaching
  /// the cursor verified nothing and must not pass silently.
  void check_verified() const {
    if (!resuming_) return;
    if (!ck_->verified()) {
      throw ResumeDivergence(
          "replay finished without reaching the snapshot's cursor (checkpoint " +
          std::to_string(ck_->options().target_seq) +
          ") — was the recorded run longer than this one?");
    }
    std::fprintf(stderr, "resume verified byte-identical at the cursor; "
                         "continued to completion\n");
  }

  /// Call after the report: finalizes the trace file, prints the run
  /// metrics and emits the run-health report.  1 when an SLO gate failed.
  int finish() {
    if (!enabled_) return 0;
    chain_.bus.flush();  // stops the async consumer (full drain) first
    if (!path_.empty()) {
      chain_.stream->flush();
      out_.close();
      std::printf("\ntrace written to %s\n", path_.c_str());
    }
    std::printf("\n%s", chain_.bus.metrics_summary().c_str());
    return chain_.engine ? emit_health_report(*chain_.engine, opts_) : 0;
  }

 private:
  /// Sets up the coordinator; returns, on resume, the logical trace bytes
  /// at the snapshot's cursor (else 0).
  std::uint64_t open_checkpoints(const std::string& spec) {
    const bool resume = opts_.contains("resume");
    if (!opts_.contains("checkpoint-every")) {
      if (resume) {
        usage("--resume needs the recording run's --checkpoint-every (re-issue "
              "the identical command line plus --resume)");
      }
      return 0;
    }
    // Checkpointing counts and stitches trace bytes, which needs the
    // line-oriented lossless path: the chrome sink buffers everything until
    // the end of the run, and drop-mode async discards events the byte
    // counter never sees.
    if (opts_.contains("trace") &&
        opt_text(opts_, "trace-format", "") != "jsonl") {
      usage("checkpointing a traced run requires --trace-format jsonl");
    }
    if (opt_text(opts_, "trace-async", "") == "drop") {
      usage("--trace-async drop discards events nondeterministically and "
            "cannot be checkpointed; use block");
    }
    CheckpointCoordinator::Options co;
    co.every = Duration::from_millis_f(opt_real(opts_, "checkpoint-every", 0));
    co.dir = opt_text(opts_, "checkpoint-dir", "checkpoints");
    co.run_spec = spec;
    std::uint64_t resume_bytes = 0;
    if (resume) {
      const std::string& file = opts_.at("resume");
      Snapshot target = Snapshot::load(file);
      if (target.get("spec") != spec) {
        throw SnapshotError(
            "snapshot '" + file +
            "' was recorded by a different run: re-issue the identical "
            "command line plus --resume (output paths may differ; jobs, "
            "faults, seeds, durations and --checkpoint-every may not)");
      }
      const auto cursor = CheckpointCoordinator::read_cursor(target);
      co.mode = CheckpointCoordinator::Mode::kReplayVerify;
      co.target_seq = cursor.seq;
      co.target = std::move(target);
      resume_bytes = cursor.trace_bytes;
      resuming_ = true;
      std::fprintf(stderr,
                   "resuming from %s: checkpoint %llu at %.1f ms (%llu events, "
                   "%llu trace bytes); replaying to the cursor...\n",
                   file.c_str(), static_cast<unsigned long long>(cursor.seq),
                   static_cast<double>(cursor.time_ns) / 1e6,
                   static_cast<unsigned long long>(cursor.events_executed),
                   static_cast<unsigned long long>(cursor.trace_bytes));
    }
    ck_ = std::make_unique<CheckpointCoordinator>(std::move(co));
    return resume_bytes;
  }

  /// Builds the bus and its sinks.  On resume the existing trace file is
  /// cut to exactly `resume_bytes` and re-opened for append, and the first
  /// resume_bytes the replay regenerates are discarded instead of
  /// re-written — the stitched file is byte-identical to the one an
  /// uninterrupted run would have produced.
  void open_trace(std::uint64_t resume_bytes) {
    const bool want_file = opts_.contains("trace");
    const bool want_health = wants_analytics(opts_);
    if (!want_file && !want_health) return;
    const Duration cadence = trace_cadence(opts_);
    if (want_file) {
      path_ = opts_.at("trace");
      std::uint64_t suppress = 0;
      std::error_code ec;
      if (resume_bytes > 0 && std::filesystem::exists(path_, ec)) {
        const std::uint64_t size = std::filesystem::file_size(path_);
        if (size < resume_bytes) {
          throw SnapshotError(
              "trace file '" + path_ + "' has " + std::to_string(size) +
              " bytes but the snapshot's cursor is at byte " +
              std::to_string(resume_bytes) +
              " — this is not the file the snapshotted run was writing");
        }
        // Drop bytes the killed run wrote past the checkpoint; the replay
        // regenerates them (and everything after) deterministically.
        if (size > resume_bytes) {
          std::filesystem::resize_file(path_, resume_bytes);
        }
        out_.open(path_, std::ios::binary | std::ios::app);
        suppress = resume_bytes;
      } else {
        out_.open(path_, std::ios::binary | std::ios::trunc);
      }
      if (!out_) usage(("cannot open trace file: " + path_).c_str());
      chain_.open_sink(out_.rdbuf(), suppress,
                       opt_text(opts_, "trace-format", "chrome"), cadence);
    }
    chain_.connect(want_health, cadence);
    if (opts_.contains("trace-async")) {
      TraceAsyncOptions aopts;
      if (opts_.at("trace-async") == "drop") {
        aopts.overflow = TraceOverflowPolicy::kDropNewest;
      }
      chain_.bus.start_async(aopts);
    }
    enabled_ = true;
  }

  const Options& opts_;
  bool enabled_ = false;
  bool resuming_ = false;
  std::string path_;
  std::ofstream out_;
  TraceChain chain_;
  std::unique_ptr<CheckpointCoordinator> ck_;
};

std::vector<ScenarioJob> parse_scenario_jobs(
    const std::vector<std::string>& job_args) {
  std::vector<ScenarioJob> jobs;
  for (const auto& arg : job_args) {
    const auto kv = parse_kv(arg);
    ScenarioJob job;
    job.profile = job_profile_from(kv);
    job.name = opt_text(kv, "name",
                        job.profile.model.empty()
                            ? "job" + std::to_string(jobs.size())
                            : job.profile.model + "#" +
                                  std::to_string(jobs.size()));
    if (kv.contains("timer_us")) {
      job.cc_timer = Duration::from_micros_f(want_num(kv, "timer_us"));
    }
    if (kv.contains("rai_mbps")) {
      job.cc_rai = Rate::mbps(want_num(kv, "rai_mbps"));
    }
    job.priority = static_cast<int>(want_num(kv, "priority", 0.0));
    job.weight = want_num(kv, "weight", 1.0);
    job.start_offset = Duration::from_millis_f(want_num(kv, "start_ms", 0.0));
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// The link a fault spec without link= hits: the dumbbell's bottleneck
/// cable (both ways) or, on the cluster fabric, the first ToR uplink.
std::string default_fault_link(const std::string& cmd) {
  return cmd == "cluster" ? "tor0->spine0" : "swL->swR";
}

/// Parses fault flags (--flap, --brownout, --straggler, --pause, --depart,
/// --arrive, or branch's --with-*), in command-line order, into a plan.
/// Link faults without link= hit `default_link`; a job fault must name one
/// of the `job_count` jobs.
FaultPlan parse_fault_plan(const FaultArgs& fault_args,
                           const std::string& default_link,
                           std::size_t job_count) {
  FaultPlan plan;
  const auto at = [](const std::map<std::string, std::string>& kv) {
    return TimePoint::origin() + Duration::from_millis_f(want_num(kv, "at_ms"));
  };
  const auto job_id = [&](const std::map<std::string, std::string>& kv) {
    const int j = static_cast<int>(want_num(kv, "job"));
    if (j < 0 || static_cast<std::size_t>(j) >= job_count) {
      usage(("fault references job " + std::to_string(j) + ", but only " +
             std::to_string(job_count) + " jobs are defined")
                .c_str());
    }
    return JobId{j};
  };
  for (const auto& [kind, arg] : fault_args) {
    const auto kv = parse_kv(arg);
    const std::string link = opt_text(kv, "link", default_link);
    if (kind == "flap") {
      plan.flap(at(kv), Duration::from_millis_f(want_num(kv, "for_ms")), link);
    } else if (kind == "brownout") {
      plan.brownout(at(kv), Duration::from_millis_f(want_num(kv, "for_ms")),
                    link, want_num(kv, "factor"));
    } else if (kind == "straggler") {
      plan.straggler(at(kv), Duration::from_millis_f(want_num(kv, "for_ms")),
                     job_id(kv), want_num(kv, "slowdown", 1.5));
    } else if (kind == "pause") {
      plan.pause(at(kv), Duration::from_millis_f(want_num(kv, "for_ms")),
                 job_id(kv));
    } else if (kind == "depart") {
      plan.depart(at(kv), job_id(kv));
    } else if (kind == "arrive") {
      plan.arrive(at(kv), job_id(kv));
    }
  }
  return plan;
}

/// Everything a dumbbell run is built from, reconstructible from the
/// option map alone: scenario, faults and sweep parse it from the command
/// line, branch replays parse it back out of a snapshot's stored spec.
struct ScenarioSetup {
  std::vector<ScenarioJob> jobs;
  ScenarioConfig cfg;
};

ScenarioSetup make_scenario_setup(const std::vector<std::string>& job_args,
                                  const FaultArgs& fault_args,
                                  const Options& opts) {
  ScenarioSetup s{parse_scenario_jobs(job_args), {}};
  ScenarioConfig& cfg = s.cfg;
  if (opts.contains("policy")) {
    cfg.policy = parse_policy_kind(opts.at("policy"));
  }
  if (opts.contains("cc-policy-table")) {
    cfg.transports.table.table =
        CcPolicyTable::load(opts.at("cc-policy-table"));
  }
  cfg.duration = Duration::seconds(opt_int(opts, "seconds", 20));
  cfg.flow_schedule = opt_int(opts, "flow-schedule", cfg.flow_schedule) != 0;
  cfg.faults = parse_fault_plan(fault_args, default_fault_link("scenario"),
                                s.jobs.size());
  cfg.faults.seed = opt_seed(opts, "seed", cfg.faults.seed);
  return s;
}

int cmd_scenario(const std::vector<std::string>& job_args,
                 const Options& opts) {
  if (job_args.empty()) usage("scenario needs at least one --job");
  ScenarioSetup s = make_scenario_setup(job_args, {}, opts);
  RunOutputs outputs(canonical_run_spec("scenario", job_args, {}, opts), opts);
  outputs.attach(s.cfg);
  const auto result = run_dumbbell_scenario(s.jobs, s.cfg);
  outputs.check_verified();

  std::printf("policy %s, %zu jobs, %.0f s simulated:\n\n",
              to_string(s.cfg.policy), s.jobs.size(),
              s.cfg.duration.to_seconds());
  TextTable table({"job", "iterations", "mean ms", "median ms", "p95 ms",
                   "solo ms"});
  const Rate goodput = scenario_goodput(s.cfg);
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const auto& j = result.jobs[i];
    table.add_row({j.name, std::to_string(j.iterations),
                   TextTable::num(j.mean_ms, 1), TextTable::num(j.median_ms, 1),
                   TextTable::num(j.p95_ms, 1),
                   TextTable::num(
                       s.jobs[i].profile.solo_iteration(goodput).to_millis(),
                       1)});
  }
  std::printf("%s", table.render().c_str());
  return outputs.finish();
}

int cmd_faults(const std::vector<std::string>& job_args,
               const FaultArgs& fault_args, const Options& opts) {
  if (job_args.empty()) usage("faults needs at least one --job");
  if (fault_args.empty()) usage("faults needs at least one fault flag");
  ScenarioSetup s = make_scenario_setup(job_args, fault_args, opts);
  RunOutputs outputs(
      canonical_run_spec("faults", job_args, fault_args, opts), opts);
  outputs.attach(s.cfg);
  const auto result = run_dumbbell_scenario(s.jobs, s.cfg);
  outputs.check_verified();

  std::printf("policy %s, %zu jobs, %.0f s simulated, %zu fault events:\n\n",
              to_string(s.cfg.policy), s.jobs.size(),
              s.cfg.duration.to_seconds(), s.cfg.faults.events.size());
  TextTable table({"job", "iterations", "mean ms", "median ms", "p95 ms"});
  for (const auto& j : result.jobs) {
    table.add_row({j.name, std::to_string(j.iterations),
                   TextTable::num(j.mean_ms, 1), TextTable::num(j.median_ms, 1),
                   TextTable::num(j.p95_ms, 1)});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("applied events:\n");
  for (const FaultEvent& ev : result.faults_applied) {
    std::printf("  %8.1f ms  %-13s %s\n",
                (ev.at - TimePoint::origin()).to_millis(), to_string(ev.kind),
                ev.is_link_event()
                    ? ev.link_name.c_str()
                    : s.jobs[static_cast<std::size_t>(ev.job.value)]
                          .name.c_str());
  }
  const int health_rc = outputs.finish();
  if (result.recovery) {
    std::printf("\n%s", result.recovery->summary().c_str());
    if (!result.recovery->all_converged()) return 1;
  }
  return health_rc;
}

/// --threads: 0 (the default) means one per hardware thread.
SweepRunner make_pool(const Options& opts) {
  SweepOptions sw;
  sw.threads = static_cast<unsigned>(opt_int(opts, "threads", 0));
  return SweepRunner(sw);
}

int cmd_sweep(const std::vector<std::string>& job_args,
              const Options& opts) {
  if (job_args.empty()) usage("sweep needs at least one --job");
  if (!opts.contains("param")) usage("sweep needs --param");
  if (!opts.contains("values")) usage("sweep needs --values");
  const std::string param = opts.at("param");
  std::vector<double> values;
  {
    std::stringstream ss(opts.at("values"));
    std::string item;
    while (std::getline(ss, item, ',')) {
      const auto v = full_real(item);
      if (!v) {
        usage(("--values expects numbers, got '" + item + "'").c_str());
      }
      values.push_back(*v);
    }
  }
  if (values.empty()) usage("sweep needs at least one value");

  const ScenarioSetup base = make_scenario_setup(job_args, {}, opts);
  SweepRunner pool = make_pool(opts);
  // Every grid point simulates from its own copies of the job list and
  // config; results come back in grid order regardless of thread timing.
  const auto results = pool.run(values, [&](double v, std::size_t) {
    ScenarioSetup s = base;
    if (param == "timer_us") {
      s.jobs[0].cc_timer = Duration::from_micros_f(v);
    } else if (param == "rai_mbps") {
      s.jobs[0].cc_rai = Rate::mbps(v);
    } else if (param == "start_ms") {
      s.jobs[0].start_offset = Duration::from_millis_f(v);
    } else {  // bottleneck_gbps
      s.cfg.bottleneck = Rate::gbps(v);
    }
    return run_dumbbell_scenario(s.jobs, s.cfg);
  });

  std::printf("sweep of %s over %zu values (%s, %.0f s simulated, %u "
              "threads):\n\n",
              param.c_str(), values.size(), to_string(base.cfg.policy),
              base.cfg.duration.to_seconds(), pool.thread_count());
  std::vector<std::string> headers = {param};
  for (const auto& j : base.jobs) headers.push_back(j.name + " mean ms");
  TextTable table(headers);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::vector<std::string> row = {TextTable::num(values[i], 1)};
    for (const auto& j : results[i].jobs) row.push_back(TextTable::num(j.mean_ms, 1));
    table.add_row(row);
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

AdmissionPolicyKind admission_policy(const std::string& name) {
  return name == "locality" ? AdmissionPolicyKind::kLocalityOnly
                            : AdmissionPolicyKind::kCompatibilityAware;
}

/// Everything an orchestrator run is built from, reconstructible from the
/// option map alone — cmd_cluster parses it from the command line, branch
/// replays parse it back out of a snapshot's stored spec.
struct ClusterSetup {
  ArrivalConfig acfg;
  ArrivalSchedule schedule;
  Topology topo;
  OrchestratorConfig cfg;
  int tors;
  int hosts;
  int spines;
};

ClusterSetup make_cluster_setup(const FaultArgs& fault_args,
                                const Options& opts) {
  ArrivalConfig acfg;
  acfg.seed = opt_seed(opts, "seed", 1);
  acfg.rate_per_min = opt_real(opts, "rate", 12);
  acfg.horizon = Duration::from_seconds_f(opt_real(opts, "seconds", 60));
  acfg.mean_service_extra =
      Duration::from_seconds_f(opt_real(opts, "service-s", 12));
  acfg.min_workers = opt_int(opts, "workers-min", 2);
  acfg.max_workers = opt_int(opts, "workers-max", 4);
  ArrivalSchedule schedule = generate_arrivals(acfg);

  const int tors = opt_int(opts, "tors", 4);
  const int hosts = opt_int(opts, "hosts", 4);
  const int spines = opt_int(opts, "spines", 2);
  // --fabric-gbps sets the ToR->spine uplink rate; dropping it below the
  // 50 Gb/s host rate oversubscribes the fabric and makes spanning jobs
  // contend on MULTIPLE links of one route (the multi-bottleneck regime).
  Topology topo = Topology::leaf_spine(
      tors, hosts, spines, Rate::gbps(50),
      Rate::gbps(opt_real(opts, "fabric-gbps", 50)));

  OrchestratorConfig cfg;
  if (opts.contains("policy")) {
    cfg.policy = parse_policy_kind(opts.at("policy"));
  }
  if (opts.contains("cc-policy-table")) {
    cfg.transports.table.table =
        CcPolicyTable::load(opts.at("cc-policy-table"));
  }
  cfg.horizon = acfg.horizon;
  cfg.flow_schedule = opt_int(opts, "flow-schedule", 1) != 0;
  cfg.circle = opt_text(opts, "circle", "graph") == "single"
                   ? OrchestratorConfig::CircleMode::kSingleCircle
                   : OrchestratorConfig::CircleMode::kGraph;
  cfg.admission.policy = admission_policy(opt_text(opts, "admission", "compat"));
  cfg.admission.queue_capacity = opt_int(opts, "queue-cap", 16);
  cfg.admission.queue_timeout =
      Duration::from_seconds_f(opt_real(opts, "queue-timeout-s", 30));
  cfg.faults = parse_fault_plan(fault_args, default_fault_link("cluster"), 0);
  cfg.faults.seed = acfg.seed;

  return ClusterSetup{std::move(acfg), std::move(schedule), std::move(topo),
                      std::move(cfg),  tors,               hosts,
                      spines};
}

int cmd_cluster(const FaultArgs& fault_args, const Options& opts) {
  ClusterSetup cs = make_cluster_setup(fault_args, opts);
  RunOutputs outputs(canonical_run_spec("cluster", {}, fault_args, opts),
                     opts);
  outputs.attach(cs.cfg);
  Orchestrator orch(cs.topo, cs.schedule, cs.cfg);
  const ClusterRunReport report = orch.run();
  outputs.check_verified();

  std::printf(
      "online cluster: %dx%d hosts, %d spines | %s admission, %s policy | "
      "seed %llu, %.1f jobs/min, %.0f s horizon\n",
      cs.tors, cs.hosts, cs.spines, to_string(cs.cfg.admission.policy),
      to_string(cs.cfg.policy),
      static_cast<unsigned long long>(cs.acfg.seed), cs.acfg.rate_per_min,
      cs.cfg.horizon.to_seconds());
  std::printf("%s", report.summary().c_str());
  return outputs.finish();
}

// --- What-if branching -------------------------------------------------------

/// One fork of the recorded timeline.
struct BranchDef {
  std::string name;       ///< display name, e.g. "admission=locality"
  std::string dimension;  ///< "baseline" | "admission" | "transport" | "faults"
  std::string value;      ///< parsed variation value (policy name, ...)
  FaultPlan extra;        ///< dimension == "faults": post-cursor link events
};

struct BranchOutcome {
  std::string jsonl;    ///< the branch's full in-memory trace
  std::string summary;  ///< one-line result stats
};

/// Replicates the recorded run's trace structure in memory.  The structure
/// matters beyond diffing: a sampling sink schedules simulator events, so
/// the replay only byte-matches the snapshot if the sampler cadence (or its
/// absence) is exactly what the recording run had.  An un-traced recording
/// gets a cadence-free JSONL sink, which adds no simulator events but still
/// yields a diffable stream.
struct BranchTrace {
  explicit BranchTrace(const RunSpec& rs) {
    const Duration cadence = trace_cadence(rs.opts);
    chain.open_sink(oss.rdbuf(), 0, "jsonl",
                    rs.traced ? cadence : Duration::zero());
    chain.connect(rs.health, cadence);
  }

  std::ostringstream oss;
  TraceChain chain;
};

CheckpointCoordinator make_branch_coordinator(const RunSpec& rs,
                                              const Snapshot& target) {
  if (!rs.opts.contains("checkpoint-every")) {
    throw SnapshotError(
        "snapshot spec carries no --checkpoint-every; cannot replay");
  }
  CheckpointCoordinator::Options co;
  co.every = Duration::from_millis_f(opt_real(rs.opts, "checkpoint-every", 0));
  co.run_spec = target.get("spec");
  co.mode = CheckpointCoordinator::Mode::kReplayOnly;
  co.target = target;
  co.target_seq = CheckpointCoordinator::read_cursor(target).seq;
  return CheckpointCoordinator(std::move(co));
}

/// Runs one what-if continuation of a scenario, faults or cluster
/// recording: replays it to the snapshot's cursor, verifying it
/// byte-for-byte, applies the branch's variation there and runs on to the
/// original horizon with the trace kept in memory.
BranchOutcome run_branch(const RunSpec& rs, const Snapshot& target,
                         const BranchDef& b, std::size_t index) {
  BranchTrace trace(rs);
  CheckpointCoordinator ck = make_branch_coordinator(rs, target);
  if (rs.traced) trace.chain.count_bytes_for(ck);
  std::unique_ptr<FaultInjector> extra;  // keeps cursor-applied faults alive
  // At the cursor, on either engine: mark the fork in the trace, then swap
  // the transport or arm the extra faults.
  const auto fork = [&](Simulator& sim, Network& net,
                        const TransportConfig& transports) {
    TraceEvent ev;
    ev.time = sim.now();
    ev.kind = TraceEventKind::kCkptBranch;
    ev.value = static_cast<double>(index);
    ev.detail = b.dimension.c_str();
    trace.chain.bus.emit(ev);
    if (b.dimension == "transport") {
      net.replace_policy(make_policy(parse_policy_kind(b.value), transports));
    } else if (b.dimension == "faults") {
      extra = std::make_unique<FaultInjector>(sim, net, b.extra);
      extra->arm();
    }
  };

  BranchOutcome out;
  if (rs.cmd == "cluster") {
    ClusterSetup cs = make_cluster_setup(rs.fault_args, rs.opts);
    cs.cfg.checkpoint = &ck;
    cs.cfg.trace = &trace.chain.bus;
    cs.cfg.on_cursor = [&](OrchestratorCursorContext& ctx) {
      fork(ctx.sim, ctx.net, cs.cfg.transports);
      if (b.dimension == "admission") {
        ctx.admission.set_policy(admission_policy(b.value));
        ctx.drain_queue();
      }
    };
    Orchestrator orch(cs.topo, cs.schedule, cs.cfg);
    const ClusterRunReport report = orch.run();
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%zu admitted, %zu rejected, %zu finished | mean slowdown "
                  "%.3f, worst %.3f | mean queue %.1f ms",
                  report.admitted, report.rejected, report.finished,
                  report.mean_slowdown(), report.max_slowdown(),
                  report.mean_queue_delay_ms());
    out.summary = buf;
  } else {
    ScenarioSetup s = make_scenario_setup(rs.job_args, rs.fault_args, rs.opts);
    s.cfg.checkpoint = &ck;
    s.cfg.trace = &trace.chain.bus;
    s.cfg.on_cursor = [&](Simulator& sim, Network& net) {
      fork(sim, net, s.cfg.transports);
    };
    const ScenarioResult result = run_dumbbell_scenario(s.jobs, s.cfg);
    for (const auto& j : result.jobs) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%s: %zu iters, mean %.1f ms",
                    j.name.c_str(), j.iterations, j.mean_ms);
      out.summary += (out.summary.empty() ? "" : " | ") + std::string(buf);
    }
  }
  if (!ck.verified()) {
    throw ResumeDivergence("branch '" + b.name +
                           "' never reached the snapshot's cursor");
  }
  trace.chain.bus.flush();
  out.jsonl = trace.oss.str();
  return out;
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  std::istringstream in(s);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// First line where a branch's stream diverges from the baseline's.  The
/// ckpt.branch marker line every fork necessarily differs on is skipped —
/// the interesting divergence is the first *behavioral* one.
struct Divergence {
  bool found = false;
  std::size_t line = 0;
  std::string base;
  std::string branch;
};

Divergence first_divergence(const std::vector<std::string>& base,
                            const std::vector<std::string>& other) {
  const std::size_t n = std::min(base.size(), other.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (base[i] == other[i]) continue;
    if (base[i].find("ckpt.branch") != std::string::npos &&
        other[i].find("ckpt.branch") != std::string::npos) {
      continue;
    }
    return {true, i + 1, base[i], other[i]};
  }
  if (base.size() != other.size()) {
    return {true, n + 1,
            n < base.size() ? base[n] : std::string("<end of stream>"),
            n < other.size() ? other[n] : std::string("<end of stream>")};
  }
  return {};
}

std::string truncated(const std::string& s, std::size_t max = 110) {
  return s.size() <= max ? s : s.substr(0, max) + "...";
}

int cmd_branch(const std::vector<std::string>& vary_args,
               const FaultArgs& extra_fault_args, const Options& opts) {
  if (!opts.contains("from")) usage("branch needs --from SNAPSHOT");
  const Snapshot target = Snapshot::load(opts.at("from"));
  const RunSpec rs = parse_run_spec(target.get("spec"));
  const auto cursor = CheckpointCoordinator::read_cursor(target);
  const bool cluster = rs.cmd == "cluster";
  if (!cluster && rs.cmd != "scenario" && rs.cmd != "faults") {
    throw SnapshotError("snapshot records unbranchable command '" + rs.cmd +
                        "'");
  }

  // The unmodified continuation runs first: it is the diff baseline.
  std::vector<BranchDef> branches;
  branches.push_back(BranchDef{"baseline", "baseline", "", {}});
  for (const std::string& v : vary_args) {
    const auto eq = v.find('=');
    if (eq == std::string::npos) {
      usage(("bad --vary (expected dimension=value): " + v).c_str());
    }
    const std::string dim = v.substr(0, eq);
    const std::string val = v.substr(eq + 1);
    if (dim == "admission") {
      if (!cluster) usage("--vary admission= only applies to cluster snapshots");
      check_value("--vary admission",
                  command_options().at("cluster").at("admission"), val);
    } else if (dim == "transport") {
      parse_policy_kind(val);  // throws on junk before any replay starts
    } else {
      usage(("unknown --vary dimension: " + dim +
             " (expected admission or transport)").c_str());
    }
    branches.push_back(BranchDef{v, dim, val, {}});
  }
  if (!extra_fault_args.empty()) {
    // All --with-* events fold into one extra fault plan, armed at the
    // cursor; they must land on the continuation, not the shared history.
    for (const auto& [kind, arg] : extra_fault_args) {
      const double at_ms = want_num(parse_kv(arg), "at_ms");
      if (at_ms * 1e6 <= static_cast<double>(cursor.time_ns)) {
        usage(("--with-" + kind + " at_ms=" + std::to_string(at_ms) +
               " is before the snapshot cursor (" +
               std::to_string(static_cast<double>(cursor.time_ns) / 1e6) +
               " ms); what-if faults must hit the continuation")
                  .c_str());
      }
    }
    branches.push_back(BranchDef{
        "faults", "faults", "",
        parse_fault_plan(extra_fault_args, default_fault_link(rs.cmd), 0)});
  }
  if (branches.size() == 1) {
    usage("branch needs at least one --vary or --with-* variation");
  }

  SweepRunner pool = make_pool(opts);
  const std::vector<BranchOutcome> outcomes =
      pool.run(branches, [&](const BranchDef& b, std::size_t i) {
        return run_branch(rs, target, b, i);
      });

  std::printf(
      "branched %zu what-if continuations of '%s' from %s\n"
      "  cursor: checkpoint %llu at %.1f ms, %llu events replayed and "
      "verified byte-identical per branch\n\n",
      branches.size(), rs.cmd.c_str(), opts.at("from").c_str(),
      static_cast<unsigned long long>(cursor.seq),
      static_cast<double>(cursor.time_ns) / 1e6,
      static_cast<unsigned long long>(cursor.events_executed));

  const std::vector<std::string> base_lines = split_lines(outcomes[0].jsonl);
  for (std::size_t i = 0; i < branches.size(); ++i) {
    std::printf("[%zu] %-24s %s\n", i, branches[i].name.c_str(),
                outcomes[i].summary.c_str());
    if (i == 0) continue;
    const Divergence d =
        first_divergence(base_lines, split_lines(outcomes[i].jsonl));
    if (!d.found) {
      std::printf("     no divergence from baseline (%zu identical trace "
                  "lines)\n",
                  base_lines.size());
    } else {
      std::printf("     first divergence from baseline at trace line %zu:\n",
                  d.line);
      std::printf("       baseline: %s\n", truncated(d.base).c_str());
      std::printf("       branch:   %s\n", truncated(d.branch).c_str());
    }
  }
  return 0;
}

int cmd_analyze(const std::vector<std::string>& positional,
                const Options& opts) {
  if (positional.size() != 1) {
    usage("analyze needs exactly one trace file (JSONL format)");
  }
  const std::string& file = positional[0];
  std::ifstream in(file);
  if (!in) usage(("cannot open trace file: " + file).c_str());

  // One code path, online and offline: the replay folds every event through
  // the same AnalyticsEngine a live --health-report run subscribes to the
  // bus, so analyzing a run's JSONL trace reproduces that run's report.
  AnalyticsEngine engine;
  TraceReplayStats stats;
  std::string error;
  if (!replay_trace_jsonl(in, engine, stats, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", file.c_str(), error.c_str());
    return 2;
  }
  engine.flush();
  std::fprintf(stderr, "analyzed %llu events from %s\n",
               static_cast<unsigned long long>(stats.events), file.c_str());
  return emit_health_report(engine, opts);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  std::vector<std::string> job_args;
  FaultArgs fault_args;
  std::vector<std::string> vary_args;
  FaultArgs with_fault_args;
  std::vector<std::string> positional;
  Options opts;
  std::vector<std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      // Only analyze takes a positional operand (the trace file).
      if (cmd != "analyze") usage(("unexpected argument: " + a).c_str());
      positional.push_back(a);
      continue;
    }
    a = a.substr(2);
    flags.push_back(a);
    if (i + 1 >= argc) usage(("missing value for --" + a).c_str());
    const std::string value = argv[++i];
    if (a == "job") {
      job_args.push_back(value);
    } else if (a == "flap" || a == "brownout" || a == "straggler" ||
               a == "pause" || a == "depart" || a == "arrive") {
      // Fault flags repeat; order within the command line is preserved.
      fault_args.emplace_back(a, value);
    } else if (a == "vary") {
      vary_args.push_back(value);
    } else if (a == "with-flap" || a == "with-brownout") {
      with_fault_args.emplace_back(a.substr(5), value);
    } else {
      opts[a] = value;
    }
  }
  check_options(cmd, flags, opts);
  try {
    if (cmd == "zoo") return cmd_zoo();
    if (cmd == "transports") return cmd_transports();
    if (cmd == "profile") return cmd_profile(opts);
    if (cmd == "solve") return cmd_solve(job_args, opts);
    if (cmd == "scenario") return cmd_scenario(job_args, opts);
    if (cmd == "sweep") return cmd_sweep(job_args, opts);
    if (cmd == "faults") return cmd_faults(job_args, fault_args, opts);
    if (cmd == "cluster") return cmd_cluster(fault_args, opts);
    if (cmd == "analyze") return cmd_analyze(positional, opts);
    if (cmd == "branch") return cmd_branch(vary_args, with_fault_args, opts);
  } catch (const ResumeDivergence& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 5;
  } catch (const SnapshotError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 4;
  } catch (const SimulatorWedged& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  usage(("unknown command: " + cmd).c_str());
}
