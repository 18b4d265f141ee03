// End-to-end tests of the observability layer: ring buffer semantics, the
// counter/gauge registry, the event stream a real scenario publishes, trace
// determinism (across runs and across SweepRunner thread counts), the
// structure of the serialized formats, and a byte-for-byte oracle for the
// JSONL encoder against the printf formats that define it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/scenario.h"
#include "obs/sinks.h"
#include "obs/trace_bus.h"
#include "sim/sweep.h"
#include "telemetry/recorders.h"
#include "util/rng.h"
#include "workload/model_zoo.h"

namespace ccml {
namespace {

std::vector<ScenarioJob> two_jobs() {
  const JobProfile p = ModelZoo::synthetic(
      "toy", Duration::millis(20), Rate::gbps(40) * Duration::millis(10));
  return {{"J1", p}, {"J2", p}};
}

ScenarioConfig short_config() {
  ScenarioConfig cfg;
  cfg.policy = PolicyKind::kDcqcn;
  cfg.duration = Duration::millis(300);
  cfg.warmup_iterations = 0;
  return cfg;
}

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(RingBufferSink, KeepsLatestAndCountsDropped) {
  RingBufferSink sink(4);
  for (int i = 0; i < 6; ++i) {
    TraceEvent ev;
    ev.time = TimePoint::origin() + Duration::micros(i);
    ev.kind = TraceEventKind::kIteration;
    sink.on_event(ev);
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 2u);
  const auto evs = sink.events();
  ASSERT_EQ(evs.size(), 4u);
  for (std::size_t i = 1; i < evs.size(); ++i) {
    EXPECT_LT(evs[i - 1].time, evs[i].time);  // oldest first
  }
  EXPECT_EQ(evs.front().time, TimePoint::origin() + Duration::micros(2));
}

TEST(TraceBus, CounterAndGaugeRegistry) {
  TraceBus bus;
  Counter& c = bus.counter("test.count");
  c.add();
  c.add(2);
  EXPECT_EQ(bus.counter("test.count").value(), 3);  // same object by name
  Gauge& g = bus.gauge("test.depth");
  EXPECT_FALSE(g.ever_set());
  g.set(5.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 5.0);
  const std::string summary = bus.metrics_summary();
  EXPECT_NE(summary.find("test.count"), std::string::npos);
  EXPECT_NE(summary.find("test.depth"), std::string::npos);
}

TEST(TraceBus, JobNameRegistry) {
  TraceBus bus;
  bus.register_job(JobId{0}, "alpha");
  ASSERT_NE(bus.job_name(JobId{0}), nullptr);
  EXPECT_EQ(*bus.job_name(JobId{0}), "alpha");
  EXPECT_EQ(bus.job_name(JobId{9}), nullptr);
}

TEST(TraceBus, SinkCadenceNegotiation) {
  TraceBus bus;
  std::ostringstream s1, s2;
  JsonlSinkOptions fast;
  fast.sample_cadence = Duration::millis(2);
  JsonlSinkOptions slow;
  slow.sample_cadence = Duration::millis(10);
  JsonlSink a(s1, fast), b(s2, slow);
  bus.add_sink(a);
  bus.add_sink(b);
  EXPECT_EQ(bus.sample_cadence(), Duration::millis(2));  // minimum wins
  EXPECT_TRUE(bus.sinks_quiescence_compatible());
}

TEST(ObsScenario, PublishesFullLifecycle) {
  RingBufferSink sink(1 << 20);
  TraceBus bus;
  bus.add_sink(sink);
  auto cfg = short_config();
  cfg.trace = &bus;
  const ScenarioResult result = run_dumbbell_scenario(two_jobs(), cfg);
  bus.flush();

  std::size_t starts = 0, finishes = 0, phases = 0, iters = 0, cnps = 0;
  for (const TraceEvent& ev : sink.events()) {
    switch (ev.kind) {
      case TraceEventKind::kFlowStart: ++starts; break;
      case TraceEventKind::kFlowFinish: ++finishes; break;
      case TraceEventKind::kPhase: ++phases; break;
      case TraceEventKind::kIteration: ++iters; break;
      case TraceEventKind::kRateDecrease: ++cnps; break;
      default: break;
    }
  }
  EXPECT_GT(starts, 0u);
  EXPECT_GT(finishes, 0u);
  EXPECT_GT(phases, 0u);
  EXPECT_GT(cnps, 0u);  // two DCQCN jobs share the bottleneck -> CNPs fire

  std::size_t result_iters = 0;
  for (const auto& j : result.jobs) result_iters += j.iterations;
  EXPECT_EQ(iters, result_iters);
  EXPECT_EQ(bus.counter("jobs.iterations").value(),
            static_cast<std::int64_t>(result_iters));
  EXPECT_EQ(bus.counter("net.flows_started").value(),
            static_cast<std::int64_t>(starts));
  EXPECT_GT(bus.counter("dcqcn.cnp").value(), 0);
}

TEST(ObsScenario, FaultEventsReachTheBus) {
  RingBufferSink sink(1 << 20);
  TraceBus bus;
  bus.add_sink(sink);
  auto cfg = short_config();
  cfg.trace = &bus;
  FaultEvent down;
  down.kind = FaultKind::kLinkDown;
  down.at = TimePoint::origin() + Duration::millis(60);
  down.link_name = "swL->swR";
  FaultEvent up = down;
  up.kind = FaultKind::kLinkUp;
  up.at = TimePoint::origin() + Duration::millis(120);
  cfg.faults.events = {down, up};
  run_dumbbell_scenario(two_jobs(), cfg);
  bus.flush();

  bool saw_apply = false, saw_recover = false;
  for (const TraceEvent& ev : sink.events()) {
    if (ev.kind == TraceEventKind::kFaultApply) saw_apply = true;
    if (ev.kind == TraceEventKind::kFaultRecover) saw_recover = true;
  }
  EXPECT_TRUE(saw_apply);
  EXPECT_TRUE(saw_recover);
  EXPECT_EQ(bus.counter("faults.applied").value(), 1);
  EXPECT_EQ(bus.counter("faults.recovered").value(), 1);
}

TEST(ObsScenario, IterationRecorderFedByBus) {
  TraceBus bus;
  IterationRecorder rec;
  rec.attach(bus);
  auto cfg = short_config();
  cfg.trace = &bus;
  const ScenarioResult result = run_dumbbell_scenario(two_jobs(), cfg);
  bus.flush();
  ASSERT_TRUE(rec.has(JobId{0}));
  ASSERT_TRUE(rec.has(JobId{1}));
  EXPECT_EQ(rec.cdf(JobId{0}).count(), result.jobs[0].iterations);
}

std::string run_jsonl_once() {
  std::ostringstream out;
  TraceBus bus;
  JsonlSinkOptions opts;
  opts.sample_cadence = Duration::millis(5);
  JsonlSink sink(out, opts);
  bus.add_sink(sink);
  auto cfg = short_config();
  cfg.trace = &bus;
  run_dumbbell_scenario(two_jobs(), cfg);
  bus.flush();
  return out.str();
}

TEST(ObsDeterminism, JsonlTraceIsByteIdenticalAcrossRuns) {
  const std::string a = run_jsonl_once();
  const std::string b = run_jsonl_once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(ObsDeterminism, JsonlTraceIsByteIdenticalAcrossSweepThreadCounts) {
  const auto sweep_traces = [](unsigned threads) {
    SweepRunner runner(SweepOptions{threads});
    return runner.map<std::string>(
        3, [](std::size_t) { return run_jsonl_once(); });
  };
  const auto serial = sweep_traces(1);
  const auto parallel = sweep_traces(3);
  ASSERT_EQ(serial.size(), 3u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_FALSE(serial[i].empty());
    EXPECT_EQ(serial[i], parallel[i]) << "grid point " << i;
    EXPECT_EQ(serial[i], serial[0]);  // same inputs -> same trace
  }
}

TEST(ObsChromeTrace, StructureIsBalanced) {
  std::ostringstream out;
  TraceBus bus;
  ChromeTraceSink sink(out);
  bus.add_sink(sink);
  auto cfg = short_config();
  cfg.trace = &bus;
  run_dumbbell_scenario(two_jobs(), cfg);
  bus.flush();
  const std::string trace = out.str();

  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"J1\""), std::string::npos);  // registered job name
  EXPECT_GT(count_of(trace, "\"ph\":\"B\""), 0u);
  EXPECT_EQ(count_of(trace, "\"ph\":\"B\""), count_of(trace, "\"ph\":\"E\""));
  EXPECT_EQ(count_of(trace, "\"ph\":\"b\""), count_of(trace, "\"ph\":\"e\""));
  EXPECT_GT(count_of(trace, "\"ph\":\"C\""), 0u);  // link counter tracks
  EXPECT_GT(count_of(trace, "\"ph\":\"i\""), 0u);  // instant events
}

TEST(ObsChromeTrace, LongJobNamesStayWholeAndWellFormed) {
  // A counter record carries the job's name; a name longer than any fixed
  // record buffer must come out whole and leave the record closed.
  std::ostringstream out;
  TraceBus bus;
  const std::string name(400, 'J');
  bus.register_job(JobId{0}, name);
  ChromeTraceSink sink(out);
  bus.add_sink(sink);
  TraceEvent ev;
  ev.time = TimePoint::origin() + Duration::millis(5);
  ev.kind = TraceEventKind::kLinkThroughput;
  ev.link = LinkId{3};
  ev.job = JobId{0};
  ev.value = 4e10;
  bus.emit(ev);
  bus.flush();
  const std::string record =
      "{\"name\":\"link3 " + name +
      " (Gbps)\",\"ph\":\"C\",\"pid\":2,\"tid\":0,\"ts\":5000.000,"
      "\"args\":{\"Gbps\":40.0000}}";
  EXPECT_NE(out.str().find(",\n" + record + "\n]"), std::string::npos)
      << out.str();
}

// --- JSONL encoder oracle --------------------------------------------------

/// printf-style append into a string of any length.
template <class... Args>
void appendf(std::string& out, const char* fmt, Args... args) {
  const int n = std::snprintf(nullptr, 0, fmt, args...);
  ASSERT_GE(n, 0);
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(n) + 1);
  std::snprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt,
                args...);
  out.resize(at + static_cast<std::size_t>(n));
}

/// The JSONL line format as first defined: snprintf with these formats.
/// JsonlSink must reproduce it byte for byte.
std::string reference_jsonl_line(const TraceEvent& ev) {
  std::string out;
  appendf(out, "{\"t_us\":%.3f,\"kind\":\"%s\"",
          ev.time.since_origin().to_micros(), to_string(ev.kind));
  if (ev.job.valid()) appendf(out, ",\"job\":%d", ev.job.value);
  if (ev.flow.valid()) {
    appendf(out, ",\"flow\":%lld", static_cast<long long>(ev.flow.value));
  }
  if (ev.link.valid()) appendf(out, ",\"link\":%d", ev.link.value);
  if (ev.link_count > 1) {
    appendf(out, ",\"links\":[%d", ev.links[0].value);
    for (int i = 1; i < ev.link_count; ++i) {
      appendf(out, ",%d", ev.links[i].value);
    }
    out += "]";
  }
  if (ev.value != 0.0) appendf(out, ",\"value\":%.17g", ev.value);
  if (ev.value2 != 0.0) appendf(out, ",\"value2\":%.17g", ev.value2);
  if (ev.detail != nullptr) appendf(out, ",\"detail\":\"%s\"", ev.detail);
  out += "}\n";
  return out;
}

/// A `detail` longer than any line buffer a sink might keep.
const std::string& long_detail() {
  static const std::string s = [] {
    std::string d;
    for (int i = 0; i < 450; ++i) d += static_cast<char>('a' + i % 26);
    return d;
  }();
  return s;
}

/// Doubles that stress %.17g: signed zeros, the smallest subnormal and
/// normal, non-terminating binary fractions, an integer past 2^53, the
/// extremes and the non-finite values.
double edge_value(Rng& rng) {
  static const double kEdges[] = {
      0.0,
      -0.0,
      5e-324,
      DBL_MIN,
      0.1,
      1.0 / 3.0,
      9007199254740993.0,  // 2^53 + 1, rounds to 2^53
      -1e-300,
      DBL_MAX,
      -DBL_MAX,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
  };
  constexpr auto kCount = static_cast<std::int64_t>(std::size(kEdges));
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return kEdges[rng.uniform_int(0, kCount - 1)];
    case 1:  // any bit pattern: every exponent, NaN payloads
      return std::bit_cast<double>(
          rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                          std::numeric_limits<std::int64_t>::max()));
    case 2:  // the magnitudes traces carry: rates, bytes, ms, fractions
      return std::ldexp(rng.uniform(-1.0, 1.0),
                        static_cast<int>(rng.uniform_int(-20, 40)));
    default:
      return static_cast<double>(rng.uniform_int(-1000, 1000000));
  }
}

TraceEvent random_event(Rng& rng) {
  static const char* const kDetails[] = {"compute", "gate-wait", "comm",
                                         "link-down", "done", ""};
  TraceEvent ev;
  // Times up to ~2^50 ns (13 sim-days), from a random binary magnitude.
  const int bits = static_cast<int>(rng.uniform_int(0, 50));
  ev.time = TimePoint::from_ns(
      rng.uniform_int(0, (std::int64_t{1} << bits) - 1));
  ev.kind = static_cast<TraceEventKind>(rng.uniform_int(
      0, static_cast<std::int64_t>(TraceEventKind::kCcPhase)));
  const auto id32 = [&] {
    switch (rng.uniform_int(0, 3)) {
      case 0: return std::int32_t{-1};  // unset
      case 1: return std::numeric_limits<std::int32_t>::min();
      case 2: return std::numeric_limits<std::int32_t>::max();
      default: return static_cast<std::int32_t>(rng.uniform_int(0, 5000));
    }
  };
  ev.job = JobId{id32()};
  ev.link = LinkId{id32()};
  switch (rng.uniform_int(0, 3)) {
    case 0: ev.flow = FlowId{-1}; break;
    case 1: ev.flow = FlowId{std::numeric_limits<std::int64_t>::max()}; break;
    case 2: ev.flow = FlowId{std::numeric_limits<std::int64_t>::min()}; break;
    default: ev.flow = FlowId{rng.uniform_int(0, 1 << 30)}; break;
  }
  ev.link_count = static_cast<std::uint8_t>(
      rng.uniform_int(0, kTraceMaxContendedLinks));
  for (int i = 0; i < ev.link_count; ++i) ev.links[i] = LinkId{id32()};
  ev.value = rng.chance(0.2) ? 0.0 : edge_value(rng);
  ev.value2 = rng.chance(0.4) ? 0.0 : edge_value(rng);
  const auto d = rng.uniform_int(0, 7);
  ev.detail = d < 6 ? kDetails[d] : d == 6 ? long_detail().c_str() : nullptr;
  return ev;
}

TEST(ObsJsonlEncoder, MatchesPrintfFormatsByteForByte) {
  std::ostringstream out;
  JsonlSink sink(out);
  Rng rng(0x15eedULL);
  std::size_t long_lines = 0;
  for (int i = 0; i < 20000; ++i) {
    const TraceEvent ev = random_event(rng);
    sink.on_event(ev);
    const std::string want = reference_jsonl_line(ev);
    ASSERT_EQ(out.str(), want) << "event " << i;
    long_lines += want.size() > 400 ? 1 : 0;
    out.str("");
  }
  EXPECT_GT(long_lines, 100u);  // the long detail was drawn and came out
}

TEST(ObsJsonlEncoder, EveryKindAndEdgeValueInOneLine) {
  // Deterministic coverage on top of the random oracle: every kind with
  // every field set, at the largest time, the edge values and the long
  // detail, so the longest line the format can produce is checked whole.
  std::ostringstream out;
  JsonlSink sink(out);
  const double values[] = {5e-324, DBL_MIN, 0.1, 1.0 / 3.0,
                           9007199254740993.0, -1e-300, DBL_MAX,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  const auto last = static_cast<int>(TraceEventKind::kCcPhase);
  for (int k = 0; k <= last; ++k) {
    for (const double v : values) {
      TraceEvent ev;
      ev.time = TimePoint::from_ns((std::int64_t{1} << 50) - 1);
      ev.kind = static_cast<TraceEventKind>(k);
      ev.job = JobId{std::numeric_limits<std::int32_t>::max()};
      ev.flow = FlowId{std::numeric_limits<std::int64_t>::max()};
      ev.link = LinkId{std::numeric_limits<std::int32_t>::max()};
      ev.link_count = kTraceMaxContendedLinks;
      for (LinkId& l : ev.links) l = LinkId{-2147483647 - 1};
      ev.value = v;
      ev.value2 = -v;
      ev.detail = long_detail().c_str();
      sink.on_event(ev);
      const std::string line = out.str();
      ASSERT_EQ(line, reference_jsonl_line(ev)) << "kind " << k;
      EXPECT_NE(line.find(long_detail() + "\"}\n"), std::string::npos);
      out.str("");
    }
  }
}

// --- Chrome encoder oracle -------------------------------------------------

/// The Chrome trace_event sink as first written, formatting every record
/// with snprintf (into a string of any length rather than a fixed buffer):
/// the reference ChromeTraceSink must match byte for byte.
class ReferenceChromeSink : public TraceSink {
 public:
  explicit ReferenceChromeSink(std::ostream& out) : out_(out) {}

  void attached(TraceBus& bus) override { bus_ = &bus; }
  Duration sample_cadence() const override { return Duration::millis(5); }

  void on_event(const TraceEvent& ev) override {
    const double ts = ev.time.since_origin().to_micros();
    if (ts > last_ts_) last_ts_ = ts;
    const int tid = ev.job.valid() ? ev.job.value : 999;
    const auto add = [&](const char* fmt, auto... args) {
      std::string rec;
      appendf(rec, fmt, args...);
      events_.push_back(std::move(rec));
    };
    const long long flow = ev.flow.value;
    switch (ev.kind) {
      case TraceEventKind::kPhase: {
        tracks_.insert(tid);
        const auto open = open_phase_.find(tid);
        if (open != open_phase_.end() && open->second != nullptr) {
          add("{\"name\":\"%s\",\"ph\":\"E\",\"pid\":%d,\"tid\":%d,"
              "\"ts\":%.3f}",
              open->second, 1, tid, ts);
        }
        const char* name = ev.detail != nullptr ? ev.detail : "phase";
        if (ev.detail != nullptr && std::string_view(ev.detail) != "done") {
          add("{\"name\":\"%s\",\"ph\":\"B\",\"pid\":%d,\"tid\":%d,"
              "\"ts\":%.3f}",
              name, 1, tid, ts);
          open_phase_[tid] = name;
        } else {
          open_phase_[tid] = nullptr;
        }
        break;
      }
      case TraceEventKind::kIteration:
        tracks_.insert(tid);
        add("{\"name\":\"iteration\",\"ph\":\"i\",\"s\":\"t\","
            "\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
            "\"args\":{\"ms\":%.3f,\"index\":%.0f}}",
            1, tid, ts, ev.value, ev.value2);
        break;
      case TraceEventKind::kGateOpen:
        tracks_.insert(tid);
        add("{\"name\":\"gate-open\",\"ph\":\"i\",\"s\":\"t\","
            "\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
            "\"args\":{\"waited_ms\":%.3f}}",
            1, tid, ts, ev.value);
        break;
      case TraceEventKind::kFlowStart:
        tracks_.insert(tid);
        add("{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"b\","
            "\"id\":%lld,\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
            "\"args\":{\"bytes\":%.0f}}",
            flow, 1, tid, ts, ev.value);
        break;
      case TraceEventKind::kFlowFinish:
      case TraceEventKind::kFlowAbort:
        add("{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"e\","
            "\"id\":%lld,\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
            "\"args\":{\"%s\":%.3f}}",
            flow, 1, tid, ts,
            ev.kind == TraceEventKind::kFlowAbort ? "aborted" : "duration_ms",
            ev.kind == TraceEventKind::kFlowAbort ? 1.0 : ev.value2);
        break;
      case TraceEventKind::kFlowReroute:
      case TraceEventKind::kFlowPark:
      case TraceEventKind::kFlowUnpark:
        add("{\"name\":\"%s\",\"cat\":\"flow\",\"ph\":\"n\","
            "\"id\":%lld,\"pid\":%d,\"tid\":%d,\"ts\":%.3f}",
            to_string(ev.kind), flow, 1, tid, ts);
        break;
      case TraceEventKind::kRateDecrease:
        tracks_.insert(tid);
        add("{\"name\":\"CNP\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,"
            "\"tid\":%d,\"ts\":%.3f,"
            "\"args\":{\"rate_gbps\":%.3f,\"alpha\":%.4f}}",
            1, tid, ts, ev.value * 1e-9, ev.value2);
        break;
      case TraceEventKind::kRateTimer:
        tracks_.insert(tid);
        add("{\"name\":\"rate-timer\",\"ph\":\"i\",\"s\":\"t\","
            "\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
            "\"args\":{\"rate_gbps\":%.3f}}",
            1, tid, ts, ev.value * 1e-9);
        break;
      case TraceEventKind::kLinkThroughput:
        add("{\"name\":\"link%d %s (Gbps)\",\"ph\":\"C\",\"pid\":%d,"
            "\"tid\":0,\"ts\":%.3f,\"args\":{\"Gbps\":%.4f}}",
            ev.link.value,
            (ev.job.valid() ? label(ev.job) : std::string("total")).c_str(), 2,
            ts, ev.value * 1e-9);
        break;
      case TraceEventKind::kLinkQueue:
        add("{\"name\":\"link%d queue (KB)\",\"ph\":\"C\",\"pid\":%d,"
            "\"tid\":0,\"ts\":%.3f,\"args\":{\"KB\":%.3f}}",
            ev.link.value, 2, ts, ev.value * 1e-3);
        break;
      case TraceEventKind::kFaultApply:
      case TraceEventKind::kFaultRecover:
        add("{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"g\",\"pid\":%d,"
            "\"tid\":0,\"ts\":%.3f,\"args\":{\"factor\":%.3f}}",
            ev.detail != nullptr ? ev.detail : to_string(ev.kind), 3, ts,
            ev.value);
        break;
      case TraceEventKind::kSolve:
        add("{\"name\":\"solve\",\"ph\":\"i\",\"s\":\"g\",\"pid\":%d,"
            "\"tid\":0,\"ts\":%.3f,"
            "\"args\":{\"compatible\":%.0f,\"violation\":%.4f}}",
            3, ts, ev.value, ev.value2);
        break;
      case TraceEventKind::kTraceDrops:
        add("{\"name\":\"trace-drops\",\"ph\":\"i\",\"s\":\"g\","
            "\"pid\":%d,\"tid\":0,\"ts\":%.3f,"
            "\"args\":{\"dropped\":%.0f}}",
            3, ts, ev.value);
        break;
      case TraceEventKind::kSoloBaseline:
        add("{\"name\":\"solo-baseline\",\"ph\":\"i\",\"s\":\"g\","
            "\"pid\":%d,\"tid\":0,\"ts\":%.3f,"
            "\"args\":{\"job\":%d,\"solo_ms\":%.6g}}",
            3, ts, ev.job.value, ev.value);
        break;
      case TraceEventKind::kAnomalyPhaseDrift:
      case TraceEventKind::kAnomalyQueueOscillation:
      case TraceEventKind::kAnomalyStarvation:
      case TraceEventKind::kAnomalyCongestionCollapse:
        add("{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"g\",\"pid\":%d,"
            "\"tid\":0,\"ts\":%.3f,"
            "\"args\":{\"value\":%.6g,\"value2\":%.6g}}",
            to_string(ev.kind), 3, ts, ev.value, ev.value2);
        break;
      case TraceEventKind::kHistogramSummary:
        add("{\"name\":\"histogram-summary\",\"ph\":\"i\",\"s\":\"g\","
            "\"pid\":%d,\"tid\":0,\"ts\":%.3f,"
            "\"args\":{\"p99\":%.6g,\"count\":%.0f}}",
            3, ts, ev.value, ev.value2);
        break;
      case TraceEventKind::kJobSubmit:
      case TraceEventKind::kJobAdmit:
      case TraceEventKind::kJobReject:
      case TraceEventKind::kJobDepart:
        add("{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"g\",\"pid\":%d,"
            "\"tid\":0,\"ts\":%.3f,"
            "\"args\":{\"job\":%d,\"value\":%.3f}}",
            to_string(ev.kind), 3, ts, ev.job.value, ev.value);
        break;
      case TraceEventKind::kCkptWrite:
      case TraceEventKind::kCkptBranch:
      case TraceEventKind::kCcDecision:
      case TraceEventKind::kCcPhase:
        break;
    }
  }

  void flush() override {
    for (const auto& [tid, name] : open_phase_) {
      if (name == nullptr) continue;
      std::string rec;
      appendf(rec,
              "{\"name\":\"%s\",\"ph\":\"E\",\"pid\":%d,\"tid\":%d,"
              "\"ts\":%.3f}",
              name, 1, tid, last_ts_);
      events_.push_back(std::move(rec));
    }
    out_ << "{\"traceEvents\":[\n"
         << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
            "\"tid\":0,\"args\":{\"name\":\"sim\"}},\n"
         << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
            "\"tid\":0,\"args\":{\"name\":\"links\"}},\n"
         << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,"
            "\"tid\":0,\"args\":{\"name\":\"control\"}}";
    for (const int tid : tracks_) {
      out_ << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
           << "\"tid\":" << tid << ",\"args\":{\"name\":\""
           << label(JobId{tid == 999 ? -1 : tid}) << "\"}}";
    }
    for (const std::string& ev : events_) out_ << ",\n" << ev;
    out_ << "\n],\"displayTimeUnit\":\"ms\"}\n";
  }

 private:
  std::string label(JobId job) const {
    if (const std::string* name = bus_->job_name(job)) {
      std::string out;
      for (const char c : *name) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
      }
      return out;
    }
    return job.valid() ? "job " + std::to_string(job.value) : "background";
  }

  std::ostream& out_;
  TraceBus* bus_ = nullptr;
  std::vector<std::string> events_;
  std::map<std::int32_t, const char*> open_phase_;
  std::set<std::int32_t> tracks_;
  double last_ts_ = 0.0;
};

TEST(ObsChromeEncoder, MatchesPrintfFormatsByteForByte) {
  std::ostringstream got, want;
  TraceBus bus;
  bus.register_job(JobId{0}, "alpha");
  bus.register_job(JobId{1}, std::string(400, 'J'));
  bus.register_job(JobId{2}, "quo\"te back\\slash new\nline");
  ChromeTraceSink sink(got);
  ReferenceChromeSink reference(want);
  bus.add_sink(sink);
  bus.add_sink(reference);
  Rng rng(0xc4a0eULL);
  const std::int32_t jobs[] = {-1, 0, 1, 2, 7,
                               std::numeric_limits<std::int32_t>::max()};
  for (int i = 0; i < 5000; ++i) {
    TraceEvent ev = random_event(rng);
    ev.job = JobId{jobs[rng.uniform_int(0, std::size(jobs) - 1)]};
    bus.emit(ev);
  }
  bus.flush();
  const std::string a = got.str(), b = want.str();
  // The traces are megabytes: show where they first differ, not all of it.
  const auto at = static_cast<std::size_t>(
      std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
      a.begin());
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(at, a.size()) << "first difference at byte " << at << ":\n"
                          << a.substr(at > 100 ? at - 100 : 0, 200)
                          << "\nexpected:\n"
                          << b.substr(at > 100 ? at - 100 : 0, 200);
  EXPECT_NE(a.find(std::string(400, 'J') + " (Gbps)"), std::string::npos);
  EXPECT_NE(a.find("quo\\\"te back\\\\slash newline"), std::string::npos);
}

TEST(ObsChromeTrace, UninstrumentedRunWritesNothing) {
  auto cfg = short_config();  // no trace bus attached
  const ScenarioResult result = run_dumbbell_scenario(two_jobs(), cfg);
  EXPECT_GT(result.jobs[0].iterations, 0u);
}

}  // namespace
}  // namespace ccml
