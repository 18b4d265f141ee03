#include "obs/sinks.h"

#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string_view>

namespace ccml {

namespace {

// Chrome trace process ids: one "process" per layer keeps Perfetto's track
// tree tidy.
constexpr int kSimPid = 1;    // job threads: phases, iterations, flows, CC
constexpr int kLinksPid = 2;  // counter tracks: sampled link series
constexpr int kCtrlPid = 3;   // control plane: faults, solver runs

// Thread id for events carrying no job attribution (background traffic).
constexpr int kUnattributedTid = 999;

int track_of(JobId job) { return job.valid() ? job.value : kUnattributedTid; }

std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// printf "%.<precision>f" of `value`.
struct Fixed {
  double value;
  int precision;
};

/// printf "%.<precision>g" of `value`.
struct General {
  double value;
  int precision;
};

/// Builds one serialized record in a reused string.  std::to_chars with an
/// explicit format and precision is specified to write exactly what printf
/// writes for "%.<p>f" / "%.<p>g" in the "C" locale, and integer to_chars
/// what "%d" writes, so the records are byte-identical to the snprintf
/// formats the trace formats were defined by — without parsing a format
/// string or consulting the locale per field.  The string grows as needed:
/// no field (a long job name, a `detail` tag) is ever truncated.
class Line {
 public:
  explicit Line(std::string& out) : out_(out) { out_.clear(); }

  void clear() { out_.clear(); }

  Line& operator<<(std::string_view s) {
    out_.append(s);
    return *this;
  }
  Line& operator<<(char c) {
    out_.push_back(c);
    return *this;
  }
  Line& operator<<(std::int32_t v) { return put(v); }
  Line& operator<<(std::int64_t v) { return put(v); }
  Line& operator<<(Fixed f) {
    return put(f.value, std::chars_format::fixed, f.precision);
  }
  Line& operator<<(General g) {
    return put(g.value, std::chars_format::general, g.precision);
  }

 private:
  template <class... Args>
  Line& put(Args... args) {
    // Room for the longest number written here: a fixed-format DBL_MAX has
    // a sign, 309 integer digits, a point and `precision` decimals.
    char buf[512];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), args...);
    if (ec != std::errc{}) {
      throw std::length_error("trace sink: number too long to serialize");
    }
    out_.append(buf, end);
    return *this;
  }

  std::string& out_;
};

}  // namespace

// --- RingBufferSink --------------------------------------------------------

RingBufferSink::RingBufferSink(std::size_t capacity)
    : ring_(capacity > 0 ? capacity : 1) {}

void RingBufferSink::on_event(const TraceEvent& ev) {
  if (wrapped_) ++dropped_;
  ring_[head_] = ev;
  if (++head_ == ring_.size()) {
    head_ = 0;
    wrapped_ = true;
  }
}

std::vector<TraceEvent> RingBufferSink::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  if (wrapped_) {
    out.insert(out.end(), ring_.begin() + head_, ring_.end());
  }
  out.insert(out.end(), ring_.begin(), ring_.begin() + head_);
  return out;
}

// --- JsonlSink -------------------------------------------------------------

JsonlSink::JsonlSink(std::ostream& out, JsonlSinkOptions opts)
    : out_(out), opts_(opts) {}

void JsonlSink::on_event(const TraceEvent& ev) {
  Line line(line_);
  line << "{\"t_us\":" << Fixed{ev.time.since_origin().to_micros(), 3}
       << ",\"kind\":\"" << to_string(ev.kind) << '"';
  if (ev.job.valid()) line << ",\"job\":" << ev.job.value;
  if (ev.flow.valid()) line << ",\"flow\":" << ev.flow.value;
  if (ev.link.valid()) line << ",\"link\":" << ev.link.value;
  // The full contended-link set, only when it says more than "link" alone
  // (a single-bottleneck route serializes exactly as before).
  if (ev.link_count > 1) {
    line << ",\"links\":[" << ev.links[0].value;
    for (int i = 1; i < ev.link_count; ++i) line << ',' << ev.links[i].value;
    line << ']';
  }
  if (ev.value != 0.0) line << ",\"value\":" << General{ev.value, 17};
  if (ev.value2 != 0.0) line << ",\"value2\":" << General{ev.value2, 17};
  if (ev.detail != nullptr) line << ",\"detail\":\"" << ev.detail << '"';
  line << "}\n";
  out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
}

// --- ChromeTraceSink -------------------------------------------------------

namespace {

/// `{"name":"<name>","ph":"<ph>","pid":1,"tid":<tid>,"ts":<ts>}`: a phase
/// slice edge on a job's thread.
void phase_slice(Line& line, std::string_view name, char ph, int tid,
                 double ts) {
  line << "{\"name\":\"" << name << "\",\"ph\":\"" << ph
       << "\",\"pid\":" << kSimPid << ",\"tid\":" << tid
       << ",\"ts\":" << Fixed{ts, 3} << '}';
}

/// `{"name":"<name>","ph":"i","s":"t","pid":1,"tid":<tid>,"ts":<ts>,
/// "args":{` — a thread-scoped instant on a job's track; the caller writes
/// the arguments and closes both objects.
void job_instant(Line& line, std::string_view name, int tid, double ts) {
  line << "{\"name\":\"" << name << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":"
       << kSimPid << ",\"tid\":" << tid << ",\"ts\":" << Fixed{ts, 3}
       << ",\"args\":{";
}

/// `{"name":"<name>","ph":"i","s":"g","pid":3,"tid":0,"ts":<ts>,"args":{`
/// — a global instant in the control process.
void control_instant(Line& line, std::string_view name, double ts) {
  line << "{\"name\":\"" << name << "\",\"ph\":\"i\",\"s\":\"g\",\"pid\":"
       << kCtrlPid << ",\"tid\":0,\"ts\":" << Fixed{ts, 3} << ",\"args\":{";
}

/// `{"name":"<name>","cat":"flow","ph":"<ph>","id":<flow>,"pid":1,
/// "tid":<tid>,"ts":<ts>` — an async flow-lifecycle record, left open.
void flow_record(Line& line, std::string_view name, char ph,
                 std::int64_t flow, int tid, double ts) {
  line << "{\"name\":\"" << name << "\",\"cat\":\"flow\",\"ph\":\"" << ph
       << "\",\"id\":" << flow << ",\"pid\":" << kSimPid
       << ",\"tid\":" << tid << ",\"ts\":" << Fixed{ts, 3};
}

}  // namespace

ChromeTraceSink::ChromeTraceSink(std::ostream& out,
                                 ChromeTraceSinkOptions opts)
    : out_(out), opts_(opts) {}

std::string ChromeTraceSink::job_label(JobId job) const {
  if (bus_ != nullptr) {
    if (const std::string* name = bus_->job_name(job)) {
      return escape_json(*name);
    }
  }
  return job.valid() ? "job " + std::to_string(job.value) : "background";
}

std::string ChromeTraceSink::series_label(const TraceEvent& ev) const {
  return ev.job.valid() ? job_label(ev.job) : std::string("total");
}

void ChromeTraceSink::on_event(const TraceEvent& ev) {
  const double ts = ev.time.since_origin().to_micros();
  if (ts > last_ts_) last_ts_ = ts;
  const int tid = track_of(ev.job);
  Line line(line_);
  switch (ev.kind) {
    case TraceEventKind::kPhase: {
      job_tracks_.insert(tid);
      const auto open = open_phase_.find(tid);
      if (open != open_phase_.end() && open->second != nullptr) {
        phase_slice(line, open->second, 'E', tid, ts);
        events_.push_back(line_);
        line.clear();
      }
      const char* name = ev.detail != nullptr ? ev.detail : "phase";
      if (ev.detail != nullptr && std::string_view(ev.detail) != "done") {
        phase_slice(line, name, 'B', tid, ts);
        open_phase_[tid] = name;
      } else {
        open_phase_[tid] = nullptr;
      }
      break;
    }
    case TraceEventKind::kIteration:
      job_tracks_.insert(tid);
      job_instant(line, "iteration", tid, ts);
      line << "\"ms\":" << Fixed{ev.value, 3} << ",\"index\":"
           << Fixed{ev.value2, 0} << "}}";
      break;
    case TraceEventKind::kGateOpen:
      job_tracks_.insert(tid);
      job_instant(line, "gate-open", tid, ts);
      line << "\"waited_ms\":" << Fixed{ev.value, 3} << "}}";
      break;
    case TraceEventKind::kFlowStart:
      job_tracks_.insert(tid);
      flow_record(line, "flow", 'b', ev.flow.value, tid, ts);
      line << ",\"args\":{\"bytes\":" << Fixed{ev.value, 0} << "}}";
      break;
    case TraceEventKind::kFlowFinish:
    case TraceEventKind::kFlowAbort:
      flow_record(line, "flow", 'e', ev.flow.value, tid, ts);
      if (ev.kind == TraceEventKind::kFlowAbort) {
        line << ",\"args\":{\"aborted\":1.000}}";
      } else {
        line << ",\"args\":{\"duration_ms\":" << Fixed{ev.value2, 3} << "}}";
      }
      break;
    case TraceEventKind::kFlowReroute:
    case TraceEventKind::kFlowPark:
    case TraceEventKind::kFlowUnpark:
      flow_record(line, to_string(ev.kind), 'n', ev.flow.value, tid, ts);
      line << '}';
      break;
    case TraceEventKind::kRateDecrease:
      job_tracks_.insert(tid);
      job_instant(line, "CNP", tid, ts);
      line << "\"rate_gbps\":" << Fixed{ev.value * 1e-9, 3} << ",\"alpha\":"
           << Fixed{ev.value2, 4} << "}}";
      break;
    case TraceEventKind::kRateTimer:
      job_tracks_.insert(tid);
      job_instant(line, "rate-timer", tid, ts);
      line << "\"rate_gbps\":" << Fixed{ev.value * 1e-9, 3} << "}}";
      break;
    case TraceEventKind::kLinkThroughput:
      line << "{\"name\":\"link" << ev.link.value << ' ' << series_label(ev)
           << " (Gbps)\",\"ph\":\"C\",\"pid\":" << kLinksPid
           << ",\"tid\":0,\"ts\":" << Fixed{ts, 3} << ",\"args\":{\"Gbps\":"
           << Fixed{ev.value * 1e-9, 4} << "}}";
      break;
    case TraceEventKind::kLinkQueue:
      line << "{\"name\":\"link" << ev.link.value
           << " queue (KB)\",\"ph\":\"C\",\"pid\":" << kLinksPid
           << ",\"tid\":0,\"ts\":" << Fixed{ts, 3} << ",\"args\":{\"KB\":"
           << Fixed{ev.value * 1e-3, 3} << "}}";
      break;
    case TraceEventKind::kFaultApply:
    case TraceEventKind::kFaultRecover:
      control_instant(line,
                      ev.detail != nullptr ? ev.detail : to_string(ev.kind),
                      ts);
      line << "\"factor\":" << Fixed{ev.value, 3} << "}}";
      break;
    case TraceEventKind::kSolve:
      control_instant(line, "solve", ts);
      line << "\"compatible\":" << Fixed{ev.value, 0} << ",\"violation\":"
           << Fixed{ev.value2, 4} << "}}";
      break;
    case TraceEventKind::kTraceDrops:
      // Self-reported observability loss (async ring overflow); global
      // instant in the control process so trace holes are visible.
      control_instant(line, "trace-drops", ts);
      line << "\"dropped\":" << Fixed{ev.value, 0} << "}}";
      break;
    case TraceEventKind::kSoloBaseline:
      control_instant(line, "solo-baseline", ts);
      line << "\"job\":" << ev.job.value << ",\"solo_ms\":"
           << General{ev.value, 6} << "}}";
      break;
    case TraceEventKind::kAnomalyPhaseDrift:
    case TraceEventKind::kAnomalyQueueOscillation:
    case TraceEventKind::kAnomalyStarvation:
    case TraceEventKind::kAnomalyCongestionCollapse:
      // Analytics-derived anomalies: global instants in the control process
      // so degradations line up against faults and solver runs.
      control_instant(line, to_string(ev.kind), ts);
      line << "\"value\":" << General{ev.value, 6} << ",\"value2\":"
           << General{ev.value2, 6} << "}}";
      break;
    case TraceEventKind::kHistogramSummary:
      control_instant(line, "histogram-summary", ts);
      line << "\"p99\":" << General{ev.value, 6} << ",\"count\":"
           << Fixed{ev.value2, 0} << "}}";
      break;
    case TraceEventKind::kJobSubmit:
    case TraceEventKind::kJobAdmit:
    case TraceEventKind::kJobReject:
    case TraceEventKind::kJobDepart:
      // Orchestrator lifecycle marks live in the control process so churn is
      // visible next to faults and solver runs.
      control_instant(line, to_string(ev.kind), ts);
      line << "\"job\":" << ev.job.value << ",\"value\":"
           << Fixed{ev.value, 3} << "}}";
      break;
    case TraceEventKind::kCkptWrite:
    case TraceEventKind::kCkptBranch:
    case TraceEventKind::kCcDecision:
    case TraceEventKind::kCcPhase:
      // Not drawn on the timeline.  Listed so a new kind warns (-Wswitch).
      break;
  }
  if (!line_.empty()) events_.push_back(line_);
}

void ChromeTraceSink::flush() {
  if (flushed_) return;
  flushed_ = true;
  // Close phase slices still open at the end of the run.
  for (const auto& [tid, name] : open_phase_) {
    if (name == nullptr) continue;
    Line line(line_);
    phase_slice(line, name, 'E', tid, last_ts_);
    events_.push_back(line_);
  }
  out_ << "{\"traceEvents\":[\n";
  // Metadata first: process / thread display names.
  out_ << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kSimPid
       << ",\"tid\":0,\"args\":{\"name\":\"sim\"}},\n";
  out_ << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kLinksPid
       << ",\"tid\":0,\"args\":{\"name\":\"links\"}},\n";
  out_ << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kCtrlPid
       << ",\"tid\":0,\"args\":{\"name\":\"control\"}}";
  for (const int tid : job_tracks_) {
    const JobId job{tid == kUnattributedTid ? -1 : tid};
    out_ << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kSimPid
         << ",\"tid\":" << tid << ",\"args\":{\"name\":\""
         << job_label(job) << "\"}}";
  }
  for (const std::string& ev : events_) {
    out_ << ",\n" << ev;
  }
  out_ << "\n],\"displayTimeUnit\":\"ms\"}\n";
  out_.flush();
}

}  // namespace ccml
