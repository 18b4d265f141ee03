#include "cc/table.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ckpt/snapshot.h"
#include "net/network.h"
#include "obs/trace_bus.h"

namespace ccml {

namespace {

[[noreturn]] void parse_fail(int line, const std::string& what) {
  throw std::invalid_argument("cc-table line " + std::to_string(line) + ": " +
                              what);
}

double parse_num(const std::string& tok, int line, const char* what) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(tok, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != tok.size()) {
    parse_fail(line, std::string("bad ") + what + " '" + tok + "'");
  }
  return v;
}

// A bin selector: a non-negative integer or the `*` wildcard (-1).
std::int32_t parse_selector(const std::string& tok, int line) {
  if (tok == "*") return -1;
  const double v = parse_num(tok, line, "bin selector");
  // Range-checked before the cast: converting an out-of-range double (or
  // NaN) to int32 is undefined.
  if (!(v >= 0.0 && v <= 2147483647.0) || v != std::trunc(v)) {
    parse_fail(line, "bin selector '" + tok + "' is not a non-negative int");
  }
  return static_cast<std::int32_t>(v);
}

// Out of line so the per-flow loop stays tight when tracing is off.
[[gnu::noinline]] void emit_decision_event(TraceBus& bus, Counter& counter,
                                           TimePoint now, const Flow& flow,
                                           double rate_bps,
                                           std::int32_t rule_idx) {
  TraceEvent ev;
  ev.time = now;
  ev.kind = TraceEventKind::kCcDecision;
  ev.job = flow.spec.job;
  ev.flow = flow.id;
  ev.value = rate_bps;
  ev.value2 = static_cast<double>(rule_idx);
  bus.emit(ev);
  counter.add();
}

constexpr const char* kDimNames[4] = {"rtt_us", "gradient", "ecn", "progress"};

}  // namespace

std::int32_t CcPolicyTable::bin_of(double x,
                                   const std::vector<double>& edges) {
  // Bin k holds edges[k-1] < x <= ... (upper_bound): K edges -> K+1 bins.
  return static_cast<std::int32_t>(
      std::upper_bound(edges.begin(), edges.end(), x) - edges.begin());
}

CcPolicyTable CcPolicyTable::parse(std::istream& in) {
  CcPolicyTable t;
  std::string line;
  int lineno = 0;
  bool saw_header = false;
  bool saw_default = false;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip comments, then skip blank lines.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) continue;

    if (!saw_header) {
      std::string v;
      if (word != "ccml-cc-table" || !(ls >> v) || v != "v1") {
        parse_fail(lineno, "expected header 'ccml-cc-table v1'");
      }
      saw_header = true;
      continue;
    }

    if (word == "cadence_us") {
      std::string tok;
      if (!(ls >> tok)) parse_fail(lineno, "cadence_us needs a value");
      const double us = parse_num(tok, lineno, "cadence");
      if (us <= 0.0) parse_fail(lineno, "cadence must be positive");
      t.cadence_ = Duration::from_micros_f(us);
    } else if (word == "bins") {
      std::string dim;
      if (!(ls >> dim)) parse_fail(lineno, "bins needs a dimension name");
      int d = -1;
      for (int i = 0; i < 4; ++i) {
        if (dim == kDimNames[i]) d = i;
      }
      if (d < 0) {
        parse_fail(lineno, "unknown dimension '" + dim +
                               "' (rtt_us|gradient|ecn|progress)");
      }
      if (!t.edges_[d].empty()) {
        parse_fail(lineno, "duplicate bins for '" + dim + "'");
      }
      std::string tok;
      while (ls >> tok) {
        const double e = parse_num(tok, lineno, "bin edge");
        if (!t.edges_[d].empty() && e <= t.edges_[d].back()) {
          parse_fail(lineno, "bin edges must be strictly ascending");
        }
        t.edges_[d].push_back(e);
      }
      if (t.edges_[d].empty()) parse_fail(lineno, "bins needs >= 1 edge");
    } else if (word == "rule") {
      Rule r;
      for (int d = 0; d < 4; ++d) {
        std::string tok;
        if (!(ls >> tok)) parse_fail(lineno, "rule needs 4 bin selectors");
        r.bins[d] = parse_selector(tok, lineno);
      }
      std::string tok;
      if (!(ls >> tok)) parse_fail(lineno, "rule needs a rate multiplier");
      r.action.rate_multiplier = parse_num(tok, lineno, "multiplier");
      if (r.action.rate_multiplier < 0.0) {
        parse_fail(lineno, "multiplier must be >= 0");
      }
      if (ls >> tok) {
        r.action.additive_bps = parse_num(tok, lineno, "additive step") * 1e6;
      }
      t.rules_.push_back(r);
    } else if (word == "default") {
      std::string tok;
      if (!(ls >> tok)) parse_fail(lineno, "default needs a rate multiplier");
      t.default_.rate_multiplier = parse_num(tok, lineno, "multiplier");
      if (t.default_.rate_multiplier < 0.0) {
        parse_fail(lineno, "multiplier must be >= 0");
      }
      if (ls >> tok) {
        t.default_.additive_bps = parse_num(tok, lineno, "additive step") * 1e6;
      }
      saw_default = true;
    } else {
      parse_fail(lineno, "unknown directive '" + word + "'");
    }
  }
  if (!saw_header) parse_fail(lineno, "missing 'ccml-cc-table v1' header");
  if (!saw_default && t.rules_.empty()) {
    parse_fail(lineno, "table has no rules and no default action");
  }
  // Validate every selector against its dimension's bin count (declared
  // edges may follow the rules textually, so this runs at the end).
  for (std::size_t i = 0; i < t.rules_.size(); ++i) {
    for (int d = 0; d < 4; ++d) {
      const std::int32_t sel = t.rules_[i].bins[d];
      const auto nbins = static_cast<std::int32_t>(t.edges_[d].size()) + 1;
      if (sel >= nbins) {
        throw std::invalid_argument(
            "cc-table rule " + std::to_string(i) + ": selector " +
            std::to_string(sel) + " out of range for " + kDimNames[d] + " (" +
            std::to_string(nbins) + " bins)");
      }
    }
  }
  t.loaded_ = true;
  return t;
}

CcPolicyTable CcPolicyTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cc-table: cannot open '" + path + "'");
  }
  return parse(in);
}

std::int32_t CcPolicyTable::lookup(const CcObservation& obs,
                                   CcAction& out) const {
  const std::int32_t b[4] = {
      bin_of(obs.rtt_us, edges_[0]),
      bin_of(obs.rtt_gradient, edges_[1]),
      bin_of(obs.ecn_fraction, edges_[2]),
      bin_of(obs.phase_progress, edges_[3]),
  };
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const Rule& r = rules_[i];
    bool match = true;
    for (int d = 0; d < 4; ++d) {
      if (r.bins[d] >= 0 && r.bins[d] != b[d]) {
        match = false;
        break;
      }
    }
    if (match) {
      out = r.action;
      return static_cast<std::int32_t>(i);
    }
  }
  out = default_;
  return -1;
}

std::string CcPolicyTable::summary() const {
  std::ostringstream os;
  for (int d = 0; d < 4; ++d) {
    if (d > 0) os << "x";
    os << edges_[d].size() + 1;
  }
  os << " bins, " << rules_.size() << " rules";
  return os.str();
}

TablePolicy::TablePolicy(TableConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      kmin_bytes_(config_.kmin.count()),
      kmax_bytes_(config_.kmax.count()) {
  assert(!config_.table.empty());
  assert(config_.kmax > config_.kmin);
  mark_scale_ = config_.pmax / (kmax_bytes_ - kmin_bytes_);
}

void TablePolicy::resize_soa(std::size_t n) {
  rate_bps_.resize(n);
  line_bps_.resize(n);
  ewma_col_.resize(n);
  grad_col_.resize(n);
  deliv_b_.resize(n);
  prev_rtt_ns_.resize(n);
  rule_col_.resize(n);
  cadence_.resize(n);
}

void TablePolicy::on_flow_started(Network& net, Flow& flow) {
  links_.ensure_links(net.topology().link_count());
  const Rate line = route_line_rate(net, flow);
  const std::uint32_t slot = net.slot_of(flow.id);
  if (rate_bps_.size() <= slot) resize_soa(net.slab_size());
  line_bps_[slot] = line.bits_per_sec();
  rate_bps_[slot] = line.bits_per_sec();
  ewma_col_[slot] = 0.0;
  grad_col_[slot] = 0.0;
  deliv_b_[slot] = 0.0;
  prev_rtt_ns_[slot] = 0;
  rule_col_[slot] = -1;
  cadence_.reset(slot);
  slots_[flow.id] = slot;
  net.set_rate(slot, line);
}

void TablePolicy::on_flow_finished(Network& /*net*/, const Flow& flow) {
  // The slot's state is left stale; a reused slot is overwritten on start.
  slots_.erase(flow.id);
}

void TablePolicy::on_link_capacity_changed(Network& net, LinkId /*link*/) {
  for (const std::uint32_t slot : net.active_slots()) {
    const Flow& flow = net.flow_at(slot);
    const Rate line = route_line_rate(net, flow);
    line_bps_[slot] = line.bits_per_sec();
    rate_bps_[slot] = std::min(rate_bps_[slot], line.bits_per_sec());
    net.set_rate(slot, Rate::bps(rate_bps_[slot]));
  }
}

void TablePolicy::update_rates(Network& net, TimePoint now, Duration dt) {
  links_.ensure_links(net.topology().link_count());
  TraceBus* bus = net.trace_bus();
  if (bus != bus_cache_) {
    bus_cache_ = bus;
    c_decision_ = bus ? &bus->counter("table.decisions") : nullptr;
  }

  // Queue pass: integrate backlog and refresh each link's RED keep-log
  // (log(1-p), summed along routes to the per-flow ECN fraction).
  const double dt_s = dt.to_seconds();
  const auto integrate = [&](std::size_t l, double arrival_bps)
      __attribute__((always_inline)) {
    const double cap_bps =
        net.effective_capacity(LinkId{static_cast<std::int32_t>(l)})
            .bits_per_sec();
    LinkState& ls = links_[l];
    double q = ls.queue_b + (arrival_bps - cap_bps) * dt_s / 8.0;
    if (q < 0.0) q = 0.0;
    ls.queue_b = q;
    const double p = red_probability(q);
    ls.log_keep = p > 0.0 ? std::log1p(-std::min(p, 1.0 - 1e-12)) : 0.0;
    return q != 0.0;
  };
  links_.step(net, net.links_in_use(), integrate);

  const std::span<const std::uint32_t> slots = net.active_slots();
  const std::span<double> rates = net.mutable_rates_bps();
  const std::int64_t dt_ns = dt.ns();
  const std::int64_t interval_ns = config_.table.cadence().ns();
  const double ewma_a = config_.ewma_alpha;
  const double base_us = config_.base_rtt.to_micros();
  const double min_bps = config_.min_rate.bits_per_sec();
  const double explore = config_.explore;
  for (const std::uint32_t slot : slots) {
    deliv_b_[slot] += rates[slot] * dt_s / 8.0;
    if (!cadence_.due(slot, dt_ns, interval_ns)) {
      rates[slot] = rate_bps_[slot];
      continue;
    }

    // Observation assembly: RTT + gradient (TIMELY's filter with Swift's
    // zero-sentinel first-sample guard), route ECN fraction, delivery.
    Duration rtt = config_.base_rtt;
    double sum_log_keep = 0.0;
    for (const std::int32_t l : net.route_links(slot)) {
      const Rate cap = net.effective_capacity(LinkId{l});
      if (cap.is_positive()) {
        rtt += transfer_time(Bytes::of(links_[l].queue_b), cap);
      }
      sum_log_keep += links_[l].log_keep;
    }
    const std::int64_t prev_ns = prev_rtt_ns_[slot];
    const double diff_us =
        prev_ns == 0 ? 0.0
                     : rtt.to_micros() - Duration::nanos(prev_ns).to_micros();
    prev_rtt_ns_[slot] = rtt.ns();
    ewma_col_[slot] = (1.0 - ewma_a) * ewma_col_[slot] + ewma_a * diff_us;
    const double gradient = ewma_col_[slot] / base_us;
    grad_col_[slot] = gradient;

    CcObservation obs;
    obs.rtt_us = rtt.to_micros();
    obs.rtt_gradient = gradient;
    obs.ecn_fraction = sum_log_keep < 0.0 ? 1.0 - std::exp(sum_log_keep) : 0.0;
    obs.delivered_bytes = deliv_b_[slot];
    obs.phase_progress = net.progress_at(slot);
    deliv_b_[slot] = 0.0;

    CcAction action;
    const std::int32_t rule = config_.table.lookup(obs, action);
    rule_col_[slot] = rule;
    if (explore > 0.0) {
      action.rate_multiplier *= 1.0 + explore * (2.0 * rng_.uniform() - 1.0);
    }
    const double rate =
        apply_cc_action(action, rate_bps_[slot], min_bps, line_bps_[slot]);
    rate_bps_[slot] = rate;
    rates[slot] = rate;
    if (bus_cache_ != nullptr) [[unlikely]] {
      emit_decision_event(*bus_cache_, *c_decision_, now, net.flow_at(slot),
                          rate, rule);
    }
  }
}

double TablePolicy::rate_bound_bps(const Network& /*net*/,
                                   std::uint32_t slot) const {
  // apply_cc_action clamps to [min_rate, line_rate]; min_rate can exceed
  // the line rate of a browned-out route, so the bound covers both.
  return std::max(line_bps_[slot], config_.min_rate.bits_per_sec());
}

Bytes TablePolicy::link_queue(LinkId link) const {
  if (!link.valid() || static_cast<std::size_t>(link.value) >= links_.size()) {
    return Bytes::zero();
  }
  return Bytes::of(links_[link.value].queue_b);
}

TablePolicy::FlowDiag TablePolicy::diag(FlowId id) const {
  const auto it = slots_.find(id);
  assert(it != slots_.end());
  const std::uint32_t slot = it->second;
  return {Rate::bps(rate_bps_[slot]), grad_col_[slot], rule_col_[slot]};
}

std::string TablePolicy::serialize_state() const {
  // Ascending flow id, same contract as the other transports.
  const auto flows = sorted_flow_slots(slots_);

  StateBuf out;
  out.put_u64(flows.size());
  for (const auto& [id, slot] : flows) {
    out.put_i64(id);
    out.put_u32(slot);
    out.put_f64(rate_bps_[slot]);
    out.put_f64(line_bps_[slot]);
    out.put_f64(ewma_col_[slot]);
    out.put_f64(grad_col_[slot]);
    out.put_f64(deliv_b_[slot]);
    out.put_i64(prev_rtt_ns_[slot]);
    out.put_i64(cadence_.since_ns(slot));
    out.put_u32(static_cast<std::uint32_t>(rule_col_[slot]));
  }
  out.put_u64(links_.size());
  for (const LinkState& l : links_.links()) out.put_f64(l.queue_b);
  out.put_u8(links_.queues_clear() ? 1 : 0);
  out.put_bytes(rng_.save_state());
  return out.take();
}

}  // namespace ccml
