#include "core/unified_circle.h"

#include <algorithm>
#include <cassert>

#include "util/math.h"

namespace ccml {

UnifiedCircle::UnifiedCircle(std::span<const CommProfile> jobs,
                             UnifiedCircleOptions options)
    : jobs_(jobs.begin(), jobs.end()) {
  assert(!jobs_.empty());
  assert(options.quantum.is_positive());
  quantized_periods_.reserve(jobs_.size());
  std::vector<Duration> periods;
  for (const auto& j : jobs_) {
    assert(j.valid());
    Duration q = quantize(j.period, options.quantum);
    if (!q.is_positive()) q = options.quantum;
    quantized_periods_.push_back(q);
    periods.push_back(j.period);
  }
  perimeter_ = lcm_durations(periods, options.quantum, options.perimeter_cap);
  exact_ = true;
  for (const Duration q : quantized_periods_) {
    if (perimeter_.ns() % q.ns() != 0) {
      exact_ = false;
      break;
    }
  }
  base_arcs_.reserve(jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const Duration p = quantized_periods_[j];
    CircularIntervalSet set(perimeter_);
    const std::int64_t reps = repetitions(j);
    for (std::int64_t k = 0; k < reps; ++k) {
      for (const Arc& a : jobs_[j].arcs) {
        set.add(Arc{a.start + p * k, a.length});
      }
    }
    base_arcs_.push_back(std::move(set));
  }
}

std::int64_t UnifiedCircle::repetitions(std::size_t j) const {
  const Duration p = quantized_periods_.at(j);
  return (perimeter_.ns() + p.ns() - 1) / p.ns();
}

std::vector<UnifiedCircle::Boundary> UnifiedCircle::merged_boundaries(
    std::span<const Duration> rotations) const {
  assert(rotations.size() == jobs_.size());
  std::size_t total = 0;
  for (const CircularIntervalSet& arcs : base_arcs_) {
    total += 2 * (arcs.segments().size() + 1);
  }
  std::vector<Boundary> bounds;
  bounds.reserve(total);
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const auto merged = static_cast<std::ptrdiff_t>(bounds.size());
    const double demand = jobs_[j].demand.bits_per_sec();
    base_arcs_[j].for_each_rotated(rotations[j], [&](Duration lo, Duration hi) {
      bounds.push_back({lo.ns(), +1, demand});
      bounds.push_back({hi.ns(), -1, -demand});
    });
    std::inplace_merge(bounds.begin(), bounds.begin() + merged, bounds.end(),
                       [](const Boundary& a, const Boundary& b) {
                         return a.pos < b.pos;
                       });
  }
  return bounds;
}

double UnifiedCircle::overlap_fraction(
    std::span<const Duration> rotations) const {
  std::int64_t overlapped = 0;
  sweep(rotations, [&](const Stretch& s) {
    if (s.jobs >= 2) overlapped += s.to_ns - s.from_ns;
  });
  return static_cast<double>(overlapped) /
         static_cast<double>(perimeter_.ns());
}

int UnifiedCircle::max_concurrency(std::span<const Duration> rotations) const {
  int peak = 0;
  sweep(rotations, [&](const Stretch& s) { peak = std::max(peak, s.jobs); });
  return peak;
}

Rate UnifiedCircle::peak_demand(std::span<const Duration> rotations) const {
  double peak = 0.0;
  sweep(rotations,
        [&](const Stretch& s) { peak = std::max(peak, s.demand_bps); });
  return Rate::bps(peak);
}

}  // namespace ccml
