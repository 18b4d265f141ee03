// The unified circle (paper §3, Fig. 5): jobs with different iteration times
// are compared on one circle whose perimeter is the LCM of their (quantized)
// periods.  A job with period P appears L/P times around a circle of
// perimeter L, so its communication pattern is replicated accordingly.
#pragma once

#include <span>
#include <vector>

#include "core/profile.h"
#include "util/circular.h"
#include "util/time.h"

namespace ccml {

struct UnifiedCircleOptions {
  /// Periods are snapped to this quantum before the LCM (real iteration
  /// times are never exact integers).
  Duration quantum = Duration::millis(1);
  /// Upper bound on the perimeter; if the true LCM exceeds it the circle is
  /// clamped and `exact` is false (jobs then only approximately repeat).
  Duration perimeter_cap = Duration::seconds(30);
};

class UnifiedCircle {
 public:
  UnifiedCircle(std::span<const CommProfile> jobs,
                UnifiedCircleOptions options = {});

  Duration perimeter() const { return perimeter_; }
  std::size_t job_count() const { return jobs_.size(); }
  const CommProfile& job(std::size_t j) const { return jobs_.at(j); }

  /// True when the perimeter is the exact LCM (no cap clamping), so every
  /// job completes an integer number of iterations per revolution.
  bool exact() const { return exact_; }

  /// Number of times job j's iteration repeats around the circle.
  std::int64_t repetitions(std::size_t j) const;

  /// Job j's communication coverage on the unified circle when its own
  /// circle is rotated counter-clockwise by `rotation`: the coverage at
  /// rotation 0, built once by the constructor, shifted cyclically.
  CircularIntervalSet job_arcs(std::size_t j, Duration rotation) const {
    return base_arcs_.at(j).rotated(rotation);
  }

  /// A maximal piece [from, to) of the circle over which the same jobs
  /// communicate: `jobs` of them, demanding `demand_bps` in total.
  struct Stretch {
    std::int64_t from_ns;
    std::int64_t to_ns;
    int jobs;
    double demand_bps;
  };

  /// Sweeps the rotated jobs' coverage once around the circle, calling
  /// `visit(stretch)` for every stretch between the first and the last
  /// point where some job starts or stops communicating, in ascending order
  /// (the circle outside them is idle).  This is the one sweep behind
  /// overlap_fraction, max_concurrency, peak_demand and
  /// circle_violation_fraction.
  template <class Visit>
  void sweep(std::span<const Duration> rotations, Visit&& visit) const;

  /// Total length of circle where >= 2 of the rotated jobs communicate,
  /// normalized by the perimeter.
  double overlap_fraction(std::span<const Duration> rotations) const;

  /// Peak number of jobs communicating simultaneously anywhere on the circle
  /// under the given rotations.
  int max_concurrency(std::span<const Duration> rotations) const;

  /// Peak aggregate bandwidth demand anywhere on the circle.
  Rate peak_demand(std::span<const Duration> rotations) const;

 private:
  std::vector<CommProfile> jobs_;
  std::vector<Duration> quantized_periods_;
  std::vector<CircularIntervalSet> base_arcs_;  // job_arcs at rotation 0
  Duration perimeter_;
  bool exact_ = true;

  struct Boundary {
    std::int64_t pos;
    int count_delta;
    double demand_delta;
  };
  /// Every rotated job's segment boundaries in ascending position order.
  /// Each job's own boundaries are already sorted, so they are merged, not
  /// sorted.
  std::vector<Boundary> merged_boundaries(
      std::span<const Duration> rotations) const;
};

template <class Visit>
void UnifiedCircle::sweep(std::span<const Duration> rotations,
                          Visit&& visit) const {
  const std::vector<Boundary> bounds = merged_boundaries(rotations);
  // Apply every delta at a position before visiting the stretch that starts
  // there: segments are half-open, so one closing exactly where another
  // opens does not overlap it.
  int depth = 0;
  double demand = 0.0;
  for (std::size_t i = 0; i < bounds.size();) {
    const std::int64_t pos = bounds[i].pos;
    for (; i < bounds.size() && bounds[i].pos == pos; ++i) {
      depth += bounds[i].count_delta;
      demand += bounds[i].demand_delta;
    }
    if (i < bounds.size()) visit(Stretch{pos, bounds[i].pos, depth, demand});
  }
}

}  // namespace ccml
