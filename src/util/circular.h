// Interval sets on a circle.
//
// This is the geometric backbone of the paper's abstraction (§3): a job's
// communication phases occupy arcs of a circle whose perimeter equals its
// training iteration time.  A CircularIntervalSet stores a normalized union
// of arcs on a circle of fixed perimeter and supports rotation, overlap
// measurement, and complement — exactly the operations the compatibility
// solver needs.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "util/time.h"

namespace ccml {

/// A single arc: starts at `start` (measured along the perimeter) and extends
/// counter-clockwise for `length`.  May wrap past the perimeter.
struct Arc {
  Duration start;
  Duration length;
};

class CircularIntervalSet {
 public:
  /// Creates an empty set on a circle with the given perimeter (> 0).
  explicit CircularIntervalSet(Duration perimeter);

  Duration perimeter() const { return perimeter_; }

  /// Adds an arc (normalized modulo the perimeter, split if it wraps, merged
  /// with abutting/overlapping arcs).  Arcs with length >= perimeter cover
  /// the whole circle.
  void add(Arc arc);

  bool empty() const { return segments_.empty(); }

  /// Sum of covered arc lengths.
  Duration covered_length() const;

  /// Fraction of the circle that is covered, in [0, 1].
  double covered_fraction() const;

  /// True if `point` (normalized modulo the perimeter) lies on a covered arc.
  bool contains(Duration point) const;

  /// The set rotated counter-clockwise by `shift` (negative = clockwise).
  CircularIntervalSet rotated(Duration shift) const;

  /// Calls `emit(lo, hi)` for each segment of rotated(shift), in ascending
  /// order, without building the set: one linear pass over the segments.
  template <class Emit>
  void for_each_rotated(Duration shift, Emit&& emit) const;

  /// The uncovered part of the circle.
  CircularIntervalSet complement() const;

  /// Total length of the circle covered by both sets.  Perimeters must match.
  static Duration overlap_length(const CircularIntervalSet& a,
                                 const CircularIntervalSet& b);

  /// True if the sets share any arc of positive length.
  static bool intersects(const CircularIntervalSet& a,
                         const CircularIntervalSet& b);

  /// Union of covered arcs (perimeters must match).
  static CircularIntervalSet unite(const CircularIntervalSet& a,
                                   const CircularIntervalSet& b);

  /// Normalized, sorted, disjoint linear segments on [0, perimeter), given as
  /// (start, end) pairs with start < end.
  const std::vector<std::pair<Duration, Duration>>& segments() const {
    return segments_;
  }

  std::string to_string() const;

 private:
  void insert_linear(Duration lo, Duration hi);

  Duration perimeter_;
  std::vector<std::pair<Duration, Duration>> segments_;
};

/// Normalizes `point` into [0, perimeter).
Duration wrap_to_circle(Duration point, Duration perimeter);

template <class Emit>
void CircularIntervalSet::for_each_rotated(Duration shift, Emit&& emit) const {
  // Segments on [cut, L) land on [0, d) and come out first; the rest land
  // on [d, L).  A segment across `cut` splits there, and the pieces that
  // meet at d (the old zero point) merge.  Only there can two pieces abut,
  // since the segments themselves never do.
  const Duration d = wrap_to_circle(shift, perimeter_);
  const Duration cut = perimeter_ - d;
  const auto split = std::partition_point(
      segments_.begin(), segments_.end(),
      [cut](const std::pair<Duration, Duration>& seg) {
        return seg.second <= cut;
      });
  bool open = false;
  Duration lo;
  Duration hi;
  const auto piece = [&](Duration a, Duration b) {
    if (open && hi == a) {
      hi = b;
      return;
    }
    if (open) emit(lo, hi);
    lo = a;
    hi = b;
    open = true;
  };
  for (auto it = split; it != segments_.end(); ++it) {
    piece(std::max(it->first, cut) - cut, it->second - cut);
  }
  for (auto it = segments_.begin(); it != split; ++it) {
    piece(it->first + d, it->second + d);
  }
  if (split != segments_.end() && split->first < cut) {
    piece(split->first + d, perimeter_);
  }
  if (open) emit(lo, hi);
}

}  // namespace ccml
