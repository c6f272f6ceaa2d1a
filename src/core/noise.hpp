// catalyst/core -- noise analysis (Section IV of the paper).
//
// Quantifies the run-to-run variability of every event with the maximum
// root normalized mean-square error (max RNMSE, Eq. 4) over all pairs of
// repetition vectors, then filters events whose variability exceeds a
// threshold tau.  Events whose measurements are all zero in every
// repetition are discarded as irrelevant (footnote 1 of the paper).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace catalyst::core {

/// Eq. 4 for one pair:  ||m_i - m_j||_2 / sqrt(N * mean(m_i) * mean(m_j)).
/// If either mean is zero the variability is defined as 1 (100% error).
double rnmse(std::span<const double> mi, std::span<const double> mj);

/// Max RNMSE over all pairs of repetition vectors.  `reps` must contain at
/// least two vectors of equal length.  Returns 0 when all pairs agree
/// exactly.
double max_rnmse(const std::vector<std::vector<double>>& reps);

/// Variability verdict for one event.
struct EventVariability {
  std::string event_name;
  double max_rnmse = 0.0;
  bool all_zero = false;  ///< Every reading in every repetition was zero.
};

/// Outcome of the noise-filtering stage.
struct NoiseFilterResult {
  /// Per-event variability (parallel to the input event order), for Fig. 2.
  std::vector<EventVariability> variabilities;
  /// Indices (into the input event order) of events kept: non-zero and
  /// with max RNMSE <= tau.
  std::vector<std::size_t> kept;
  /// Averaged measurement vector across repetitions for each kept event
  /// (parallel to `kept`).
  std::vector<std::vector<double>> averaged;
};

/// Runs the Section IV analysis.
/// `measurements[e][r]` is event e's measurement vector at repetition r
/// (all vectors the same length); `event_names[e]` labels it.
///
/// Events are scored as independent units on the shared worker pool; the
/// kept/averaged lists are assembled sequentially in input order afterwards,
/// so the result is bit-identical for any `threads`.
NoiseFilterResult filter_noise(
    const std::vector<std::string>& event_names,
    const std::vector<std::vector<std::vector<double>>>& measurements,
    double tau, int threads = 1);

/// Median of `values`; the across-thread noise suppressor used for the
/// data-cache benchmark (Section IV, last paragraph).  Even-sized inputs
/// return the mean of the two middle elements.  Throws on empty input.
/// Works in place: `values` is left partially reordered, so callers pass a
/// scratch buffer and the hot loops allocate nothing.
double median(std::span<double> values);

}  // namespace catalyst::core
