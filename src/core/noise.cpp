#include "core/noise.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/contract.hpp"
#include "core/parallel.hpp"
#include "linalg/blas.hpp"

namespace catalyst::core {

double rnmse(std::span<const double> mi, std::span<const double> mj) {
  CATALYST_REQUIRE_AS(mi.size() == mj.size() && !mi.empty(),
                      std::invalid_argument,
                      "rnmse: vectors must be non-empty and equal");
  const auto n = static_cast<double>(mi.size());
  double diff_sq = 0.0;
  double sum_i = 0.0;
  double sum_j = 0.0;
  for (std::size_t k = 0; k < mi.size(); ++k) {
    const double d = mi[k] - mj[k];
    diff_sq += d * d;
    sum_i += mi[k];
    sum_j += mj[k];
  }
  const double mean_i = sum_i / n;
  const double mean_j = sum_j / n;
  const double denom_sq = n * mean_i * mean_j;
  if (denom_sq <= 0.0) {
    // Zero (or sign-cancelled) average: 100% error by definition, unless the
    // vectors are exactly identical (both all zero), which footnote 1
    // handles separately via the all-zero discard.
    return diff_sq == 0.0 && sum_i == 0.0 && sum_j == 0.0 ? 0.0 : 1.0;
  }
  const double out = std::sqrt(diff_sq / denom_sq);
  // RNMSE is not bounded by 1 (disjoint supports give values above it), but a
  // negative or non-finite value means the accumulation itself broke.
  CATALYST_ENSURE(std::isfinite(out) && out >= 0.0,
                  "rnmse: non-finite or negative result");
  return out;
}

double max_rnmse(const std::vector<std::vector<double>>& reps) {
  CATALYST_REQUIRE_AS(reps.size() >= 2, std::invalid_argument,
                      "max_rnmse: need at least two repetitions");
  double worst = 0.0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    for (std::size_t j = i + 1; j < reps.size(); ++j) {
      worst = std::max(worst, rnmse(reps[i], reps[j]));
    }
  }
  return worst;
}

NoiseFilterResult filter_noise(
    const std::vector<std::string>& event_names,
    const std::vector<std::vector<std::vector<double>>>& measurements,
    double tau, int threads) {
  CATALYST_REQUIRE_AS(event_names.size() == measurements.size(),
                      std::invalid_argument,
                      "filter_noise: names/measurements mismatch");
  CATALYST_REQUIRE_AS(tau >= 0.0, std::invalid_argument,
                      "filter_noise: negative tau");
  NoiseFilterResult result;
  const std::size_t ne = event_names.size();
  result.variabilities.resize(ne);
  // Per-event scoring is all-pairs RNMSE -- the expensive part -- and each
  // event writes only its own slots, so events fan out on the worker pool.
  std::vector<std::vector<double>> averaged(ne);
  std::vector<char> keep(ne, 0);
  core::parallel_for(ne, threads, [&](std::size_t e) {
    const auto& reps = measurements[e];
    EventVariability v;
    v.event_name = event_names[e];
    v.all_zero = true;
    for (const auto& rep : reps) {
      for (double x : rep) {
        if (x != 0.0) {
          v.all_zero = false;
          break;
        }
      }
      if (!v.all_zero) break;
    }
    v.max_rnmse = max_rnmse(reps);
    keep[e] = !v.all_zero && v.max_rnmse <= tau ? 1 : 0;
    if (keep[e]) {
      // Average across repetitions (identical vectors average to themselves;
      // noisy-but-kept events get smoothed).
      std::vector<double> avg(reps.front().size(), 0.0);
      for (const auto& rep : reps) {
        for (std::size_t k = 0; k < avg.size(); ++k) avg[k] += rep[k];
      }
      for (double& x : avg) x /= static_cast<double>(reps.size());
      averaged[e] = std::move(avg);
    }
    result.variabilities[e] = std::move(v);
  });
  // Kept/averaged lists are order-sensitive: assemble in input order.
  for (std::size_t e = 0; e < ne; ++e) {
    if (keep[e]) {
      result.kept.push_back(e);
      result.averaged.push_back(std::move(averaged[e]));
    }
  }
  return result;
}

double median(std::span<double> values) {
  CATALYST_REQUIRE_AS(!values.empty(), std::invalid_argument,
                      "median: empty input");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lo + hi);
}

}  // namespace catalyst::core
