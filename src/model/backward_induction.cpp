#include "backward_induction.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "math/gbm.hpp"

namespace swapgame::model {

// ---------------------------------------------------------- region integrals

double region_success_rate(const SwapParams& params,
                           const math::IntervalSet& region, double cutoff,
                           RegionQuadrature quad) {
  if (region.empty()) return 0.0;
  const math::GbmLaw law_a(params.gbm, params.p_t0, params.tau_a);
  double sr = 0.0;
  for (const math::Interval& iv : region.intervals()) {
    const double lo = std::max(iv.lo, quad.lo_clamp);
    if (!(iv.hi > lo)) continue;
    if (cutoff == 0.0) {
      // Alice always reveals: the inner survival factor is 1.
      sr += law_a.cdf(iv.hi) - law_a.cdf(lo);
      continue;
    }
    sr += math::gauss_legendre(
        [&params, &law_a, cutoff](double x) {
          const math::GbmLaw law_b(params.gbm, x, params.tau_b);
          return law_a.pdf(x) * law_b.survival(cutoff);
        },
        lo, iv.hi, quad.panels);
  }
  return sr;
}

double region_mass(const SwapParams& params, const math::IntervalSet& region) {
  const math::GbmLaw law_a(params.gbm, params.p_t0, params.tau_a);
  double prob = 0.0;
  for (const math::Interval& iv : region.intervals()) {
    const double lo = std::max(iv.lo, 1e-12);
    if (!(iv.hi > lo)) continue;
    prob += std::isinf(iv.hi) ? law_a.survival(lo)
                              : law_a.cdf(iv.hi) - law_a.cdf(lo);
  }
  return std::min(1.0, std::max(0.0, prob));
}

// ---------------------------------------------------------- acceptance sets

math::IntervalSet acceptable_set(const math::ScalarFn& gap, double scan_lo,
                                 double scan_hi, int scan_samples) {
  const std::vector<double> roots =
      math::find_all_roots(gap, scan_lo, scan_hi, scan_samples);
  return math::IntervalSet::from_alternating_roots(roots, scan_lo, scan_hi,
                                                   gap(scan_lo) > 0.0);
}

FeasibleBand feasible_band(const math::IntervalSet& accepted, double scan_lo,
                           double scan_hi) {
  std::vector<double> crossings;
  for (const math::Interval& iv : accepted.intervals()) {
    if (iv.lo != scan_lo) crossings.push_back(iv.lo);
    if (iv.hi != scan_hi) crossings.push_back(iv.hi);
  }
  FeasibleBand band;
  if (crossings.size() >= 2) {
    band.viable = true;
    band.lo = crossings.front();
    band.hi = crossings.back();
  }
  return band;
}

}  // namespace swapgame::model
