#include "backward_induction.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "math/gbm.hpp"

namespace swapgame::model {

// ----------------------------------------------------------- t2-stage kernel

T2Kernel::T2Kernel(const SwapParams& params, double p_star, double cutoff,
                   T2Deposits deposits)
    : law_(params.gbm, params.tau_b, cutoff),
      deposits_(deposits),
      alice_growth_((1.0 + params.alice.alpha) *
                    std::exp((params.gbm.mu - params.alice.r) * params.tau_b)),
      alice_refund_(stage::alice_t3_stop(params, p_star)),
      alice_discount_(std::exp(-params.alice.r * params.tau_b)),
      bob_claim_(stage::bob_t3_cont(params, p_star)),
      bob_growth_(
          std::exp((params.gbm.mu - params.bob.r) * 2.0 * params.tau_b)),
      bob_discount_(std::exp(-params.bob.r * params.tau_b)) {}

// ---------------------------------------------------------- region integrals

double region_success_rate(const SwapParams& params,
                           const math::IntervalSet& region, double cutoff,
                           RegionQuadrature quad) {
  if (region.empty()) return 0.0;
  const math::GbmLaw law_a(params.gbm, params.p_t0, params.tau_a);
  const math::CutoffLaw law_b(params.gbm, params.tau_b, cutoff);
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
        [&law_a, &law_b](double x) {
          const math::CutoffLaw::Point at = law_b.at(x);
          return law_a.pdf(x, at.log_price) * law_b.survival(at);
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
