#include "strategy_value.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "math/gbm.hpp"
#include "math/quadrature.hpp"
#include "math/roots.hpp"

namespace swapgame::model {

ThresholdProfile ThresholdProfile::honest() {
  ThresholdProfile profile;
  profile.alice_cutoff = 0.0;
  profile.bob_region = math::IntervalSet(
      {{0.0, std::numeric_limits<double>::infinity()}});
  return profile;
}

StrategyEvaluator::StrategyEvaluator(const SwapParams& params, double p_star)
    : params_(params), p_star_(p_star), game_(params, p_star) {
  // Far tail of the t2 price law: integrating beyond contributes < 1e-9.
  const math::GbmLaw law_a(params_.gbm, params_.p_t0, params_.tau_a);
  tail_hi_ = law_a.quantile(1.0 - 1e-10);
}

template <class F>
double StrategyEvaluator::integrate_region(const math::IntervalSet& region,
                                           const math::GbmLaw& law_a,
                                           const math::CutoffLaw& t2_law,
                                           const F& t2_value) const {
  double total = 0.0;
  for (const math::Interval& piece : region.intervals()) {
    const double lo = std::max(piece.lo, 1e-12);
    const double hi = std::isinf(piece.hi) ? tail_hi_ : piece.hi;
    if (!(hi > lo)) continue;
    total += math::gauss_legendre(
        [&](double x) {
          const math::CutoffLaw::Point at = t2_law.at(x);
          return law_a.pdf(x, at.log_price) * t2_value(at);
        },
        lo, hi, 48);
  }
  return total;
}

double StrategyEvaluator::alice_value(const ThresholdProfile& profile) const {
  const math::GbmLaw law_a(params_.gbm, params_.p_t0, params_.tau_a);
  // Eq. (20) with an arbitrary reveal cutoff.
  const T2Kernel kernel(params_, p_star_, profile.alice_cutoff);
  const double inside = integrate_region(
      profile.bob_region, law_a, kernel.law(),
      [&kernel](const T2Kernel::Point& at) { return kernel.alice_cont(at); });
  double inside_prob = 0.0;
  for (const math::Interval& piece : profile.bob_region.intervals()) {
    const double hi = std::isinf(piece.hi) ? tail_hi_ : piece.hi;
    inside_prob += law_a.cdf(hi) - law_a.cdf(piece.lo);
  }
  const double outside_prob = std::max(0.0, 1.0 - inside_prob);
  return (inside + outside_prob * game_.alice_t2_stop()) *
         std::exp(-params_.alice.r * params_.tau_a);
}

double StrategyEvaluator::bob_value(const ThresholdProfile& profile) const {
  const math::GbmLaw law_a(params_.gbm, params_.p_t0, params_.tau_a);
  // Eq. (21) with an arbitrary reveal cutoff.
  const T2Kernel kernel(params_, p_star_, profile.alice_cutoff);
  const double inside = integrate_region(
      profile.bob_region, law_a, kernel.law(),
      [&kernel](const T2Kernel::Point& at) { return kernel.bob_cont(at); });
  double inside_pe = 0.0;
  for (const math::Interval& piece : profile.bob_region.intervals()) {
    const double hi = std::isinf(piece.hi) ? tail_hi_ : piece.hi;
    inside_pe += law_a.partial_expectation_below(hi) -
                 law_a.partial_expectation_below(piece.lo);
  }
  const double outside = std::max(0.0, law_a.expectation() - inside_pe);
  return (inside + outside) * std::exp(-params_.bob.r * params_.tau_a);
}

double StrategyEvaluator::success_rate(const ThresholdProfile& profile) const {
  const math::GbmLaw law_a(params_.gbm, params_.p_t0, params_.tau_a);
  const math::CutoffLaw law_b(params_.gbm, params_.tau_b,
                              profile.alice_cutoff);
  return integrate_region(
      profile.bob_region, law_a, law_b,
      [&law_b](const math::CutoffLaw::Point& at) {
        return law_b.survival(at);
      });
}

double StrategyEvaluator::alice_best_response_cutoff() const {
  return game_.alice_t3_cutoff();
}

math::IntervalSet StrategyEvaluator::bob_best_response(
    double alice_cutoff) const {
  const T2Kernel kernel(params_, p_star_, alice_cutoff);
  const auto gap = [&kernel](double p) { return kernel.bob_cont(p) - p; };
  const double scan_hi =
      10.0 * std::max({p_star_, params_.p_t0, alice_cutoff});
  const std::vector<double> roots =
      math::find_all_roots(gap, 1e-9, scan_hi, 2048);
  return math::IntervalSet::from_alternating_roots(roots, 0.0, scan_hi,
                                                   gap(1e-9) > 0.0);
}

ThresholdProfile StrategyEvaluator::equilibrium() const {
  ThresholdProfile profile;
  profile.alice_cutoff = game_.alice_t3_cutoff();
  profile.bob_region = game_.bob_t2_region();
  return profile;
}

}  // namespace swapgame::model
