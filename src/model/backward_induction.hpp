// The backward-induction core shared by the HTLC game family (paper
// Section III-E, and Section IV's collateral game, which is the same
// recursion with extra deposit terms).
//
// Every mechanism (BasicGame, PremiumGame, CollateralGame, ExtendedGame,
// the alpha-uncertainty game) solves the same t4 -> t3 -> t2 -> t1
// recursion; this module owns the parts they share:
//   * the basic stage payoffs, Eqs. (14)-(23), as functions of the cutoff,
//     with optional deposit terms (namespace `stage`);
//   * the t2-region solve: scan window, tie margin, cold or verified warm
//     root isolation and the infinite-tail trim (solve_t2_region);
//   * the region integrals under the tau_a law: the t1 composition
//     (Eqs. (25)/(26), (36)/(37)), the success rate (Eqs. (31)/(40)) and the
//     region mass;
//   * acceptance sets {P* : gap(P*) > 0} over a scanned rate window.
//
// Each mechanism keeps its own numerics (scan samples, warm-verify
// samples, quadrature panels, lower clamp) as constants at its call site;
// docs/MODEL.md lists them.
//
// The stage payoffs and the two functions that take a game's callback
// (solve_t2_region, t1_value) are defined here, not in the .cpp: they run
// inside every root scan and quadrature node, and inlining keeps the core
// as fast as the per-game copies it replaced.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "math/gbm.hpp"
#include "math/interval.hpp"
#include "math/quadrature.hpp"
#include "math/roots.hpp"
#include "params.hpp"

namespace swapgame::model {

/// Stage payoffs of the basic game, Eqs. (14)-(23).  Each takes Alice's t3
/// cutoff as an argument, so the deposit mechanisms and arbitrary threshold
/// profiles (strategy_value.hpp) share one implementation.
namespace stage {

/// Eq. (14): Alice reveals and receives the token-b at t5 = t3 + tau_b.
[[nodiscard]] inline double alice_t3_cont(const SwapParams& params,
                                          double p_t3) {
  return (1.0 + params.alice.alpha) * p_t3 *
         std::exp((params.gbm.mu - params.alice.r) * params.tau_b);
}

/// Eq. (16): Alice waives; her token-a is refunded at t8 = t3 + eps_b +
/// 2 tau_a.
[[nodiscard]] inline double alice_t3_stop(const SwapParams& params,
                                          double p_star) {
  return p_star *
         std::exp(-params.alice.r * (params.eps_b + 2.0 * params.tau_a));
}

/// Eq. (15): Bob receives P* token-a at t6 = t3 + eps_b + tau_a.
[[nodiscard]] inline double bob_t3_cont(const SwapParams& params,
                                        double p_star) {
  return (1.0 + params.bob.alpha) * p_star *
         std::exp(-params.bob.r * (params.eps_b + params.tau_a));
}

/// Eq. (17): Bob's token-b is refunded at t7 = t3 + 2 tau_b.
[[nodiscard]] inline double bob_t3_stop(const SwapParams& params,
                                        double p_t3) {
  return p_t3 * std::exp((params.gbm.mu - params.bob.r) * 2.0 * params.tau_b);
}

/// Eq. (18): Alice reveals at t3 iff P_t3 exceeds this cutoff.
[[nodiscard]] inline double alice_t3_cutoff(const SwapParams& params,
                                            double p_star) {
  const double rA = params.alice.r;
  const double mu = params.gbm.mu;
  return std::exp((rA - mu) * params.tau_b -
                  rA * (params.eps_b + 2.0 * params.tau_a)) *
         p_star / (1.0 + params.alice.alpha);
}

/// Eq. (34): the Eq. (18) cutoff when revealing also recovers a deposit
/// worth `recovery` at t3.  When the recovery alone exceeds the refund
/// value, Alice reveals at any price: the cutoff clamps at 0.
[[nodiscard]] inline double alice_t3_cutoff(const SwapParams& params,
                                            double p_star, double recovery) {
  const double rA = params.alice.r;
  const double mu = params.gbm.mu;
  const double shifted = alice_t3_stop(params, p_star) - recovery;
  return shifted <= 0.0 ? 0.0
                        : std::exp((rA - mu) * params.tau_b) * shifted /
                              (1.0 + params.alice.alpha);
}

/// Eq. (20): Alice's t2 value when Bob locks and she reveals above
/// `cutoff`; `reveal_bonus` is a deposit (t3-anchored) she recovers only by
/// revealing.  alice_t3_cont is linear in the price, so its integral over
/// {P_t3 > cutoff} is the upper partial expectation.
[[nodiscard]] inline double alice_t2_cont(const SwapParams& params,
                                          double p_star, double cutoff,
                                          double p_t2,
                                          double reveal_bonus = 0.0) {
  const math::GbmLaw law(params.gbm, p_t2, params.tau_b);
  double cont_part = (1.0 + params.alice.alpha) *
                     std::exp((params.gbm.mu - params.alice.r) * params.tau_b) *
                     law.partial_expectation_above(cutoff);
  if (reveal_bonus != 0.0) cont_part += law.survival(cutoff) * reveal_bonus;
  const double stop_part = law.cdf(cutoff) * alice_t3_stop(params, p_star);
  return (cont_part + stop_part) * std::exp(-params.alice.r * params.tau_b);
}

/// Eq. (22): Bob walks at t2; Alice's token-a is refunded at t8 = t2 +
/// tau_b + eps_b + 2 tau_a.
[[nodiscard]] inline double alice_t2_stop(const SwapParams& params,
                                          double p_star) {
  return p_star * std::exp(-params.alice.r *
                           (params.tau_b + params.eps_b + 2.0 * params.tau_a));
}

/// Deposit terms of Bob's t2 continuation value (zero in the basic game).
struct BobT2Deposits {
  double on_lock = 0.0;   ///< received whatever Alice does (t2-anchored)
  double on_waive = 0.0;  ///< received only if Alice waives (t3-anchored)
};

/// Eq. (21): Bob's t2 value when he locks and Alice reveals above `cutoff`:
/// bob_t3_cont with probability 1 - C(cutoff), otherwise his refunded
/// token-b (the lower partial expectation).  Zero deposits cost no extra
/// libm call: this runs inside every root scan.
[[nodiscard]] inline double bob_t2_cont(const SwapParams& params,
                                        double p_star, double cutoff,
                                        double p_t2,
                                        BobT2Deposits deposits = {}) {
  const math::GbmLaw law(params.gbm, p_t2, params.tau_b);
  const double cont_part = law.survival(cutoff) * bob_t3_cont(params, p_star);
  double stop_part =
      std::exp((params.gbm.mu - params.bob.r) * 2.0 * params.tau_b) *
      law.partial_expectation_below(cutoff);
  if (deposits.on_waive != 0.0) {
    stop_part += law.cdf(cutoff) * deposits.on_waive;
  }
  return (deposits.on_lock + cont_part + stop_part) *
         std::exp(-params.bob.r * params.tau_b);
}

/// Eq. (23): Bob keeps his token-b, worth P_t2.
[[nodiscard]] inline double bob_t2_stop(double p_t2) { return p_t2; }

}  // namespace stage

/// Bob's t2 continuation region and the indifference roots defining it.
struct T2Region {
  std::vector<double> roots;  ///< sorted; warm-start hints for a nearby game
  math::IntervalSet region;
};

/// Isolates {p : raw_gap(p) > tie} on the scale-relative window
/// [1e-7, 1] * 10 * scale with tie = 1e-10 * 10 * scale.  The lower bound
/// keeps the grid resolution proportional to the price scale
/// (scale-invariance tests pin this).  The tie margin makes preference
/// strict, guarding the degenerate mu == r_B regime where the gap is
/// identically zero near p = 0 and floating-point dither would otherwise
/// fabricate crossings.  Non-empty `hints` (roots of a game at nearby
/// parameters) are re-polished and checked by a `verify_samples` scan,
/// falling back to the `scan_samples` cold scan on any mismatch.  The gap
/// is negative at +inf in every mechanism, so an unbounded inside piece
/// means the scan missed the last crossing: it is trimmed at the window top.
template <class Gap>
[[nodiscard]] T2Region solve_t2_region(const Gap& raw_gap, double scale,
                                       int scan_samples,
                                       const std::vector<double>& hints = {},
                                       int verify_samples = 0) {
  const double scan_hi = 10.0 * scale;
  const double scan_lo = 1e-7 * scan_hi;
  const double tie = 1e-10 * scan_hi;
  const auto gap = [&raw_gap, tie](double p) { return raw_gap(p) - tie; };
  std::optional<std::vector<double>> warm;
  if (!hints.empty()) {
    warm = math::find_all_roots_warm(gap, scan_lo, scan_hi, hints,
                                     verify_samples);
  }
  T2Region out;
  out.roots = warm ? std::move(*warm)
                   : math::find_all_roots(gap, scan_lo, scan_hi, scan_samples);
  out.region = math::IntervalSet::from_alternating_roots(
      out.roots, 0.0, std::numeric_limits<double>::infinity(),
      gap(scan_lo) > 0.0);
  if (!out.region.empty() && std::isinf(out.region.intervals().back().hi)) {
    std::vector<math::Interval> trimmed = out.region.intervals();
    trimmed.back().hi = scan_hi;
    out.region = math::IntervalSet(std::move(trimmed));
  }
  return out;
}

/// Per-mechanism quadrature over a region's pieces.
struct RegionQuadrature {
  int panels;       ///< Gauss-Legendre panels per piece
  double lo_clamp;  ///< pieces start at max(lo, lo_clamp); 0 = no clamp
};

/// What the t1 agent holds at t2 when Bob stops (P_t2 outside the region).
struct OutsideValue {
  /// A price-independent t2 value (Alice's refund plus any deposits).
  [[nodiscard]] static OutsideValue payoff(double value) noexcept {
    return {value, false};
  }
  /// Bob's token-b itself, worth the realized price P_t2.
  [[nodiscard]] static OutsideValue token_b() noexcept { return {0.0, true}; }

  double value;
  bool is_token_b;
};

/// The t1 composition (Eqs. (25)/(26), (36)/(37)): the integral of
/// `t2_cont` against the tau_a price law over `region`, plus `outside` over
/// the complement, discounted tau_a at `rate`.
template <class F>
[[nodiscard]] double t1_value(const SwapParams& params,
                              const math::IntervalSet& region,
                              const F& t2_cont, OutsideValue outside,
                              double rate, RegionQuadrature quad) {
  const math::GbmLaw law(params.gbm, params.p_t0, params.tau_a);
  double inside = 0.0;
  double inside_mass = 0.0;  // probability, or partial expectation for token-b
  for (const math::Interval& iv : region.intervals()) {
    const double lo = std::max(iv.lo, quad.lo_clamp);
    if (!(iv.hi > lo)) continue;
    inside += math::gauss_legendre(
        [&law, &t2_cont](double x) { return law.pdf(x) * t2_cont(x); }, lo,
        iv.hi, quad.panels);
    inside_mass += outside.is_token_b
                       ? law.partial_expectation_below(iv.hi) -
                             law.partial_expectation_below(lo)
                       : law.cdf(iv.hi) - law.cdf(lo);
  }
  const double outside_term =
      outside.is_token_b
          ? std::max(0.0, law.expectation() - inside_mass)
          : std::max(0.0, 1.0 - inside_mass) * outside.value;
  return (inside + outside_term) * std::exp(-rate * params.tau_a);
}

/// Eqs. (31)/(40): P[P_t2 in region and P_t3 > cutoff] under the tau_a
/// and tau_b laws from P_t0; a zero cutoff (Alice always reveals) reduces
/// to the region mass per piece.
[[nodiscard]] double region_success_rate(const SwapParams& params,
                                         const math::IntervalSet& region,
                                         double cutoff, RegionQuadrature quad);

/// P[P_t2 in region] under the tau_a law from P_t0 in closed form
/// (lognormal CDF differences, unbounded pieces allowed), clamped to [0, 1].
[[nodiscard]] double region_mass(const SwapParams& params,
                                 const math::IntervalSet& region);

/// {x in [scan_lo, scan_hi] : gap(x) > 0} by sign-change scan and Brent
/// polishing.
[[nodiscard]] math::IntervalSet acceptable_set(const math::ScalarFn& gap,
                                               double scan_lo, double scan_hi,
                                               int scan_samples);

/// An agent's feasible exchange-rate band (P*_lo, P*_hi): the outermost
/// crossings of its acceptance gap (Eq. (29) reports (1.5, 2.5) for Alice
/// at Table III defaults).
struct FeasibleBand {
  bool viable = false;  ///< false when fewer than two crossings exist
  double lo = 0.0;
  double hi = 0.0;
};

/// The band of an acceptable_set() result: its piece endpoints strictly
/// inside the scan window are the gap's crossings.
[[nodiscard]] FeasibleBand feasible_band(const math::IntervalSet& accepted,
                                         double scan_lo, double scan_hi);

}  // namespace swapgame::model
