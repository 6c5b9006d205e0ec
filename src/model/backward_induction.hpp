// The backward-induction core shared by the HTLC game family (paper
// Section III-E, and Section IV's collateral game, which is the same
// recursion with extra deposit terms).
//
// Every mechanism (BasicGame, PremiumGame, CollateralGame, ExtendedGame,
// the alpha-uncertainty game) solves the same t4 -> t3 -> t2 -> t1
// recursion; this module owns the parts they share:
//   * the basic t3 stage payoffs, Eqs. (14)-(19), and Eqs. (22)/(23), as
//     functions of the cutoff (namespace `stage`);
//   * the t2-stage kernel (T2Kernel), the single implementation of the
//     closed-form t2 continuation values, Eqs. (20)/(21), with optional
//     deposit terms;
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
// Eqs. (20)/(21) run at every root-scan point and every quadrature node,
// hundreds of thousands of times per feasible-band scan.  A T2Kernel is
// built once per (params, P*, cutoff, deposits): it hoists every factor
// that does not depend on P_t2 (the tau_b drift and volatility, ln cutoff,
// the growth and discount exponentials, the deposit terms), so a point
// costs one log plus the erfc calls it needs, and a t1 quadrature node
// shares that log with the tau_a density.  Its values are bit-identical to
// evaluating the same formulas through a fresh math::GbmLaw per point
// (tests/test_backward_induction.cpp keeps that reference).
//
// The kernel's point evaluations, the stage payoffs and the two functions
// that take a game's callback (solve_t2_region, t1_value) are defined here,
// not in the .cpp: they run inside every root scan and quadrature node.
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

/// Stage payoffs of the basic game that need no price law: the t3 stage,
/// Eqs. (14)-(19), and the t2 stop values, Eqs. (22)/(23).  The t2
/// continuation values, Eqs. (20)/(21), are T2Kernel's.
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

/// Eq. (22): Bob walks at t2; Alice's token-a is refunded at t8 = t2 +
/// tau_b + eps_b + 2 tau_a.
[[nodiscard]] inline double alice_t2_stop(const SwapParams& params,
                                          double p_star) {
  return p_star * std::exp(-params.alice.r *
                           (params.tau_b + params.eps_b + 2.0 * params.tau_a));
}

/// Eq. (23): Bob keeps his token-b, worth P_t2.
[[nodiscard]] inline double bob_t2_stop(double p_t2) { return p_t2; }

}  // namespace stage

/// Deposit terms of the t2 continuation values (all zero in the basic
/// game).  A zero term costs no extra erfc.
struct T2Deposits {
  double on_lock = 0.0;       ///< Bob receives whatever Alice does (t2-anchored)
  double on_waive = 0.0;      ///< Bob receives only if Alice waives (t3-anchored)
  double reveal_bonus = 0.0;  ///< Alice recovers only by revealing (t3-anchored)
};

/// The t2 stage of one game: Eqs. (20)/(21) for a fixed (params, P*,
/// Alice's t3 cutoff, deposits), evaluated at any P_t2.  Construction
/// hoists every P_t2-invariant factor; a point evaluation costs the one
/// log of at() plus two erfc (three with a nonzero reveal_bonus or
/// on_waive).
class T2Kernel {
 public:
  using Point = math::CutoffLaw::Point;

  /// An empty kernel, to be assigned before use.
  T2Kernel() = default;
  /// Throws std::invalid_argument on invalid gbm params or tau_b.
  T2Kernel(const SwapParams& params, double p_star, double cutoff,
           T2Deposits deposits = {});

  /// Alice's t3 cutoff the kernel was built for.
  [[nodiscard]] double cutoff() const noexcept { return law_.cutoff(); }
  /// The tau_b law at the cutoff.
  [[nodiscard]] const math::CutoffLaw& law() const noexcept { return law_; }

  /// P_t2 as a point of the tau_b law; throws std::invalid_argument unless
  /// p_t2 > 0 and finite.
  [[nodiscard]] Point at(double p_t2) const { return law_.at(p_t2); }

  /// Eq. (20): Alice's t2 value when Bob locks and she reveals above the
  /// cutoff.  alice_t3_cont is linear in the price, so its integral over
  /// {P_t3 > cutoff} is the upper partial expectation; a reveal_bonus is
  /// recovered only on the reveal branch.
  [[nodiscard]] double alice_cont(const Point& at) const noexcept {
    double cont_part = alice_growth_ * law_.partial_expectation_above(at);
    if (deposits_.reveal_bonus != 0.0) {
      cont_part += law_.survival(at) * deposits_.reveal_bonus;
    }
    const double stop_part = law_.cdf(at) * alice_refund_;
    return (cont_part + stop_part) * alice_discount_;
  }
  [[nodiscard]] double alice_cont(double p_t2) const {
    return alice_cont(at(p_t2));
  }

  /// Eq. (21): Bob's t2 value when he locks and Alice reveals above the
  /// cutoff: bob_t3_cont with probability 1 - C(cutoff), otherwise his
  /// refunded token-b (the lower partial expectation), plus the deposits.
  [[nodiscard]] double bob_cont(const Point& at) const noexcept {
    const double cont_part = law_.survival(at) * bob_claim_;
    double stop_part = bob_growth_ * law_.partial_expectation_below(at);
    if (deposits_.on_waive != 0.0) {
      stop_part += law_.cdf(at) * deposits_.on_waive;
    }
    return (deposits_.on_lock + cont_part + stop_part) * bob_discount_;
  }
  [[nodiscard]] double bob_cont(double p_t2) const {
    return bob_cont(at(p_t2));
  }

 private:
  math::CutoffLaw law_;
  T2Deposits deposits_;
  double alice_growth_ = 0.0;    // (1 + alpha^A) e^{(mu - r^A) tau_b}
  double alice_refund_ = 0.0;    // Eq. (16), alice_t3_stop
  double alice_discount_ = 0.0;  // e^{-r^A tau_b}
  double bob_claim_ = 0.0;       // Eq. (15), bob_t3_cont
  double bob_growth_ = 0.0;      // e^{(mu - r^B) 2 tau_b}
  double bob_discount_ = 0.0;    // e^{-r^B tau_b}
};

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
/// the complement, discounted tau_a at `rate`.  `t2_cont` takes the node as
/// a point of `t2_law` (a T2Kernel's law), whose log the tau_a density
/// shares.
template <class F>
[[nodiscard]] double t1_value(const SwapParams& params,
                              const math::IntervalSet& region,
                              const math::CutoffLaw& t2_law, const F& t2_cont,
                              OutsideValue outside, double rate,
                              RegionQuadrature quad) {
  const math::GbmLaw law(params.gbm, params.p_t0, params.tau_a);
  double inside = 0.0;
  double inside_mass = 0.0;  // probability, or partial expectation for token-b
  for (const math::Interval& iv : region.intervals()) {
    const double lo = std::max(iv.lo, quad.lo_clamp);
    if (!(iv.hi > lo)) continue;
    inside += math::gauss_legendre(
        [&law, &t2_law, &t2_cont](double x) {
          const math::CutoffLaw::Point at = t2_law.at(x);
          return law.pdf(x, at.log_price) * t2_cont(at);
        },
        lo, iv.hi, quad.panels);
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
