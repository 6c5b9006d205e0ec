// Success-premium uncertainty (paper Section I: "we study the game with
// uncertainty in counterparties' success premium").
//
// The complete-information game assumes each agent knows the other's
// (alpha, r) exactly (assumption 7).  Here that is relaxed for alpha: each
// agent holds a discrete common-knowledge prior over the counterparty's
// success premium and best-responds to the induced *mixture* of threshold
// behaviours:
//
//  * Bob at t2 does not know Alice's t3 cutoff; his continuation value
//    averages the reveal probability over his prior on alpha^A.
//  * Alice at t1 does not know Bob's t2 band; her initiation value averages
//    over the bands induced by her prior on alpha^B (each such Bob himself
//    best-responds under the alpha^A prior).
//
// The realized success rate then depends on the *true* premiums, which may
// differ from the prior mean -- quantifying how mis-calibrated beliefs
// erode the success rate (bench X4).
#pragma once

#include <optional>
#include <vector>

#include "math/gbm.hpp"
#include "math/interval.hpp"
#include "params.hpp"

namespace swapgame::model {

/// Discrete prior over a counterparty's success premium alpha.
struct AlphaPrior {
  std::vector<double> alphas;
  std::vector<double> weights;  ///< nonnegative, normalized by validate()

  /// Throws std::invalid_argument on size mismatch, empty support, negative
  /// weights or zero total mass; normalizes weights to sum to 1.
  void validate_and_normalize();

  /// Convenience: a point mass (recovers complete information).
  [[nodiscard]] static AlphaPrior point(double alpha);

  [[nodiscard]] double mean() const noexcept;
};

/// Bayesian swap game under alpha-uncertainty at a fixed exchange rate.
class UncertainPremiumGame {
 public:
  /// @param params        baseline parameters; params.alice.alpha and
  ///                      params.bob.alpha are the *true* premiums used for
  ///                      realized outcomes.
  /// @param belief_alpha_a Bob's prior over Alice's premium.
  /// @param belief_alpha_b Alice's prior over Bob's premium.
  UncertainPremiumGame(const SwapParams& params, AlphaPrior belief_alpha_a,
                       AlphaPrior belief_alpha_b, double p_star);

  /// Bob's t2 continuation value averaging Alice's reveal behaviour over
  /// the alpha^A prior.
  [[nodiscard]] double bob_t2_cont_bayes(double p_t2) const;

  /// Bob's continuation band under his prior (the band a Bayesian Bob with
  /// the *true* alpha^B actually plays).
  [[nodiscard]] std::optional<math::Interval> bob_t2_band_bayes() const noexcept {
    return band_;
  }

  /// Alice's t1 initiation value under her prior over alpha^B: a mixture of
  /// values across the bands each candidate Bob would play.
  [[nodiscard]] double alice_t1_cont_bayes() const;
  [[nodiscard]] double alice_t1_stop() const noexcept { return p_star_; }
  [[nodiscard]] Action alice_decision_t1() const;

  /// Realized success rate: Bayesian Bob's band (true alpha^B, prior on
  /// alpha^A) combined with the *true* Alice cutoff.
  [[nodiscard]] double realized_success_rate() const;

  /// Success rate Bob *believes* he faces (averaging the reveal probability
  /// over his alpha^A prior).  The gap to realized_success_rate() measures
  /// the cost of belief mis-calibration.
  [[nodiscard]] double believed_success_rate() const;

 private:
  /// Alice's t3 cutoff for a hypothetical premium value (Eq. 18 with
  /// alpha^A = alpha).
  [[nodiscard]] double cutoff_for_alpha(double alpha) const;
  /// bob_t2_cont_bayes for a Bob with the premiums of `params`.
  [[nodiscard]] double bob_t2_cont_bayes(const SwapParams& params,
                                         double p_t2) const;
  /// Band of a Bob with premium alpha_b best-responding under the alpha^A
  /// prior.
  [[nodiscard]] std::optional<math::Interval> band_for_bob(double alpha_b) const;
  void compute_band();

  SwapParams params_;
  AlphaPrior belief_a_;
  AlphaPrior belief_b_;
  double p_star_;
  // The tau_b law at each candidate Alice's cutoff, in belief_a_ order.
  // All share (gbm, tau_b), so one Point serves every law.
  std::vector<math::CutoffLaw> reveal_laws_;
  std::optional<math::Interval> band_;
};

}  // namespace swapgame::model
