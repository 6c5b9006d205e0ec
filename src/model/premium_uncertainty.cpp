#include "premium_uncertainty.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "backward_induction.hpp"
#include "math/gbm.hpp"
#include "math/quadrature.hpp"

namespace swapgame::model {

namespace {

constexpr int kScanSamples = 2048;

constexpr RegionQuadrature kQuadrature{48, 0.0};

}  // namespace

void AlphaPrior::validate_and_normalize() {
  if (alphas.empty() || alphas.size() != weights.size()) {
    throw std::invalid_argument("AlphaPrior: support/weights size mismatch");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    if (!std::isfinite(alphas[i]) || alphas[i] < -1.0) {
      throw std::invalid_argument("AlphaPrior: alpha must be finite and >= -1");
    }
    if (!(weights[i] >= 0.0) || !std::isfinite(weights[i])) {
      throw std::invalid_argument("AlphaPrior: weights must be >= 0");
    }
    total += weights[i];
  }
  if (!(total > 0.0)) {
    throw std::invalid_argument("AlphaPrior: total weight must be positive");
  }
  for (double& w : weights) w /= total;
}

AlphaPrior AlphaPrior::point(double alpha) {
  AlphaPrior p{{alpha}, {1.0}};
  p.validate_and_normalize();
  return p;
}

double AlphaPrior::mean() const noexcept {
  double m = 0.0;
  for (std::size_t i = 0; i < alphas.size(); ++i) m += alphas[i] * weights[i];
  return m;
}

UncertainPremiumGame::UncertainPremiumGame(const SwapParams& params,
                                           AlphaPrior belief_alpha_a,
                                           AlphaPrior belief_alpha_b,
                                           double p_star)
    : params_(params), belief_a_(std::move(belief_alpha_a)),
      belief_b_(std::move(belief_alpha_b)), p_star_(p_star) {
  params_.validate();
  belief_a_.validate_and_normalize();
  belief_b_.validate_and_normalize();
  if (!(p_star > 0.0) || !std::isfinite(p_star)) {
    throw std::invalid_argument("UncertainPremiumGame: p_star must be > 0");
  }
  for (const double alpha : belief_a_.alphas) {
    reveal_laws_.emplace_back(params_.gbm, params_.tau_b,
                              cutoff_for_alpha(alpha));
  }
  compute_band();
}

double UncertainPremiumGame::cutoff_for_alpha(double alpha) const {
  SwapParams p = params_;
  p.alice.alpha = alpha;
  return stage::alice_t3_cutoff(p, p_star_);
}

double UncertainPremiumGame::bob_t2_cont_bayes(double p_t2) const {
  return bob_t2_cont_bayes(params_, p_t2);
}

double UncertainPremiumGame::bob_t2_cont_bayes(const SwapParams& params,
                                               double p_t2) const {
  // Eq. (21) with the indicator split averaged over the alpha^A prior: each
  // candidate Alice has her own cutoff, so the reveal probability and the
  // refund partial expectation are prior mixtures.
  const math::CutoffLaw::Point at = reveal_laws_.front().at(p_t2);
  const double bob_t3_cont = stage::bob_t3_cont(params, p_star_);
  const double refund_growth =
      std::exp((params.gbm.mu - params.bob.r) * 2.0 * params.tau_b);
  double value = 0.0;
  for (std::size_t i = 0; i < reveal_laws_.size(); ++i) {
    const math::CutoffLaw& law = reveal_laws_[i];
    const double branch = law.survival(at) * bob_t3_cont +
                          refund_growth * law.partial_expectation_below(at);
    value += belief_a_.weights[i] * branch;
  }
  return value * std::exp(-params.bob.r * params.tau_b);
}

std::optional<math::Interval> UncertainPremiumGame::band_for_bob(
    double alpha_b) const {
  // The complete-information region solve with the Bayesian continuation
  // value and a hypothetical alpha^B.
  SwapParams p = params_;
  p.bob.alpha = alpha_b;
  const auto gap = [this, &p](double price) {
    return bob_t2_cont_bayes(p, price) - price;
  };
  const std::vector<double> roots =
      solve_t2_region(gap, std::max(p_star_, params_.p_t0), kScanSamples)
          .roots;
  if (roots.size() < 2) return std::nullopt;
  return math::Interval{roots.front(), roots.back()};
}

void UncertainPremiumGame::compute_band() {
  band_ = band_for_bob(params_.bob.alpha);
}

double UncertainPremiumGame::alice_t1_cont_bayes() const {
  // Alice mixes over the bands of each candidate Bob.  Inside a candidate
  // band her value is the complete-information alice_t2_cont (her own t3
  // behaviour does not depend on beliefs); outside she is refunded.
  const math::GbmLaw law(params_.gbm, params_.p_t0, params_.tau_a);
  const T2Kernel kernel(params_, p_star_,
                        stage::alice_t3_cutoff(params_, p_star_));
  const double refund = stage::alice_t2_stop(params_, p_star_);
  double value = 0.0;
  for (std::size_t i = 0; i < belief_b_.alphas.size(); ++i) {
    const auto band = band_for_bob(belief_b_.alphas[i]);
    double branch;
    if (!band) {
      branch = refund;
    } else {
      const double inside = math::gauss_legendre(
          [&](double x) {
            const T2Kernel::Point at = kernel.at(x);
            return law.pdf(x, at.log_price) * kernel.alice_cont(at);
          },
          band->lo, band->hi, kQuadrature.panels);
      const double outside_prob = law.cdf(band->lo) + law.survival(band->hi);
      branch = inside + outside_prob * refund;
    }
    value += belief_b_.weights[i] * branch;
  }
  return value * std::exp(-params_.alice.r * params_.tau_a);
}

Action UncertainPremiumGame::alice_decision_t1() const {
  return alice_t1_cont_bayes() > alice_t1_stop() ? Action::kCont
                                                 : Action::kStop;
}

double UncertainPremiumGame::realized_success_rate() const {
  if (!band_) return 0.0;
  return region_success_rate(params_, math::IntervalSet({*band_}),
                             cutoff_for_alpha(params_.alice.alpha),  // true
                             kQuadrature);
}

double UncertainPremiumGame::believed_success_rate() const {
  if (!band_) return 0.0;
  const math::GbmLaw law_a(params_.gbm, params_.p_t0, params_.tau_a);
  return math::gauss_legendre(
      [&](double x) {
        const math::CutoffLaw::Point at = reveal_laws_.front().at(x);
        double reveal = 0.0;
        for (std::size_t i = 0; i < reveal_laws_.size(); ++i) {
          reveal += belief_a_.weights[i] * reveal_laws_[i].survival(at);
        }
        return law_a.pdf(x, at.log_price) * reveal;
      },
      band_->lo, band_->hi, kQuadrature.panels);
}

}  // namespace swapgame::model
