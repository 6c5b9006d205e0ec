#include "premium_game.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace swapgame::model {

namespace {

constexpr int kRegionScanSamples = 4096;

constexpr RegionQuadrature kQuadrature{48, 0.0};

}  // namespace

PremiumGame::PremiumGame(const SwapParams& params, double p_star,
                         double premium)
    : params_(params), p_star_(p_star), pr_(premium) {
  params_.validate();
  if (!(p_star > 0.0) || !std::isfinite(p_star)) {
    throw std::invalid_argument(
        "PremiumGame: p_star must be positive and finite");
  }
  if (!(premium >= 0.0) || !std::isfinite(premium)) {
    throw std::invalid_argument("PremiumGame: premium must be >= 0 and finite");
  }
  // If Alice waives, the escrow pays Bob eps_b + 2 tau_a after t3; if she
  // reveals, she claims it back.
  kernel_ = T2Kernel(
      params_, p_star_,
      stage::alice_t3_cutoff(params_, p_star_, alice_recovery()),
      {.on_waive = pr_ * std::exp(-params_.bob.r *
                                  (params_.eps_b + 2.0 * params_.tau_a)),
       .reveal_bonus = alice_recovery()});
  t2_region_ =
      solve_t2_region(
          [this](double p) { return kernel_.bob_cont(p) - bob_t2_stop(p); },
          std::max({p_star_, params_.p_t0, kernel_.cutoff(), pr_}),
          kRegionScanSamples)
          .region;
}

double PremiumGame::alice_recovery() const {
  return pr_ * std::exp(-params_.alice.r * params_.tau_a);
}

// ---------------------------------------------------------------- t3 stage

double PremiumGame::alice_t3_cont(double p_t3) const {
  // Reveal + immediately claim the escrow on Chain_a: the claim confirms
  // tau_a after t3.
  return stage::alice_t3_cont(params_, p_t3) + alice_recovery();
}

double PremiumGame::alice_t3_stop() const {
  return stage::alice_t3_stop(params_, p_star_);
}

double PremiumGame::bob_t3_cont() const {
  return stage::bob_t3_cont(params_, p_star_);
}

double PremiumGame::bob_t3_stop(double p_t3) const {
  // The escrow times out at t_a = t3 + eps_b + tau_a and pays Bob tau_a
  // later, i.e. eps_b + 2 tau_a after t3.
  return stage::bob_t3_stop(params_, p_t3) +
         pr_ * std::exp(-params_.bob.r * (params_.eps_b + 2.0 * params_.tau_a));
}

Action PremiumGame::alice_decision_t3(double p_t3) const {
  return p_t3 > kernel_.cutoff() ? Action::kCont : Action::kStop;
}

// ---------------------------------------------------------------- t2 stage

double PremiumGame::alice_t2_cont(double p_t2) const {
  return kernel_.alice_cont(p_t2);
}

double PremiumGame::bob_t2_cont(double p_t2) const {
  return kernel_.bob_cont(p_t2);
}

double PremiumGame::bob_t2_stop(double p_t2) const {
  // Bob walks; the escrow is cancelled back to Alice, so Bob just keeps his
  // token-b (Eq. 23).
  return stage::bob_t2_stop(p_t2);
}

Action PremiumGame::bob_decision_t2(double p_t2) const {
  return t2_region_.contains(p_t2) ? Action::kCont : Action::kStop;
}

// ---------------------------------------------------------------- t1 stage

double PremiumGame::alice_t1_cont() const {
  // If Bob stops at t2 the escrow is cancelled at t3 and Alice receives her
  // premium back tau_a later, i.e. tau_b + tau_a after t2.
  return alice_t1_cont_cache_.get([this] {
    const double stop_value =
        stage::alice_t2_stop(params_, p_star_) +
        pr_ * std::exp(-params_.alice.r * (params_.tau_b + params_.tau_a));
    return t1_value(
        params_, t2_region_, kernel_.law(),
        [this](const T2Kernel::Point& at) { return kernel_.alice_cont(at); },
        OutsideValue::payoff(stop_value), params_.alice.r, kQuadrature);
  });
}

double PremiumGame::alice_t1_stop() const { return p_star_ + pr_; }

double PremiumGame::bob_t1_cont() const {
  return bob_t1_cont_cache_.get([this] {
    return t1_value(
        params_, t2_region_, kernel_.law(),
        [this](const T2Kernel::Point& at) { return kernel_.bob_cont(at); },
        OutsideValue::token_b(), params_.bob.r, kQuadrature);
  });
}

double PremiumGame::bob_t1_stop() const { return params_.p_t0; }

Action PremiumGame::alice_decision_t1() const {
  return alice_t1_cont() > alice_t1_stop() ? Action::kCont : Action::kStop;
}

// ------------------------------------------------------------ success rate

double PremiumGame::success_rate() const {
  return success_rate_cache_.get([this] {
    return region_success_rate(params_, t2_region_, kernel_.cutoff(),
                               kQuadrature);
  });
}

// ------------------------------------------------------------- free helpers

math::IntervalSet premium_viable_rates(const SwapParams& params,
                                       double premium, double scan_lo,
                                       double scan_hi, int scan_samples) {
  params.validate();
  return acceptable_set(
      [&](double p_star) {
        const PremiumGame g(params, p_star, premium);
        return g.alice_t1_cont() - g.alice_t1_stop();
      },
      scan_lo, scan_hi, scan_samples);
}

}  // namespace swapgame::model
