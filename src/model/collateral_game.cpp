#include "collateral_game.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "solver_cache.hpp"

namespace swapgame::model {

namespace {

constexpr int kRegionScanSamples = 4096;

// Verification resolution for warm-started solves (finer than the basic
// game's: the collateral gap can have 3 crossings, Fig. 7).
constexpr int kWarmVerifySamples = 513;

constexpr RegionQuadrature kQuadrature{48, 0.0};

}  // namespace

CollateralGame::CollateralGame(const SwapParams& params, double p_star,
                               double collateral)
    : CollateralGame(params, p_star, collateral, {}) {}

CollateralGame::CollateralGame(const SwapParams& params, double p_star,
                               double collateral,
                               const std::vector<double>& t2_root_hints)
    : params_(params), p_star_(p_star), q_(collateral) {
  params_.validate();
  if (!(p_star > 0.0) || !std::isfinite(p_star)) {
    throw std::invalid_argument(
        "CollateralGame: p_star must be positive and finite");
  }
  if (!(collateral >= 0.0) || !std::isfinite(collateral)) {
    throw std::invalid_argument(
        "CollateralGame: collateral must be >= 0 and finite");
  }
  // Eq. (35): Bob's own collateral comes back at t3 + tau_a regardless
  // (he has fulfilled his obligations by locking); if Alice waives he
  // additionally receives her forfeited collateral at t4 + tau_a.  Eq. (36):
  // Alice recovers her collateral only on the reveal branch.
  const double rB = params_.bob.r;
  kernel_ = T2Kernel(
      params_, p_star_,
      stage::alice_t3_cutoff(params_, p_star_, alice_recovery()),
      {.on_lock = q_ * std::exp(-rB * params_.tau_a),
       .on_waive = q_ * std::exp(-rB * (params_.eps_b + params_.tau_a)),
       .reveal_bonus = alice_recovery()});
  // Roots of bob_t2_cont(p) - p.  With Q > 0 the gap is positive as p -> 0
  // (recovering 2 discounted Q beats keeping a worthless token) and
  // negative as p -> inf, so there is an odd number of crossings (Fig. 7).
  t2_ = solve_t2_region(
      [this](double p) { return kernel_.bob_cont(p) - bob_t2_stop(p); },
      std::max({p_star_, params_.p_t0, kernel_.cutoff(), q_}),
      kRegionScanSamples, t2_root_hints, kWarmVerifySamples);
}

double CollateralGame::alice_recovery() const {
  return q_ * std::exp(-params_.alice.r * (params_.eps_b + params_.tau_a));
}

// ---------------------------------------------------------------- t3 stage

double CollateralGame::alice_t3_cont(double p_t3) const {
  // Basic cont utility plus the collateral recovered at t4 + tau_a, i.e.
  // eps_b + tau_a after t3 (Section IV-2).
  return stage::alice_t3_cont(params_, p_t3) + alice_recovery();
}

double CollateralGame::alice_t3_stop() const {
  return stage::alice_t3_stop(params_, p_star_);
}

Action CollateralGame::alice_decision_t3(double p_t3) const {
  return p_t3 > kernel_.cutoff() ? Action::kCont : Action::kStop;
}

// ---------------------------------------------------------------- t2 stage

double CollateralGame::alice_t2_cont(double p_t2) const {
  // Eq. (36)'s integrand value: Alice's expected t3 value when Bob locked.
  // On the reveal branch she also recovers her collateral; on the waive
  // branch she forfeits it.
  return kernel_.alice_cont(p_t2);
}

double CollateralGame::bob_t2_cont(double p_t2) const {
  // Eq. (35), with the collateral terms the kernel was built with.
  return kernel_.bob_cont(p_t2);
}

double CollateralGame::bob_t2_stop(double p_t2) const {
  // Eq. (23): stopping forfeits Bob's collateral (released to Alice), so
  // his stop utility is just the token-b value.
  return stage::bob_t2_stop(p_t2);
}

Action CollateralGame::bob_decision_t2(double p_t2) const {
  return t2_.region.contains(p_t2) ? Action::kCont : Action::kStop;
}

// ---------------------------------------------------------------- t1 stage

double CollateralGame::alice_t1_cont() const {
  // Eq. (36).  Where Bob will lock, Alice's value is alice_t2_cont; where
  // Bob will stop, Alice is refunded (Eq. 22) and receives both collaterals
  // 2Q at t3 (decided) + tau_a (confirmation), i.e. tau_b + tau_a after t2.
  return alice_t1_cont_cache_.get([this] {
    const double stop_value =
        stage::alice_t2_stop(params_, p_star_) +
        2.0 * q_ * std::exp(-params_.alice.r * (params_.tau_b + params_.tau_a));
    return t1_value(
        params_, t2_.region, kernel_.law(),
        [this](const T2Kernel::Point& at) { return kernel_.alice_cont(at); },
        OutsideValue::payoff(stop_value), params_.alice.r, kQuadrature);
  });
}

double CollateralGame::alice_t1_stop() const {
  // Eq. (38): keep the token-a and the would-be collateral.
  return p_star_ + q_;
}

double CollateralGame::bob_t1_cont() const {
  // Eq. (37) (with the r^A typo read as r^B; see DESIGN.md): inside the
  // region Bob's value is bob_t2_cont; outside he keeps token-b worth the
  // realized price and forfeits his collateral.
  return bob_t1_cont_cache_.get([this] {
    return t1_value(
        params_, t2_.region, kernel_.law(),
        [this](const T2Kernel::Point& at) { return kernel_.bob_cont(at); },
        OutsideValue::token_b(), params_.bob.r, kQuadrature);
  });
}

double CollateralGame::bob_t1_stop() const {
  // Eq. (39).
  return params_.p_t0 + q_;
}

Action CollateralGame::alice_decision_t1() const {
  return alice_t1_cont() > alice_t1_stop() ? Action::kCont : Action::kStop;
}

Action CollateralGame::bob_decision_t1() const {
  return bob_t1_cont() > bob_t1_stop() ? Action::kCont : Action::kStop;
}

bool CollateralGame::engaged() const {
  return alice_decision_t1() == Action::kCont &&
         bob_decision_t1() == Action::kCont;
}

// ------------------------------------------------------------ success rate

double CollateralGame::success_rate() const {
  // Eq. (40): integrate Alice's reveal probability over Bob's t2 region.
  return success_rate_cache_.get([this] {
    return region_success_rate(params_, t2_.region, kernel_.cutoff(),
                               kQuadrature);
  });
}

double CollateralGame::bob_t2_cont_probability() const {
  return region_mass(params_, t2_.region);
}

// ------------------------------------------------------------- free helpers

CollateralViability collateral_viable_rates(const SwapParams& params,
                                            double collateral, double scan_lo,
                                            double scan_hi, int scan_samples) {
  // Alice's and Bob's gap functions are scanned over the same P* grid, and
  // consecutive evaluations sit close together: share one warm-chained,
  // memoized game per P* so each (P*, Q) is solved exactly once across both
  // scans instead of cold twice.  The sweeper validates params.
  CollateralGameSweeper sweeper(params);
  CollateralViability v;
  v.alice = acceptable_set(
      [&](double p_star) {
        const auto g = sweeper.at(p_star, collateral);
        return g->alice_t1_cont() - g->alice_t1_stop();
      },
      scan_lo, scan_hi, scan_samples);
  v.bob = acceptable_set(
      [&](double p_star) {
        const auto g = sweeper.at(p_star, collateral);
        return g->bob_t1_cont() - g->bob_t1_stop();
      },
      scan_lo, scan_hi, scan_samples);
  v.both = v.alice.intersect(v.bob);
  return v;
}

}  // namespace swapgame::model
