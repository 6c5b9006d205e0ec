#include "basic_game.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "solver_cache.hpp"

namespace swapgame::model {

namespace {

// Scan resolution for Bob's t2 indifference roots.  The cont/stop utility
// gap is smooth with at most two transversal zeros, so a moderately fine
// grid plus Brent polishing is ample.
constexpr int kBandScanSamples = 2048;

// Verification resolution for warm-started solves: coarse enough to be
// cheap, fine enough that a structural change between neighbouring sweep
// points (a crossing appearing or vanishing) is detected and triggers the
// cold-scan fallback.
constexpr int kWarmVerifySamples = 257;

constexpr RegionQuadrature kQuadrature{64, 1e-12};

}  // namespace

BasicGame::BasicGame(const SwapParams& params, double p_star)
    : BasicGame(params, p_star, {}) {}

BasicGame::BasicGame(const SwapParams& params, double p_star,
                     const std::vector<double>& t2_root_hints)
    : params_(params), p_star_(p_star) {
  params_.validate();
  if (!(p_star > 0.0) || !std::isfinite(p_star)) {
    throw std::invalid_argument("BasicGame: p_star must be positive and finite");
  }
  kernel_ =
      T2Kernel(params_, p_star_, stage::alice_t3_cutoff(params_, p_star_));
  // Roots of g(p) = bob_t2_cont(p) - p.  In the paper's mu < r regime g < 0
  // both as p -> 0 (token-b worthless, but Alice will not reveal either)
  // and as p -> inf (Bob keeps the valuable token-b), so the cont region
  // lies between two roots (Section III-E3).  With mu >= r Bob's refund
  // branch outgrows his discounting and g > 0 near 0: the region extends
  // down to zero with a single indifference point.
  t2_ = solve_t2_region(
      [this](double p) { return kernel_.bob_cont(p) - bob_t2_stop(p); },
      std::max({p_star_, params_.p_t0, kernel_.cutoff()}), kBandScanSamples,
      t2_root_hints, kWarmVerifySamples);
}

// ---------------------------------------------------------------- t3 stage

double BasicGame::alice_t3_cont(double p_t3) const {
  return stage::alice_t3_cont(params_, p_t3);
}

double BasicGame::alice_t3_stop() const {
  return stage::alice_t3_stop(params_, p_star_);
}

double BasicGame::bob_t3_cont() const {
  return stage::bob_t3_cont(params_, p_star_);
}

double BasicGame::bob_t3_stop(double p_t3) const {
  return stage::bob_t3_stop(params_, p_t3);
}

Action BasicGame::alice_decision_t3(double p_t3) const {
  // Eq. (19): cont iff P_t3 > cutoff.
  return p_t3 > kernel_.cutoff() ? Action::kCont : Action::kStop;
}

// ---------------------------------------------------------------- t2 stage

double BasicGame::alice_t2_cont(double p_t2) const {
  return kernel_.alice_cont(p_t2);
}

double BasicGame::alice_t2_stop() const {
  return stage::alice_t2_stop(params_, p_star_);
}

double BasicGame::bob_t2_cont(double p_t2) const {
  return kernel_.bob_cont(p_t2);
}

double BasicGame::bob_t2_stop(double p_t2) const {
  return stage::bob_t2_stop(p_t2);
}

std::optional<math::Interval> BasicGame::bob_t2_band() const noexcept {
  if (t2_.region.size() != 1) return std::nullopt;
  return t2_.region.intervals().front();
}

Action BasicGame::bob_decision_t2(double p_t2) const {
  // Eq. (24).
  return t2_.region.contains(p_t2) ? Action::kCont : Action::kStop;
}

// ---------------------------------------------------------------- t1 stage

double BasicGame::alice_t1_cont() const {
  // Eq. (25): Alice's t2 value inside Bob's region, her refund outside.
  return alice_t1_cont_cache_.get([this] {
    return t1_value(
        params_, t2_.region, kernel_.law(),
        [this](const T2Kernel::Point& at) { return kernel_.alice_cont(at); },
        OutsideValue::payoff(alice_t2_stop()), params_.alice.r, kQuadrature);
  });
}

double BasicGame::alice_t1_stop() const {
  // Eq. (27): Alice keeps her P_star token-a.
  return p_star_;
}

double BasicGame::bob_t1_cont() const {
  // Eq. (26): inside the region Bob's t2 value is bob_t2_cont; outside he
  // keeps token-b worth the realized price.
  return bob_t1_cont_cache_.get([this] {
    return t1_value(
        params_, t2_.region, kernel_.law(),
        [this](const T2Kernel::Point& at) { return kernel_.bob_cont(at); },
        OutsideValue::token_b(), params_.bob.r, kQuadrature);
  });
}

double BasicGame::bob_t1_stop() const {
  // Eq. (28): Bob keeps his 1 token-b, worth P_t1 = P_t0.
  return params_.p_t0;
}

Action BasicGame::alice_decision_t1() const {
  // Eq. (30): initiate iff continuation beats keeping the token-a.
  return alice_t1_cont() > alice_t1_stop() ? Action::kCont : Action::kStop;
}

// ------------------------------------------------------------ success rate

double BasicGame::success_rate() const {
  // Eq. (31): P[P_t2 in region] weighted by P[Alice reveals at t3 | P_t2].
  return success_rate_cache_.get([this] {
    return region_success_rate(params_, t2_.region, kernel_.cutoff(),
                               kQuadrature);
  });
}

double BasicGame::bob_t2_cont_probability() const {
  return region_mass(params_, t2_.region);
}

// ------------------------------------------------------------- free helpers

FeasibleBand alice_feasible_band(const SwapParams& params, double scan_lo,
                                 double scan_hi, int scan_samples) {
  params.validate();
  // The scan evaluates the gap at closely spaced P* values; chain each
  // game's t2 roots into the next construction as warm-start hints so the
  // inner region solve skips the full cold scan at almost every point.
  std::vector<double> last_roots;
  const auto gap = [&params, &last_roots](double p_star) {
    const BasicGame game(params, p_star, last_roots);
    last_roots = game.t2_roots();
    return game.alice_t1_cont() - game.alice_t1_stop();
  };
  return feasible_band(acceptable_set(gap, scan_lo, scan_hi, scan_samples),
                       scan_lo, scan_hi);
}

std::optional<OptimalRate> sr_maximizing_rate(const SwapParams& params,
                                              int grid) {
  const FeasibleBand band = cached_feasible_band(params);
  if (!band.viable || grid < 2) return std::nullopt;
  OptimalRate best;
  bool found = false;
  std::vector<double> last_roots;
  for (int i = 0; i <= grid; ++i) {
    const double p_star =
        band.lo + (band.hi - band.lo) * static_cast<double>(i) / grid;
    if (!(p_star > 0.0)) continue;
    const BasicGame game(params, p_star, last_roots);
    last_roots = game.t2_roots();
    const double sr = game.success_rate();
    if (!found || sr > best.success_rate) {
      best = {p_star, sr};
      found = true;
    }
  }
  if (!found) return std::nullopt;
  return best;
}

}  // namespace swapgame::model
