// Tests for the t2-stage kernel of the backward-induction core
// (src/model/backward_induction.hpp).
//
// The kernel hoists every P_t2-invariant factor of Eqs. (20)/(21) and shares
// one log per quadrature node between the tau_a density and the tau_b law.
// Its contract is that this changes no bit: the reference below is the
// straightforward form -- a fresh math::GbmLaw per point, the integrand
// passed to Gauss-Legendre as a std::function -- and every kernel value must
// equal it bit for bit, not merely to a tolerance.
#include "model/backward_induction.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "math/gbm.hpp"
#include "math/quadrature.hpp"
#include "model/basic_game.hpp"
#include "model/collateral_game.hpp"
#include "model/premium_game.hpp"

namespace swapgame::model {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ------------------------------------------------------------- the reference

/// Eq. (20) through a GbmLaw built at the point.
double ref_alice_t2_cont(const SwapParams& params, double p_star,
                         double cutoff, double p_t2, double reveal_bonus) {
  const math::GbmLaw law(params.gbm, p_t2, params.tau_b);
  double cont_part = (1.0 + params.alice.alpha) *
                     std::exp((params.gbm.mu - params.alice.r) * params.tau_b) *
                     law.partial_expectation_above(cutoff);
  if (reveal_bonus != 0.0) cont_part += law.survival(cutoff) * reveal_bonus;
  const double stop_part =
      law.cdf(cutoff) * stage::alice_t3_stop(params, p_star);
  return (cont_part + stop_part) * std::exp(-params.alice.r * params.tau_b);
}

/// Eq. (21) through a GbmLaw built at the point.
double ref_bob_t2_cont(const SwapParams& params, double p_star, double cutoff,
                       double p_t2, double on_lock, double on_waive) {
  const math::GbmLaw law(params.gbm, p_t2, params.tau_b);
  const double cont_part =
      law.survival(cutoff) * stage::bob_t3_cont(params, p_star);
  double stop_part =
      std::exp((params.gbm.mu - params.bob.r) * 2.0 * params.tau_b) *
      law.partial_expectation_below(cutoff);
  if (on_waive != 0.0) stop_part += law.cdf(cutoff) * on_waive;
  return (on_lock + cont_part + stop_part) *
         std::exp(-params.bob.r * params.tau_b);
}

/// t1_value with the per-node GbmLaw and a std::function integrand.
double ref_t1_value(const SwapParams& params, const math::IntervalSet& region,
                    const std::function<double(double)>& t2_cont,
                    OutsideValue outside, double rate, RegionQuadrature quad) {
  const math::GbmLaw law(params.gbm, params.p_t0, params.tau_a);
  double inside = 0.0;
  double inside_mass = 0.0;
  for (const math::Interval& iv : region.intervals()) {
    const double lo = std::max(iv.lo, quad.lo_clamp);
    if (!(iv.hi > lo)) continue;
    const std::function<double(double)> integrand =
        [&law, &t2_cont](double x) { return law.pdf(x) * t2_cont(x); };
    inside += math::gauss_legendre(integrand, lo, iv.hi, quad.panels);
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

/// region_success_rate with the per-node GbmLaw.
double ref_success_rate(const SwapParams& params,
                        const math::IntervalSet& region, double cutoff,
                        RegionQuadrature quad) {
  if (region.empty()) return 0.0;
  const math::GbmLaw law_a(params.gbm, params.p_t0, params.tau_a);
  double sr = 0.0;
  for (const math::Interval& iv : region.intervals()) {
    const double lo = std::max(iv.lo, quad.lo_clamp);
    if (!(iv.hi > lo)) continue;
    if (cutoff == 0.0) {
      sr += law_a.cdf(iv.hi) - law_a.cdf(lo);
      continue;
    }
    const std::function<double(double)> integrand =
        [&params, &law_a, cutoff](double x) {
          const math::GbmLaw law_b(params.gbm, x, params.tau_b);
          return law_a.pdf(x) * law_b.survival(cutoff);
        };
    sr += math::gauss_legendre(integrand, lo, iv.hi, quad.panels);
  }
  return sr;
}

// ---------------------------------------------------------------- fixtures

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// P_t2 from 1e-9 to 1e3, 25 points a decade, plus round values.
std::vector<double> price_grid() {
  std::vector<double> grid;
  for (int i = 0; i <= 300; ++i) {
    grid.push_back(1e-9 * std::pow(10.0, i / 25.0));
  }
  for (double p : {0.5, 1.0, 1.4810971, 1.5, 2.0, 2.5, 3.0, 7.0}) {
    grid.push_back(p);
  }
  return grid;
}

struct Case {
  const char* name;
  SwapParams params;
  double p_star;
  double cutoff;
  T2Deposits deposits;
};

/// Horizons, rates and premiums with no power-of-two structure, so that a
/// regrouped product or sum in a hoisted factor changes bits.
SwapParams odd_params() {
  SwapParams p = SwapParams::table3_defaults();
  p.alice = {0.27, 0.013};
  p.bob = {0.33, 0.017};
  p.tau_a = 2.9;
  p.tau_b = 3.7;
  p.eps_b = 1.3;
  p.p_t0 = 1.93;
  p.gbm = {0.0031, 0.137};
  return p;
}

std::vector<Case> cases() {
  const SwapParams table3 = SwapParams::table3_defaults();
  const SwapParams odd = odd_params();
  SwapParams growing = table3;  // mu >= r_B: Bob's refund outgrows discounting
  growing.gbm.mu = 0.02;
  growing.bob.r = 0.01;
  SwapParams even = table3;  // mu == r_B exactly
  even.gbm.mu = even.bob.r;
  const double cut = stage::alice_t3_cutoff(table3, 2.0);
  const T2Deposits collateral{.on_lock = 0.37, .on_waive = 0.29,
                              .reveal_bonus = 0.41};
  return {
      {"table3", table3, 2.0, cut, {}},
      {"table3_deposits", table3, 2.0, cut, collateral},
      {"clamped_cutoff", table3, 2.0, 0.0, collateral},
      {"clamped_cutoff_no_deposits", table3, 1.7, 0.0, {}},
      {"never_reveals", table3, 2.0, kInf, collateral},
      {"mu_above_rB", growing, 2.0, stage::alice_t3_cutoff(growing, 2.0),
       collateral},
      {"mu_equals_rB", even, 2.4, stage::alice_t3_cutoff(even, 2.4), {}},
      {"waive_only", table3, 1.2, stage::alice_t3_cutoff(table3, 1.2),
       {.on_waive = 0.5}},
      {"odd", odd, 2.1, stage::alice_t3_cutoff(odd, 2.1), {}},
      {"odd_deposits", odd, 1.9, stage::alice_t3_cutoff(odd, 1.9, 0.2),
       collateral},
  };
}

// ------------------------------------------------------------------ kernel

TEST(T2Kernel, PointValuesAreBitIdenticalToThePerPointLaw) {
  const std::vector<double> grid = price_grid();
  for (const Case& c : cases()) {
    const T2Kernel kernel(c.params, c.p_star, c.cutoff, c.deposits);
    for (const double p : grid) {
      const double alice = ref_alice_t2_cont(c.params, c.p_star, c.cutoff, p,
                                             c.deposits.reveal_bonus);
      const double bob =
          ref_bob_t2_cont(c.params, c.p_star, c.cutoff, p,
                          c.deposits.on_lock, c.deposits.on_waive);
      ASSERT_EQ(bits(kernel.alice_cont(p)), bits(alice))
          << c.name << " p=" << p;
      ASSERT_EQ(bits(kernel.bob_cont(p)), bits(bob)) << c.name << " p=" << p;
    }
  }
}

TEST(T2Kernel, LawValuesAreBitIdenticalToGbmLaw) {
  const double cutoffs[] = {0.0, -1.0, kNaN, 1e-300, 0.7, 1.48, 40.0, kInf};
  for (const SwapParams& params :
       {SwapParams::table3_defaults(), odd_params()}) {
    for (const double cutoff : cutoffs) {
      const math::CutoffLaw law(params.gbm, params.tau_b, cutoff);
      for (const double p : price_grid()) {
        const math::GbmLaw ref(params.gbm, p, params.tau_b);
        const math::CutoffLaw::Point at = law.at(p);
        ASSERT_EQ(bits(law.survival(at)), bits(ref.survival(cutoff)))
            << "cutoff=" << cutoff << " p=" << p;
        ASSERT_EQ(bits(law.cdf(at)), bits(ref.cdf(cutoff)));
        ASSERT_EQ(bits(law.partial_expectation_below(at)),
                  bits(ref.partial_expectation_below(cutoff)));
        ASSERT_EQ(bits(law.partial_expectation_above(at)),
                  bits(ref.partial_expectation_above(cutoff)));
        ASSERT_EQ(bits(ref.pdf(p, at.log_price)), bits(ref.pdf(p)));
      }
    }
  }
}

TEST(T2Kernel, T1NodesAndIntegralsAreBitIdenticalToTheReference) {
  const SwapParams table3 = SwapParams::table3_defaults();
  const RegionQuadrature quads[] = {{64, 1e-12}, {48, 0.0}, {7, 0.0}};
  const math::IntervalSet regions[] = {
      BasicGame(table3, 2.0).bob_t2_region(),
      CollateralGame(table3, 2.0, 0.6).bob_t2_region(),
      math::IntervalSet({{0.0, 0.8}, {1.1, 30.0}}),
      math::IntervalSet({{1e-9, 1e3}})};
  const math::GbmLaw law_a(table3.gbm, table3.p_t0, table3.tau_a);
  for (const Case& c : cases()) {
    const T2Kernel kernel(c.params, c.p_star, c.cutoff, c.deposits);
    const auto alice = [&kernel](const T2Kernel::Point& at) {
      return kernel.alice_cont(at);
    };
    const auto bob = [&kernel](const T2Kernel::Point& at) {
      return kernel.bob_cont(at);
    };
    const std::function<double(double)> ref_alice = [&c](double x) {
      return ref_alice_t2_cont(c.params, c.p_star, c.cutoff, x,
                               c.deposits.reveal_bonus);
    };
    const std::function<double(double)> ref_bob = [&c](double x) {
      return ref_bob_t2_cont(c.params, c.p_star, c.cutoff, x,
                             c.deposits.on_lock, c.deposits.on_waive);
    };
    // One node as t1_value evaluates it.
    for (const double x : price_grid()) {
      const math::GbmLaw node_law(c.params.gbm, c.params.p_t0,
                                  c.params.tau_a);
      const T2Kernel::Point at = kernel.at(x);
      ASSERT_EQ(bits(node_law.pdf(x, at.log_price) * kernel.alice_cont(at)),
                bits(node_law.pdf(x) * ref_alice(x)))
          << c.name << " x=" << x;
    }
    for (const math::IntervalSet& region : regions) {
      for (const RegionQuadrature quad : quads) {
        const OutsideValue refund = OutsideValue::payoff(1.93);
        EXPECT_EQ(bits(t1_value(c.params, region, kernel.law(), alice, refund,
                                c.params.alice.r, quad)),
                  bits(ref_t1_value(c.params, region, ref_alice, refund,
                                    c.params.alice.r, quad)))
            << c.name;
        EXPECT_EQ(bits(t1_value(c.params, region, kernel.law(), bob,
                                OutsideValue::token_b(), c.params.bob.r,
                                quad)),
                  bits(ref_t1_value(c.params, region, ref_bob,
                                    OutsideValue::token_b(), c.params.bob.r,
                                    quad)))
            << c.name;
        EXPECT_EQ(
            bits(region_success_rate(c.params, region, c.cutoff, quad)),
            bits(ref_success_rate(c.params, region, c.cutoff, quad)))
            << c.name;
      }
    }
  }
}

TEST(T2Kernel, GamesReadTheirT2ValuesFromTheKernel) {
  const SwapParams params = SwapParams::table3_defaults();
  const BasicGame basic(params, 2.0);
  const CollateralGame collateral(params, 2.0, 0.5);
  const double rB = params.bob.r;
  const double q = 0.5;
  const double recovery =
      q * std::exp(-params.alice.r * (params.eps_b + params.tau_a));
  for (const double p : price_grid()) {
    EXPECT_EQ(bits(basic.alice_t2_cont(p)),
              bits(ref_alice_t2_cont(params, 2.0, basic.alice_t3_cutoff(), p,
                                     0.0)));
    EXPECT_EQ(bits(basic.bob_t2_cont(p)),
              bits(ref_bob_t2_cont(params, 2.0, basic.alice_t3_cutoff(), p,
                                   0.0, 0.0)));
    EXPECT_EQ(bits(collateral.alice_t2_cont(p)),
              bits(ref_alice_t2_cont(params, 2.0, collateral.alice_t3_cutoff(),
                                     p, recovery)));
    EXPECT_EQ(
        bits(collateral.bob_t2_cont(p)),
        bits(ref_bob_t2_cont(params, 2.0, collateral.alice_t3_cutoff(), p,
                             q * std::exp(-rB * params.tau_a),
                             q * std::exp(-rB * (params.eps_b +
                                                 params.tau_a)))));
  }
}

TEST(GaussLegendre, TemplateMatchesStdFunctionBitForBit) {
  const SwapParams params = SwapParams::table3_defaults();
  const T2Kernel kernel(params, 2.0, stage::alice_t3_cutoff(params, 2.0),
                        {.on_lock = 0.1, .on_waive = 0.2});
  const math::GbmLaw law_a(params.gbm, params.p_t0, params.tau_a);
  const auto node = [&](double x) {
    const T2Kernel::Point at = kernel.at(x);
    return law_a.pdf(x, at.log_price) * kernel.bob_cont(at);
  };
  const auto smooth = [](double x) { return std::sin(3.0 * x) * std::exp(-x); };
  const std::function<double(double)> node_fn = node;
  const std::function<double(double)> smooth_fn = smooth;
  for (const int panels : {0, 1, 7, 48, 64}) {
    for (const auto& [a, b] : {std::pair{1e-12, 5.0}, std::pair{0.3, 2.9},
                               std::pair{4.0, 0.5}}) {
      EXPECT_EQ(bits(math::gauss_legendre(node, a, b, panels)),
                bits(math::gauss_legendre(node_fn, a, b, panels)));
      EXPECT_EQ(bits(math::gauss_legendre(smooth, a, b, panels)),
                bits(math::gauss_legendre(smooth_fn, a, b, panels)));
    }
  }
  EXPECT_THROW((void)math::gauss_legendre(smooth, 0.0, kInf),
               std::invalid_argument);
  EXPECT_THROW((void)math::gauss_legendre(smooth_fn, kNaN, 1.0),
               std::invalid_argument);
}

// -------------------------------------------------------------- validation

TEST(T2Kernel, RejectsNonPositiveOrNonFinitePrices) {
  const SwapParams params = SwapParams::table3_defaults();
  const T2Kernel kernel(params, 2.0, stage::alice_t3_cutoff(params, 2.0),
                        {.on_lock = 0.1, .on_waive = 0.2, .reveal_bonus = 0.3});
  for (const double bad : {0.0, -0.0, -1.0, kNaN, kInf, -kInf}) {
    EXPECT_THROW((void)kernel.alice_cont(bad), std::invalid_argument) << bad;
    EXPECT_THROW((void)kernel.bob_cont(bad), std::invalid_argument) << bad;
    EXPECT_THROW((void)kernel.at(bad), std::invalid_argument) << bad;
  }
  EXPECT_NO_THROW((void)kernel.bob_cont(1e-300));
}

TEST(T2Kernel, RejectsInvalidHorizonAndVolatility) {
  SwapParams params = SwapParams::table3_defaults();
  params.tau_b = 0.0;
  EXPECT_THROW(T2Kernel(params, 2.0, 1.0), std::invalid_argument);
  params.tau_b = kNaN;
  EXPECT_THROW(T2Kernel(params, 2.0, 1.0), std::invalid_argument);
  params = SwapParams::table3_defaults();
  params.gbm.sigma = 0.0;
  EXPECT_THROW(T2Kernel(params, 2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(math::CutoffLaw(params.gbm, 4.0, 1.0), std::invalid_argument);
  EXPECT_THROW(math::CutoffLaw(SwapParams::table3_defaults().gbm, -4.0, 1.0),
               std::invalid_argument);
}

TEST(T2Kernel, GamesStillRejectBadRatesAndHorizons) {
  const SwapParams params = SwapParams::table3_defaults();
  SwapParams no_tau_b = params;
  no_tau_b.tau_b = 0.0;
  for (const double bad : {0.0, -2.0, kNaN}) {
    EXPECT_THROW(BasicGame(params, bad), std::invalid_argument) << bad;
    EXPECT_THROW(BasicGame(params, bad, {1.0, 3.0}), std::invalid_argument);
    EXPECT_THROW(CollateralGame(params, bad, 0.5), std::invalid_argument);
    EXPECT_THROW(PremiumGame(params, bad, 0.5), std::invalid_argument);
  }
  EXPECT_THROW(BasicGame(no_tau_b, 2.0), std::invalid_argument);
  EXPECT_THROW(CollateralGame(no_tau_b, 2.0, 0.5), std::invalid_argument);
  EXPECT_THROW(PremiumGame(no_tau_b, 2.0, 0.5), std::invalid_argument);
  EXPECT_NO_THROW(BasicGame(params, 2.0));
}

}  // namespace
}  // namespace swapgame::model
