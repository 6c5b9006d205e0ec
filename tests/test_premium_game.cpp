// Tests for the Han et al. premium-mechanism baseline (src/model/premium_game).
#include "model/premium_game.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "model/basic_game.hpp"
#include "model/collateral_game.hpp"

namespace swapgame::model {
namespace {

SwapParams defaults() { return SwapParams::table3_defaults(); }

TEST(PremiumGame, ConstructorValidates) {
  EXPECT_THROW(PremiumGame(defaults(), 2.0, -0.1), std::invalid_argument);
  EXPECT_THROW(PremiumGame(defaults(), 0.0, 0.5), std::invalid_argument);
  SwapParams negative_sigma = defaults();
  negative_sigma.gbm.sigma = -0.1;
  EXPECT_THROW(PremiumGame(negative_sigma, 2.0, 0.5), std::invalid_argument);
  EXPECT_THROW(PremiumGame(defaults(), INFINITY, 0.5), std::invalid_argument);
  EXPECT_THROW(PremiumGame(defaults(), NAN, 0.5), std::invalid_argument);
  EXPECT_NO_THROW(PremiumGame(defaults(), 2.0, 0.0));
}

TEST(PremiumGame, ZeroPremiumReducesToBasicGame) {
  const PremiumGame pg(defaults(), 2.0, 0.0);
  const BasicGame bg(defaults(), 2.0);
  EXPECT_NEAR(pg.alice_t3_cutoff(), bg.alice_t3_cutoff(), 1e-12);
  EXPECT_NEAR(pg.success_rate(), bg.success_rate(), 1e-9);
  EXPECT_EQ(pg.alice_t3_stop(), bg.alice_t3_stop());
  EXPECT_EQ(pg.bob_t3_cont(), bg.bob_t3_cont());
  for (double p : {0.5, 1.5, 2.0, 3.0}) {
    EXPECT_EQ(pg.alice_t3_cont(p), bg.alice_t3_cont(p));
    EXPECT_EQ(pg.bob_t3_stop(p), bg.bob_t3_stop(p));
    EXPECT_NEAR(pg.bob_t2_cont(p), bg.bob_t2_cont(p), 1e-9);
  }
  EXPECT_NEAR(pg.alice_t1_cont(), bg.alice_t1_cont(), 1e-6);
}

TEST(PremiumGame, CutoffDecreasesWithPremium) {
  double prev = PremiumGame(defaults(), 2.0, 0.0).alice_t3_cutoff();
  for (double pr : {0.2, 0.5, 1.0}) {
    const double cut = PremiumGame(defaults(), 2.0, pr).alice_t3_cutoff();
    EXPECT_LT(cut, prev) << "pr=" << pr;
    prev = cut;
  }
}

TEST(PremiumGame, CutoffClampsToZeroForHugePremium) {
  const PremiumGame game(defaults(), 2.0, 3.0);
  EXPECT_EQ(game.alice_t3_cutoff(), 0.0);
}

TEST(PremiumGame, T3IndifferenceAtCutoff) {
  const PremiumGame game(defaults(), 2.0, 0.4);
  const double cut = game.alice_t3_cutoff();
  ASSERT_GT(cut, 0.0);
  EXPECT_NEAR(game.alice_t3_cont(cut), game.alice_t3_stop(), 1e-10);
}

TEST(PremiumGame, SuccessRateIncreasesWithPremium) {
  double prev = -1.0;
  for (double pr : {0.0, 0.1, 0.3, 0.6, 1.0}) {
    const double sr = PremiumGame(defaults(), 2.0, pr).success_rate();
    EXPECT_GE(sr, prev - 1e-9) << "pr=" << pr;
    prev = sr;
  }
}

TEST(PremiumGame, PremiumOnlyDisciplinesAliceNotBob) {
  // The central comparative result: the premium caps out strictly below
  // collateral's ceiling because it leaves Bob's high-price t2 defection
  // intact (Bob's region stays bounded above near the basic band edge).
  const double pr = 1.0;
  const PremiumGame premium(defaults(), 2.0, pr);
  const CollateralGame collateral(defaults(), 2.0, pr);
  EXPECT_LT(premium.success_rate(), collateral.success_rate());
  // Bob's region upper edge barely moves under the premium...
  const auto premium_hi = premium.bob_t2_region().intervals().back().hi;
  const auto basic_hi = BasicGame(defaults(), 2.0).bob_t2_band()->hi;
  EXPECT_LT(premium_hi, basic_hi * 1.05);
  // ...but moves a lot under collateral.
  const auto coll_hi = collateral.bob_t2_region().intervals().back().hi;
  EXPECT_GT(coll_hi, basic_hi * 1.2);
}

TEST(PremiumGame, BobHarvestsPremiumAtLowPrices) {
  // With a premium at stake, Bob locks even at near-zero prices, betting
  // that Alice will abort and forfeit the premium to him.
  const PremiumGame game(defaults(), 2.0, 0.5);
  EXPECT_EQ(game.bob_decision_t2(1e-6), Action::kCont);
  EXPECT_TRUE(game.bob_t2_region().contains(1e-6));
  // Without the premium he walks away at such prices.
  EXPECT_EQ(BasicGame(defaults(), 2.0).bob_decision_t2(1e-6), Action::kStop);
}

TEST(PremiumGame, RegionBoundariesAreIndifferencePoints) {
  const PremiumGame game(defaults(), 2.0, 0.3);
  for (const math::Interval& piece : game.bob_t2_region().intervals()) {
    if (piece.lo > 0.0) {
      EXPECT_NEAR(game.bob_t2_cont(piece.lo), game.bob_t2_stop(piece.lo), 1e-6);
    }
    if (std::isfinite(piece.hi)) {
      EXPECT_NEAR(game.bob_t2_cont(piece.hi), game.bob_t2_stop(piece.hi), 1e-6);
    }
  }
}

TEST(PremiumGame, AliceT1AccountsForPremiumAtStake) {
  const PremiumGame game(defaults(), 2.2, 0.7);
  EXPECT_DOUBLE_EQ(game.alice_t1_stop(), 2.2 + 0.7);
  EXPECT_DOUBLE_EQ(game.bob_t1_stop(), 2.0);  // Bob posts nothing
}

TEST(PremiumGame, AliceStillInitiatesAtDefaultRate) {
  for (double pr : {0.0, 0.3, 0.8}) {
    const PremiumGame game(defaults(), 2.0, pr);
    EXPECT_EQ(game.alice_decision_t1(), Action::kCont) << "pr=" << pr;
  }
}

TEST(PremiumGame, ViableRatesNonEmptyAndContainDefault) {
  const math::IntervalSet rates = premium_viable_rates(defaults(), 0.3);
  EXPECT_FALSE(rates.empty());
  EXPECT_TRUE(rates.contains(2.0));
}

TEST(PremiumGame, SuccessRateRegressionAtDefaults) {
  EXPECT_NEAR(PremiumGame(defaults(), 2.0, 0.3).success_rate(), 0.8202, 2e-3);
  EXPECT_NEAR(PremiumGame(defaults(), 2.0, 1.0).success_rate(), 0.8653, 2e-3);
}

}  // namespace
}  // namespace swapgame::model
