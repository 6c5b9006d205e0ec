// Tests for the collateralized game (src/model/collateral_game): Section IV
// thresholds, the odd-root continuation region (Fig. 7), viability sets
// (Fig. 8) and the SR-increases-with-Q claim (Fig. 9).
#include "model/collateral_game.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "model/basic_game.hpp"

namespace swapgame::model {
namespace {

SwapParams defaults() { return SwapParams::table3_defaults(); }

TEST(CollateralGame, ConstructorValidates) {
  EXPECT_THROW(CollateralGame(defaults(), 2.0, -0.1), std::invalid_argument);
  EXPECT_THROW(CollateralGame(defaults(), 0.0, 0.5), std::invalid_argument);
  SwapParams negative_sigma = defaults();
  negative_sigma.gbm.sigma = -0.1;
  EXPECT_THROW(CollateralGame(negative_sigma, 2.0, 0.5), std::invalid_argument);
  EXPECT_THROW(CollateralGame(defaults(), INFINITY, 0.5),
               std::invalid_argument);
  EXPECT_THROW(CollateralGame(defaults(), NAN, 0.5), std::invalid_argument);
  EXPECT_NO_THROW(CollateralGame(defaults(), 2.0, 0.0));
}

TEST(CollateralGame, ZeroCollateralReducesToBasicGame) {
  const CollateralGame cg(defaults(), 2.0, 0.0);
  const BasicGame bg(defaults(), 2.0);
  EXPECT_NEAR(cg.alice_t3_cutoff(), bg.alice_t3_cutoff(), 1e-12);
  EXPECT_NEAR(cg.success_rate(), bg.success_rate(), 1e-9);
  EXPECT_EQ(cg.alice_t3_stop(), bg.alice_t3_stop());
  for (double p : {0.5, 1.0, 2.0, 3.0}) {
    EXPECT_EQ(cg.alice_t3_cont(p), bg.alice_t3_cont(p));
    EXPECT_NEAR(cg.bob_t2_cont(p), bg.bob_t2_cont(p), 1e-9);
    EXPECT_NEAR(cg.alice_t2_cont(p), bg.alice_t2_cont(p), 1e-9);
  }
  // Continuation region equals the basic band.
  const auto band = bg.bob_t2_band();
  ASSERT_TRUE(band.has_value());
  EXPECT_TRUE(cg.bob_decision_t2(0.5 * (band->lo + band->hi)) == Action::kCont);
  EXPECT_TRUE(cg.bob_decision_t2(band->lo * 0.5) == Action::kStop);
}

TEST(CollateralGame, T3CutoffDecreasesWithCollateral) {
  // Eq. (34): the recovery term shifts the cutoff down.
  double prev = CollateralGame(defaults(), 2.0, 0.0).alice_t3_cutoff();
  for (double q : {0.2, 0.5, 1.0, 1.5}) {
    const double cut = CollateralGame(defaults(), 2.0, q).alice_t3_cutoff();
    EXPECT_LT(cut, prev) << "q=" << q;
    prev = cut;
  }
}

TEST(CollateralGame, T3CutoffClampsToZeroForLargeCollateral) {
  // When the discounted collateral recovery exceeds the discounted refund,
  // Alice reveals at any price (max(.., 0) in Eq. (34)).
  const CollateralGame game(defaults(), 2.0, 2.5);
  EXPECT_EQ(game.alice_t3_cutoff(), 0.0);
  EXPECT_EQ(game.alice_decision_t3(0.0001), Action::kCont);
}

TEST(CollateralGame, T3IndifferenceAtPositiveCutoff) {
  const CollateralGame game(defaults(), 2.0, 0.5);
  const double cut = game.alice_t3_cutoff();
  ASSERT_GT(cut, 0.0);
  EXPECT_NEAR(game.alice_t3_cont(cut), game.alice_t3_stop(), 1e-10);
}

TEST(CollateralGame, BobT2RegionIncludesZeroWithPositiveQ) {
  // Section IV-3 intuition 2: at near-zero prices Bob continues to recover
  // his collateral rather than keep a worthless token.
  const CollateralGame game(defaults(), 2.0, 0.3);
  EXPECT_EQ(game.bob_decision_t2(1e-6), Action::kCont);
  EXPECT_FALSE(game.bob_t2_region().empty());
  EXPECT_TRUE(game.bob_t2_region().contains(1e-6));
}

TEST(CollateralGame, BobT2RegionBoundariesAreIndifferencePoints) {
  const CollateralGame game(defaults(), 2.0, 0.3);
  for (const math::Interval& piece : game.bob_t2_region().intervals()) {
    if (piece.lo > 0.0) {
      EXPECT_NEAR(game.bob_t2_cont(piece.lo), game.bob_t2_stop(piece.lo), 1e-6);
    }
    if (std::isfinite(piece.hi)) {
      EXPECT_NEAR(game.bob_t2_cont(piece.hi), game.bob_t2_stop(piece.hi), 1e-6);
    }
  }
}

TEST(CollateralGame, OddNumberOfIndifferencePoints) {
  // Fig. 7: the indifference equation has 1 or 3 roots.  Count boundary
  // points (excluding 0 and infinity) over a Q grid.
  for (double q : {0.05, 0.1, 0.3, 0.6, 1.0}) {
    const CollateralGame game(defaults(), 2.0, q);
    int boundary_points = 0;
    for (const math::Interval& piece : game.bob_t2_region().intervals()) {
      if (piece.lo > 0.0) ++boundary_points;
      if (std::isfinite(piece.hi)) ++boundary_points;
    }
    EXPECT_TRUE(boundary_points == 1 || boundary_points == 3)
        << "q=" << q << " region=" << game.bob_t2_region().to_string();
  }
}

TEST(CollateralGame, SuccessRateIncreasesWithCollateral) {
  // Fig. 9's headline claim: SR increases with Q.
  double prev = -1.0;
  for (double q : {0.0, 0.2, 0.5, 1.0, 2.0}) {
    const double sr = CollateralGame(defaults(), 2.0, q).success_rate();
    EXPECT_GE(sr, prev - 1e-9) << "q=" << q;
    EXPECT_LE(sr, 1.0 + 1e-12);
    prev = sr;
  }
  EXPECT_NEAR(prev, 1.0, 1e-3);  // Q=2 drives SR to ~1 at defaults
}

TEST(CollateralGame, SuccessRateRegressionAtDefaults) {
  EXPECT_NEAR(CollateralGame(defaults(), 2.0, 0.5).success_rate(), 0.9688,
              2e-3);
}

TEST(CollateralGame, T1StopUtilitiesIncludeCollateral) {
  const CollateralGame game(defaults(), 2.2, 0.7);
  EXPECT_DOUBLE_EQ(game.alice_t1_stop(), 2.2 + 0.7);  // Eq. (38)
  EXPECT_DOUBLE_EQ(game.bob_t1_stop(), 2.0 + 0.7);    // Eq. (39)
}

TEST(CollateralGame, BothAgentsEngageAtDefaultRate) {
  for (double q : {0.0, 0.3, 1.0}) {
    const CollateralGame game(defaults(), 2.0, q);
    EXPECT_EQ(game.alice_decision_t1(), Action::kCont) << "q=" << q;
    EXPECT_EQ(game.bob_decision_t1(), Action::kCont) << "q=" << q;
    EXPECT_TRUE(game.engaged());
  }
}

TEST(CollateralGame, ViabilitySetsIntersectSensibly) {
  const CollateralViability v = collateral_viable_rates(defaults(), 0.5);
  EXPECT_FALSE(v.alice.empty());
  EXPECT_FALSE(v.bob.empty());
  EXPECT_FALSE(v.both.empty());
  // The intersection contains the default rate P* = 2.
  EXPECT_TRUE(v.both.contains(2.0));
  // And is contained in each side.
  for (const math::Interval& piece : v.both.intervals()) {
    const double mid = 0.5 * (piece.lo + piece.hi);
    EXPECT_TRUE(v.alice.contains(mid));
    EXPECT_TRUE(v.bob.contains(mid));
  }
}

TEST(CollateralGame, ViabilityConsistentWithEngagementDecisions) {
  const CollateralViability v = collateral_viable_rates(defaults(), 0.5);
  for (double p_star : {1.0, 1.5, 1.9, 2.3, 2.8, 4.0}) {
    const CollateralGame game(defaults(), p_star, 0.5);
    EXPECT_EQ(v.both.contains(p_star), game.engaged()) << "p_star=" << p_star;
  }
}

TEST(CollateralGame, T2RegionGrowsWithCollateral) {
  // Higher Q expands the feasible token-b price range at t2 (the mechanism
  // behind Fig. 9, per the paper's closing discussion of Section IV).
  const auto measure_within = [](const CollateralGame& g, double cap) {
    double total = 0.0;
    for (const math::Interval& piece : g.bob_t2_region().intervals()) {
      total += std::max(0.0, std::min(piece.hi, cap) - std::min(piece.lo, cap));
    }
    return total;
  };
  const CollateralGame g0(defaults(), 2.0, 0.0);
  const CollateralGame g1(defaults(), 2.0, 0.5);
  const CollateralGame g2(defaults(), 2.0, 1.0);
  EXPECT_LT(measure_within(g0, 20.0), measure_within(g1, 20.0));
  EXPECT_LT(measure_within(g1, 20.0), measure_within(g2, 20.0));
}

}  // namespace
}  // namespace swapgame::model
