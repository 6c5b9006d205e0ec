// Tests for the strategy implementations (src/agents).
#include <gtest/gtest.h>

#include <memory>

#include "agents/naive.hpp"
#include "agents/rational.hpp"
#include "model/basic_game.hpp"

namespace swapgame::agents {
namespace {

model::SwapParams defaults() { return model::SwapParams::table3_defaults(); }

DecisionContext ctx(double price, double p_star = 2.0, double now = 0.0) {
  return {price, p_star, now};
}

TEST(StageNames, AllStagesNamed) {
  EXPECT_STREQ(to_string(Stage::kT1Initiate), "t1:initiate");
  EXPECT_STREQ(to_string(Stage::kT2Lock), "t2:lock");
  EXPECT_STREQ(to_string(Stage::kT3Reveal), "t3:reveal");
  EXPECT_STREQ(to_string(Stage::kT4Claim), "t4:claim");
}

TEST(RationalStrategy, AliceMatchesBackwardInduction) {
  const model::BasicGame game(defaults(), 2.0);
  RationalStrategy alice(Role::kAlice, defaults(), 2.0);
  // t1: the default rate is viable, so Alice initiates.
  EXPECT_EQ(alice.decide(Stage::kT1Initiate, ctx(2.0)), model::Action::kCont);
  // t3: threshold rule around the Eq. (18) cutoff.
  const double cut = game.alice_t3_cutoff();
  EXPECT_EQ(alice.decide(Stage::kT3Reveal, ctx(cut * 1.05)),
            model::Action::kCont);
  EXPECT_EQ(alice.decide(Stage::kT3Reveal, ctx(cut * 0.95)),
            model::Action::kStop);
  // Stages Alice does not own default to cont.
  EXPECT_EQ(alice.decide(Stage::kT2Lock, ctx(100.0)), model::Action::kCont);
}

TEST(RationalStrategy, BobMatchesBackwardInduction) {
  const model::BasicGame game(defaults(), 2.0);
  RationalStrategy bob(Role::kBob, defaults(), 2.0);
  const auto band = game.bob_t2_band();
  ASSERT_TRUE(band.has_value());
  EXPECT_EQ(bob.decide(Stage::kT2Lock, ctx(0.5 * (band->lo + band->hi))),
            model::Action::kCont);
  EXPECT_EQ(bob.decide(Stage::kT2Lock, ctx(band->hi * 1.2)),
            model::Action::kStop);
  EXPECT_EQ(bob.decide(Stage::kT2Lock, ctx(band->lo * 0.8)),
            model::Action::kStop);
  // t4 is dominant-cont regardless of price.
  EXPECT_EQ(bob.decide(Stage::kT4Claim, ctx(0.001)), model::Action::kCont);
  EXPECT_EQ(bob.decide(Stage::kT4Claim, ctx(1000.0)), model::Action::kCont);
}

TEST(RationalStrategy, AliceDeclinesOutOfBandRate) {
  RationalStrategy alice(Role::kAlice, defaults(), 5.0);  // absurd rate
  EXPECT_EQ(alice.decide(Stage::kT1Initiate, ctx(2.0, 5.0)),
            model::Action::kStop);
}

TEST(CollateralRationalStrategy, UsesCollateralThresholds) {
  const double q = 0.5;
  const model::CollateralGame game(defaults(), 2.0, q);
  CollateralRationalStrategy alice(Role::kAlice, defaults(), 2.0, q);
  CollateralRationalStrategy bob(Role::kBob, defaults(), 2.0, q);
  // Bob's region includes near-zero prices (collateral recovery motive).
  EXPECT_EQ(bob.decide(Stage::kT2Lock, ctx(1e-6)), model::Action::kCont);
  // Alice's t3 cutoff is lower than in the basic game.
  const double basic_cut = model::BasicGame(defaults(), 2.0).alice_t3_cutoff();
  const double coll_cut = game.alice_t3_cutoff();
  ASSERT_LT(coll_cut, basic_cut);
  const double between = 0.5 * (coll_cut + basic_cut);
  EXPECT_EQ(alice.decide(Stage::kT3Reveal, ctx(between)), model::Action::kCont);
  // Both engage at t1 at the default rate.
  EXPECT_EQ(alice.decide(Stage::kT1Initiate, ctx(2.0)), model::Action::kCont);
  EXPECT_EQ(bob.decide(Stage::kT1Initiate, ctx(2.0)), model::Action::kCont);
}

TEST(HonestStrategy, AlwaysContinues) {
  HonestStrategy honest;
  for (Stage s : {Stage::kT1Initiate, Stage::kT2Lock, Stage::kT3Reveal,
                  Stage::kT4Claim}) {
    EXPECT_EQ(honest.decide(s, ctx(0.0001)), model::Action::kCont);
    EXPECT_EQ(honest.decide(s, ctx(1000.0)), model::Action::kCont);
  }
  EXPECT_EQ(honest.name(), "honest");
}

TEST(DefectorStrategy, StopsExactlyAtConfiguredStage) {
  DefectorStrategy defector(Stage::kT3Reveal);
  EXPECT_EQ(defector.decide(Stage::kT1Initiate, ctx(2.0)),
            model::Action::kCont);
  EXPECT_EQ(defector.decide(Stage::kT2Lock, ctx(2.0)), model::Action::kCont);
  EXPECT_EQ(defector.decide(Stage::kT3Reveal, ctx(2.0)), model::Action::kStop);
  EXPECT_EQ(defector.decide(Stage::kT4Claim, ctx(2.0)), model::Action::kCont);
}

TEST(TriggerStrategy, BandAroundAgreedRate) {
  TriggerStrategy trigger(0.1);  // +/-10% band
  EXPECT_EQ(trigger.decide(Stage::kT2Lock, ctx(2.0, 2.0)),
            model::Action::kCont);
  EXPECT_EQ(trigger.decide(Stage::kT2Lock, ctx(2.19, 2.0)),
            model::Action::kCont);
  EXPECT_EQ(trigger.decide(Stage::kT2Lock, ctx(2.21, 2.0)),
            model::Action::kStop);
  EXPECT_EQ(trigger.decide(Stage::kT2Lock, ctx(1.79, 2.0)),
            model::Action::kStop);
  // t4 stays dominant-cont.
  EXPECT_EQ(trigger.decide(Stage::kT4Claim, ctx(100.0, 2.0)),
            model::Action::kCont);
  EXPECT_THROW(TriggerStrategy(-0.1), std::invalid_argument);
}

TEST(NoisyStrategy, ZeroEpsilonIsTransparent) {
  NoisyStrategy noisy(std::make_unique<HonestStrategy>(), 0.0, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(noisy.decide(Stage::kT2Lock, ctx(2.0)), model::Action::kCont);
  }
}

TEST(NoisyStrategy, FullEpsilonAlwaysFlips) {
  NoisyStrategy noisy(std::make_unique<HonestStrategy>(), 1.0, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(noisy.decide(Stage::kT2Lock, ctx(2.0)), model::Action::kStop);
  }
}

TEST(NoisyStrategy, FlipRateApproximatesEpsilon) {
  NoisyStrategy noisy(std::make_unique<HonestStrategy>(), 0.25, 99);
  int flips = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (noisy.decide(Stage::kT2Lock, ctx(2.0)) == model::Action::kStop) {
      ++flips;
    }
  }
  EXPECT_NEAR(static_cast<double>(flips) / n, 0.25, 0.02);
}

TEST(NoisyStrategy, ValidatesArguments) {
  EXPECT_THROW(NoisyStrategy(nullptr, 0.1, 1), std::invalid_argument);
  EXPECT_THROW(NoisyStrategy(std::make_unique<HonestStrategy>(), 1.5, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace swapgame::agents
