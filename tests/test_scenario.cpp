// Tests for the scenario sweep harness (src/sim/scenario) running on the
// batch engine (src/engine/scenario_batch).
#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "engine/scenario_batch.hpp"
#include "model/basic_game.hpp"
#include "model/collateral_game.hpp"
#include "model/premium_game.hpp"

namespace swapgame::sim {
namespace {

model::SwapParams defaults() { return model::SwapParams::table3_defaults(); }

TEST(MechanismNames, ToString) {
  EXPECT_STREQ(to_string(Mechanism::kNone), "htlc");
  EXPECT_STREQ(to_string(Mechanism::kCollateral), "htlc+collateral");
  EXPECT_STREQ(to_string(Mechanism::kPremium), "htlc+premium");
}

TEST(RunScenarios, AnalyticSrMatchesPerMechanismSolvers) {
  const std::vector<ScenarioPoint> points = {
      {"plain", defaults(), 2.0, Mechanism::kNone, 0.0, {}},
      {"collateral", defaults(), 2.0, Mechanism::kCollateral, 0.5, {}},
      {"premium", defaults(), 2.0, Mechanism::kPremium, 0.5, {}},
  };
  McConfig cfg;
  cfg.samples = 400;
  cfg.seed = 77;
  const auto results = engine::run_scenarios(points, cfg);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_NEAR(results[0].analytic_sr,
              model::BasicGame(defaults(), 2.0).success_rate(), 1e-9);
  EXPECT_NEAR(results[1].analytic_sr,
              model::CollateralGame(defaults(), 2.0, 0.5).success_rate(),
              1e-9);
  EXPECT_NEAR(results[2].analytic_sr,
              model::PremiumGame(defaults(), 2.0, 0.5).success_rate(), 1e-9);
  for (const ScenarioResult& r : results) {
    EXPECT_TRUE(r.initiated) << r.point.label;
  }
}

TEST(RunScenarios, ProtocolSrTracksAnalytic) {
  const std::vector<ScenarioPoint> points = {
      {"plain", defaults(), 2.0, Mechanism::kNone, 0.0, {}},
      {"collateral", defaults(), 2.0, Mechanism::kCollateral, 1.0, {}},
  };
  McConfig cfg;
  cfg.samples = 1200;
  cfg.seed = 78;
  const auto results = engine::run_scenarios(points, cfg);
  for (const ScenarioResult& r : results) {
    EXPECT_NEAR(r.protocol_sr, r.analytic_sr, 0.05) << r.point.label;
    EXPECT_LE(r.protocol_sr_ci_lo, r.protocol_sr + 1e-12);
    EXPECT_GE(r.protocol_sr_ci_hi, r.protocol_sr - 1e-12);
  }
  // Fig. 9 ordering survives the full pipeline.
  EXPECT_GT(results[1].protocol_sr, results[0].protocol_sr);
}

TEST(RunScenarios, NonViableCellReportsNotInitiated) {
  const std::vector<ScenarioPoint> points = {
      {"absurd-rate", defaults(), 6.0, Mechanism::kNone, 0.0, {}},
  };
  McConfig cfg;
  cfg.samples = 50;
  cfg.seed = 79;
  const auto results = engine::run_scenarios(points, cfg);
  EXPECT_FALSE(results[0].initiated);
  // Never-initiated cells report NaN (conditioning on an empty event), not
  // a fake "always fails" zero.
  EXPECT_TRUE(std::isnan(results[0].protocol_sr));
}

TEST(CsvTable, RendersHeaderAndRows) {
  CsvTable table({"a", "b"});
  table.add_row({"1", "2"});
  table.add_row({"x", "y"});
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.to_string(), "a,b\n1,2\nx,y\n");
}

TEST(CsvTable, ValidatesShape) {
  EXPECT_THROW(CsvTable({}), std::invalid_argument);
  CsvTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

}  // namespace
}  // namespace swapgame::sim
