// X5 -- comparative experiment (paper Section V: "our framework is only a
// first step to a consistent comparative analysis of different protocols.
// For example, which protocol agents would select and why").
//
// Compares three disciplinary designs at equal deposit size d, both
// analytically and end-to-end on the protocol substrate:
//   * plain HTLC (Section III),
//   * both-sided collateral + oracle (Section IV),
//   * initiator-only premium escrow (Han et al., Section II-C).
//
// Headline finding: the premium mechanism fixes only Alice's t3 optionality
// and therefore saturates strictly below collateral, which also disciplines
// Bob's t2 walk-away.
#include <cmath>
#include <vector>

#include "bench_engine.hpp"
#include "bench_util.hpp"
#include "engine/scenario_batch.hpp"
#include "model/basic_game.hpp"
#include "model/collateral_game.hpp"
#include "model/premium_game.hpp"
#include "sim/scenario.hpp"
#include "sweep/sweep.hpp"

using namespace swapgame;

int main() {
  bench::Report report(
      "X5 -- mechanism comparison: HTLC vs +collateral vs +premium",
      "Equal deposit d per mechanism; analytic SR + protocol-MC SR.");

  const model::SwapParams p = model::SwapParams::table3_defaults();

  // --- Analytic SR over a deposit grid. ------------------------------------
  report.csv_begin("analytic_sr", "deposit,htlc,htlc_collateral,htlc_premium");
  struct DepositRow {
    double sr_coll = 0.0;
    double sr_prem = 0.0;
  };
  std::vector<double> deposits;
  for (double d = 0.0; d <= 2.0 + 1e-9; d += 0.25) deposits.push_back(d);
  const auto deposit_rows = sweep::parallel_map<DepositRow>(
      deposits.size(), [&p, &deposits](std::size_t i) {
        return DepositRow{
            model::CollateralGame(p, 2.0, deposits[i]).success_rate(),
            model::PremiumGame(p, 2.0, deposits[i]).success_rate()};
      });
  bool collateral_dominates = true;
  bool premium_helps = true;
  double premium_max = 0.0;
  const double sr_base = model::BasicGame(p, 2.0).success_rate();
  for (std::size_t i = 0; i < deposits.size(); ++i) {
    const double d = deposits[i];
    const auto& [sr_coll, sr_prem] = deposit_rows[i];
    report.csv_row(bench::fmt("%.2f,%.5f,%.5f,%.5f", d, sr_base, sr_coll,
                              sr_prem));
    if (d > 0.0) {
      if (sr_coll < sr_prem - 1e-9) collateral_dominates = false;
      if (sr_prem < sr_base - 1e-9) premium_helps = false;
    }
    premium_max = std::max(premium_max, sr_prem);
  }
  report.claim("collateral weakly dominates premium at every deposit",
               collateral_dominates);
  report.claim("premium never hurts relative to plain HTLC", premium_helps);
  report.claim("premium saturates strictly below 1 (Bob undisciplined)",
               premium_max < 0.95);
  report.claim("collateral reaches ~1 at large deposits",
               model::CollateralGame(p, 2.0, 2.0).success_rate() > 0.999);

  // --- Whose defection does each mechanism remove? -------------------------
  report.csv_begin("threshold_shift",
                   "deposit,alice_cutoff_coll,alice_cutoff_prem,"
                   "bob_hi_coll,bob_hi_prem");
  struct ShiftRow {
    double a_cut_coll = 0.0;
    double a_cut_prem = 0.0;
    double bob_hi_c = 0.0;
    double bob_hi_p = 0.0;
  };
  const std::vector<double> shift_deposits = {0.0, 0.5, 1.0};
  const auto shift_rows = sweep::parallel_map<ShiftRow>(
      shift_deposits.size(), [&p, &shift_deposits](std::size_t i) {
        const model::CollateralGame cg(p, 2.0, shift_deposits[i]);
        const model::PremiumGame pg(p, 2.0, shift_deposits[i]);
        return ShiftRow{cg.alice_t3_cutoff(), pg.alice_t3_cutoff(),
                        cg.bob_t2_region().intervals().back().hi,
                        pg.bob_t2_region().intervals().back().hi};
      });
  for (std::size_t i = 0; i < shift_deposits.size(); ++i) {
    const ShiftRow& row = shift_rows[i];
    report.csv_row(bench::fmt("%.1f,%.4f,%.4f,%.4f,%.4f", shift_deposits[i],
                              row.a_cut_coll, row.a_cut_prem, row.bob_hi_c,
                              row.bob_hi_p));
  }
  {
    const model::BasicGame bg(p, 2.0);
    const model::CollateralGame cg(p, 2.0, 1.0);
    const model::PremiumGame pg(p, 2.0, 1.0);
    // The premium is reclaimed at t3 + tau_a while the oracle returns
    // collateral only at t4 + tau_a, so the premium's (less-discounted)
    // recovery lowers Alice's cutoff at least as much.
    report.claim("both mechanisms lower Alice's t3 cutoff (premium >= coll)",
                 pg.alice_t3_cutoff() <= cg.alice_t3_cutoff() &&
                     cg.alice_t3_cutoff() <
                         bg.alice_t3_cutoff() - 1e-9);
    report.claim(
        "only collateral raises Bob's high-price walk-away threshold",
        cg.bob_t2_region().intervals().back().hi >
            pg.bob_t2_region().intervals().back().hi + 0.5);
  }

  // --- End-to-end protocol MC per mechanism. --------------------------------
  const double d = 0.5;
  const std::vector<sim::ScenarioPoint> points = {
      {"htlc", p, 2.0, sim::Mechanism::kNone, 0.0, {}},
      {"htlc+collateral", p, 2.0, sim::Mechanism::kCollateral, d, {}},
      {"htlc+premium", p, 2.0, sim::Mechanism::kPremium, d, {}},
  };
  sim::McConfig cfg;
  cfg.samples = 3000;
  cfg.seed = 505;
  // Each mechanism is one kScenario cell on the BatchEngine
  // (docs/ENGINE.md): cached across reruns and fanned out over the pool.
  engine::BatchEngine batch(bench::engine_config_from_env("x5"));
  const auto results = engine::run_scenarios(batch, points, cfg);
  report.csv_begin("protocol_mc",
                   "mechanism,analytic_SR,protocol_SR,ci_lo,ci_hi,"
                   "alice_utility,bob_utility");
  for (const sim::ScenarioResult& r : results) {
    report.csv_row(bench::fmt("%s,%.5f,%.5f,%.5f,%.5f,%.5f,%.5f",
                              r.point.label.c_str(), r.analytic_sr,
                              r.protocol_sr, r.protocol_sr_ci_lo,
                              r.protocol_sr_ci_hi, r.alice_utility,
                              r.bob_utility));
  }
  report.claim("protocol-MC ordering: collateral > premium > plain",
               results[1].protocol_sr > results[2].protocol_sr &&
                   results[2].protocol_sr > results[0].protocol_sr);
  bool mc_matches = true;
  for (const sim::ScenarioResult& r : results) {
    if (std::abs(r.protocol_sr - r.analytic_sr) > 0.04) mc_matches = false;
  }
  report.claim("protocol-MC within 4pp of analytic for every mechanism",
               mc_matches);
  bench::report_engine_metrics(report, batch);
  return report.exit_code();
}
