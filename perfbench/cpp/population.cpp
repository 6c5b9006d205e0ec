// population: market::PopulationSim in the x16 headline shape -- 10x the
// panel arrival rate and block capacity, impact 1e-5, ledger compaction on
// (horizon 4, interval 1024), 8 queue shards, workers = nproc, no result
// cache.  Only here do shared-ledger compaction, the sharded EventQueues,
// FeeMarket seals and the epoch barriers dominate.  Compaction cost grows
// with the live state, so each population is sized to reach the live
// session set at which growth stops.
//
// A run times several independent populations back to back.  One price
// path decides how many threshold solves a population needs, and so a
// large part of its cost (one seed measured 6x the t1 evaluations and 1.6x
// the wall time of another), so a single population per run would make
// the figures mostly a function of the seed.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "market/population/population_sim.hpp"
#include "obs/metrics.hpp"

namespace perfbench {
namespace {

namespace market = swapgame::market;

/// Populations per run, each from its own seed.
constexpr int kPopulations = 5;
/// Sessions per population per second of --seconds: together about 1.5
/// seconds of work on the reference host.  The live set stops growing near
/// 5.1*10^4 sessions; at 10 s each population's live set reaches 5.08*10^4
/// by its end.  Fewer, longer populations would spend longer at the steady
/// live set, but the time to one population's result then turns on
/// whether one of a few price paths needed many solves.
constexpr double kSessionsPerSecond = 6000.0;
/// Set-up batches (of ~100 us constructions and destructions, most of it
/// starting and joining the worker pool) timed before the first population
/// and after each one.
constexpr int kSetupBatches = 7;
constexpr int kSetupBatch = 100;
constexpr std::uint64_t kWarmupSessions = 10000;

/// Population `index` of the run, at `workers` worker shards.
market::PopulationConfig config_for(const Options& opts, int index,
                                    unsigned workers) {
  market::PopulationConfig config;
  config.sessions =
      static_cast<std::uint64_t>(kSessionsPerSecond * opts.seconds + 0.5);
  config.arrival_rate = 6000.0;
  config.fee_a.block_capacity = 1600;
  config.fee_b.block_capacity = 1600;
  config.fee_a.mempool_capacity = 5120;
  config.fee_b.mempool_capacity = 5120;
  config.impact = 1e-5;
  config.compaction.enabled = true;
  config.compaction.horizon = 4.0;
  config.compaction.interval = 1024;
  config.shards = 8;
  config.workers = workers;
  config.seed = mix(mix(opts.seed ^ 0x9A9ULL) + static_cast<std::uint64_t>(index));
  return config;
}

/// Every field of a result but `compactions` (which counts the sweeps of
/// every worker's ledgers), doubles as exact hex floats: the determinism
/// contract makes all of it identical at every worker count.
std::string result_digest(const market::PopulationResult& r) {
  std::string s;
  const auto u = [&](const char* name, std::uint64_t v) {
    s += name;
    s += '=';
    s += std::to_string(v);
    s += ' ';
  };
  const auto d = [&](const char* name, double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%s=%a ", name, v);
    s += buf;
  };
  u("arrivals", r.arrivals);
  u("cancelled", r.orders_cancelled);
  u("sessions", r.sessions);
  u("never", r.never_initiated);
  u("t2", r.aborted_t2);
  u("t3", r.aborted_t3);
  u("completed", r.completed);
  u("starved", r.starved);
  u("lost", r.atomicity_lost);
  u("stats.matches", r.stats.matches);
  u("stats.initiated", r.stats.initiated);
  u("stats.completed", r.stats.completed);
  u("stats.expired", r.stats.expired);
  d("stats.mean_sr", r.stats.mean_predicted_sr);
  d("stats.lat50", r.stats.latency_p50);
  d("stats.lat90", r.stats.latency_p90);
  d("stats.lat99", r.stats.latency_p99);
  d("stats.lockup_a", r.stats.lockup_token_a_hours);
  d("stats.lockup_b", r.stats.lockup_token_b_hours);
  d("final_price", r.final_price);
  d("min_price", r.min_price);
  d("max_price", r.max_price);
  u("blocks", r.blocks_sealed);
  u("included", r.txs_included);
  u("evicted", r.txs_evicted);
  u("expired", r.txs_expired);
  u("rebids", r.rebids);
  d("fees", r.fees_paid);
  u("threshold_games", r.threshold_games);
  u("t1_evaluations", r.t1_evaluations);
  u("sessions_retired", r.sessions_retired);
  u("accounts_retired", r.accounts_retired);
  u("txs_retired", r.txs_retired);
  u("htlcs_retired", r.htlcs_retired);
  u("log_truncated", r.log_truncated);
  u("peak_live", r.peak_live_sessions);
  u("conserved", r.conserved ? 1 : 0);
  d("end_time", r.end_time);
  return s;
}

void check_result(const market::PopulationResult& r,
                  const market::PopulationConfig& config, Outcome& out) {
  out.check(r.sessions == config.sessions, "population ran short of sessions");
  out.check(r.never_initiated + r.aborted_t2 + r.aborted_t3 + r.completed +
                    r.starved + r.atomicity_lost ==
                r.sessions,
            "population outcomes do not partition the sessions");
  out.check(r.conserved, "population ledgers did not conserve supply");
}

/// Runs one sim; `seconds` receives the wall time of run().
market::PopulationResult run_once(market::PopulationSim& sim, Tracer* tracer,
                                  const char* name, double* seconds) {
  const Tracer::Scope span = Tracer::span(tracer, "market", name);
  market::PopulationResult r = sim.run();
  *seconds = span.elapsed();
  return r;
}

}  // namespace

void run_population(const Options& opts, Outcome& out) {
  std::vector<market::PopulationConfig> configs;
  for (int i = 0; i < kPopulations; ++i) {
    configs.push_back(config_for(opts, i, opts.threads));
  }

  // Warm-up: a small untimed population, so the timed runs start with the
  // allocator and the clocks warm.  Threshold caches belong to one sim,
  // so each timed run still pays for its own solves.
  {
    market::PopulationConfig warm = configs[0];
    warm.sessions = kWarmupSessions;
    warm.seed = ~warm.seed;
    market::PopulationSim warm_sim(warm);
    const market::PopulationResult r = warm_sim.run();
    out.op(true);
    check_result(r, warm, out);
  }

  SetupTimer setup(kSetupBatch,
                   [&] { const market::PopulationSim sim(configs[0]); });
  (void)setup.sample(kSetupBatches);
  std::vector<market::PopulationResult> timed(kPopulations);
  std::vector<double> wall_ms;
  double sessions = 0.0;
  double wall_s = 0.0;
  std::uint64_t peak_live = 0;
  for (int i = 0; i < kPopulations; ++i) {
    double wall = 0.0;
    {
      market::PopulationSim sim(configs[i]);
      timed[i] = run_once(sim, nullptr, "run", &wall);
    }
    out.op(true);
    check_result(timed[i], configs[i], out);
    wall_ms.push_back(wall * 1e3);
    wall_s += wall;
    sessions += static_cast<double>(timed[i].sessions);
    peak_live = std::max(peak_live, timed[i].peak_live_sessions);
    (void)setup.sample(kSetupBatches);
  }
  const double setup_s = setup.seconds();
  const double rate = sessions / wall_s;
  const double rss = peak_rss_mb();
  out.report("setup_s", setup_s, "s");
  out.report("sessions_per_s", rate, "sessions/s");
  out.report("run_s.p50", quantile(wall_ms, 0.5) / 1e3, "s");
  out.report("sessions", sessions, "count");
  out.report("peak_live_sessions", static_cast<double>(peak_live), "count");
  out.report("peak_rss_mb", rss, "MB");

  if (!opts.trace) {
    out.metric("setup_s", setup_s, "s");
    out.metric("throughput_per_s", rate, "1/s");
    // One request is one population: the time to its result.
    out.metric("latency_p50_ms", quantile(wall_ms, 0.5), "ms");
    out.metric("latency_p99_ms", quantile(wall_ms, 0.99), "ms");
    out.metric("peak_rss_mb", rss, "MB");
    return;
  }

  // The traced runs repeat population 0.
  const market::PopulationConfig& config = configs[0];
  const market::PopulationResult& first = timed[0];
  const double wall_n = wall_ms[0] / 1e3;
  Tracer tracer;
  // Traced: the same run with the library's metrics sink attached.
  swapgame::obs::MetricsRegistry registry;
  double wall_traced = 0.0;
  market::PopulationResult traced;
  {
    market::PopulationSim traced_sim(config);
    traced_sim.set_metrics(&registry);
    traced = run_once(traced_sim, &tracer, "run(traced)", &wall_traced);
  }
  // The single-threaded baseline of the same population.
  const market::PopulationConfig serial_config = config_for(opts, 0, 1);
  double wall_1 = 0.0;
  market::PopulationResult serial;
  {
    market::PopulationSim serial_sim(serial_config);
    serial = run_once(serial_sim, &tracer, "run(workers=1)", &wall_1);
  }
  out.op(true);
  out.op(true);
  check_result(serial, serial_config, out);
  const bool invariant = result_digest(serial) == result_digest(first) &&
                         result_digest(traced) == result_digest(first);
  out.check(invariant, "results differ across worker counts or tracing: w1 {" +
                           result_digest(serial) + "} wN {" +
                           result_digest(first) + "} traced {" +
                           result_digest(traced) + "}");

  const auto counter = [&](const char* name) {
    return static_cast<double>(registry.counter(name).value());
  };
  out.check(counter("population.sessions") == static_cast<double>(traced.sessions),
            "population.sessions counter disagrees with the result");
  const double n = static_cast<double>(opts.threads);
  const double speedup = wall_1 / wall_n;
  out.metric("obs.trace_overhead", wall_traced / wall_n, "ratio");
  out.metric("market.run_s.w1", wall_1, "s");
  out.metric("market.run_s.wN", wall_n, "s");
  out.metric("market.parallel_speedup", speedup, "ratio");
  // Amdahl: speedup = 1 / (s + (1 - s) / N), solved for s.
  out.metric("market.serial_fraction",
             n > 1.0 ? (n / speedup - 1.0) / (n - 1.0) : 1.0, "ratio");
  out.metric("market.peak_live_sessions",
             static_cast<double>(first.peak_live_sessions), "count");
  out.metric("market.compactions", counter("population.compactions"), "count");
  out.metric("market.txs_retired", counter("population.txs_retired"), "count");
  out.metric("market.blocks_sealed", static_cast<double>(first.blocks_sealed),
             "count");
  out.metric("market.txs_evicted", counter("population.txs_evicted"), "count");
  out.metric("market.rebids", counter("population.rebids"), "count");
  out.metric("market.worker_invariant", invariant ? 1.0 : 0.0, "bool");
  const double solves =
      static_cast<double>(first.threshold_games + first.t1_evaluations);
  out.metric("model.threshold_games", static_cast<double>(first.threshold_games),
             "count");
  out.metric("model.t1_evaluations", static_cast<double>(first.t1_evaluations),
             "count");
  // Decisions per solve: every session's t1 decision reads the caches.
  out.metric("model.threshold_reuse",
             solves > 0 ? static_cast<double>(first.sessions) / solves : 0.0,
             "ratio");

  const ChainProbe live = probe_chain(first.peak_live_sessions, opts.seed, &tracer);
  const ChainProbe one = probe_chain(1, opts.seed, &tracer);
  out.check(live.conserved && one.conserved, "chain probe broke conservation");
  out.metric("chain.submit_us", live.submit_us, "us");
  out.metric("chain.apply_us", live.apply_us, "us");
  out.metric("chain.compact_ms.live_population", live.compact_ms, "ms");
  out.metric("chain.compact_ms.per_swap", one.compact_ms, "ms");
  trace_summary(opts, tracer);
}

}  // namespace perfbench
