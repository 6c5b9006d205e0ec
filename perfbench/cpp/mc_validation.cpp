// mc_validation: the x1-style analytic-vs-Monte-Carlo check at a few P*
// points, every call through sim::McRunner::run with threads = nproc.  Each
// point runs
//   * an adaptive antithetic + control-variate model MC to a stated CI
//     half-width (time to a solution of stated accuracy),
//   * a fixed-budget plain model MC (the SIMD kernels' throughput),
//   * a rational-agent protocol MC on simulated ledgers (the per-swap
//     proto + chain path, with small, fresh ledgers per swap),
// and checks each estimate against the analytic SR.  This is the only
// workload that math/simd and the per-swap proto + chain path dominate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "math/rng.hpp"
#include "math/simd.hpp"
#include "math/special.hpp"
#include "model/basic_game.hpp"
#include "model/params.hpp"
#include "model/timeline.hpp"
#include "proto/swap_protocol.hpp"
#include "sim/mc_runner.hpp"
#include "sim/path_simulator.hpp"
#include "sweep/sweep.hpp"

namespace perfbench {
namespace {

namespace model = swapgame::model;
namespace sim = swapgame::sim;

constexpr int kPoints = 3;
/// Repetitions of all points per second of --seconds.
constexpr double kRepsPerSecond = 0.9;
/// 95% CI half-width the adaptive runs stop at.
constexpr double kTargetHalfWidth = 1.25e-4;
constexpr std::size_t kAdaptiveCap = std::size_t{1} << 26;
constexpr std::size_t kFixedSamples = std::size_t{1} << 21;
constexpr std::size_t kProtocolSwaps = 24576;
/// Confidence of the output checks: wide enough that a correct program
/// fails one by chance about once in 10^5 checks.
constexpr double kCheckConfidence = 0.99999;
/// Set-up batches (of set-ups of ~1 ms each) timed before the first point;
/// the timed pass adds one batch after every point.
constexpr int kSetupBatches = 5;
constexpr int kSetupBatch = 10;
constexpr std::size_t kProbeSwapsPerPoint = 1000;

struct Point {
  double p_star = 0.0;
  double analytic_sr = 0.0;
};

/// Seeded P* draws near three rates across the Table III feasible band.
/// The jitter is small because the adaptive run's length depends on P*.
std::vector<double> draw_rates(std::uint64_t seed) {
  Draw d(seed ^ 0x3c3c3cULL);
  std::vector<double> rates;
  for (const double center : {1.8, 2.0, 2.2}) {
    rates.push_back(center + d.uniform(-0.01, 0.01));
  }
  return rates;
}

double z_of(double confidence) {
  return swapgame::math::normal_quantile(0.5 + 0.5 * confidence);
}

sim::McRunSpec spec_for(const Point& pt, sim::McEvaluator evaluator,
                        std::uint64_t seed, unsigned threads) {
  sim::McRunSpec spec;
  spec.evaluator = evaluator;
  spec.params = model::SwapParams::table3_defaults();
  spec.p_star = pt.p_star;
  spec.config.seed = seed;
  spec.config.threads = threads;
  return spec;
}

sim::McRunSpec adaptive_spec(const Point& pt, std::uint64_t seed,
                             unsigned threads) {
  sim::McRunSpec s = spec_for(pt, sim::McEvaluator::kModel, seed, threads);
  s.config.antithetic = true;
  s.config.control_variate = true;
  s.config.target_half_width = kTargetHalfWidth;
  s.config.samples = kAdaptiveCap;
  return s;
}

sim::McRunSpec fixed_spec(const Point& pt, std::uint64_t seed,
                          unsigned threads) {
  sim::McRunSpec s = spec_for(pt, sim::McEvaluator::kModel, seed, threads);
  s.config.samples = kFixedSamples;
  return s;
}

sim::McRunSpec protocol_spec(const Point& pt, std::uint64_t seed,
                             unsigned threads) {
  sim::McRunSpec s = spec_for(pt, sim::McEvaluator::kProtocol, seed, threads);
  s.config.samples = kProtocolSwaps;
  return s;
}

/// One pass over every (repetition, point): what it measured.
struct Pass {
  double wall_s = 0.0;
  std::vector<double> point_ms;
  std::vector<double> fixed_rates;  ///< samples/s of each fixed-budget run
  double adaptive_s = 0.0;
  double protocol_s = 0.0;
  std::uint64_t fixed_samples = 0;
  std::uint64_t adaptive_samples = 0;
  std::uint64_t adaptive_rounds = 0;
  std::uint64_t protocol_swaps = 0;
};

/// Checks a model-MC estimate against the analytic SR at the check
/// confidence (its half-width is reported at the 95% run confidence).
void check_model(const sim::McRunResult& r, const Point& pt, const char* what,
                 Outcome& out) {
  const double tol = r.half_width * z_of(kCheckConfidence) / z_of(0.95);
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s MC SR %.6f vs analytic %.6f (tol %.2g) at P*=%.4f",
                what, r.sr, pt.analytic_sr, tol, pt.p_star);
  out.check(std::abs(r.sr - pt.analytic_sr) <= tol, buf);
}

void check_protocol(const sim::McRunResult& r, const Point& pt, Outcome& out) {
  const auto ci =
      swapgame::math::BinomialCounter::from_counts(
          r.estimate.success.successes(), r.estimate.initiated.successes())
          .wilson_interval(kCheckConfidence);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "protocol MC SR %.6f CI [%.6f, %.6f] misses analytic %.6f at "
                "P*=%.4f",
                r.sr, ci.lo, ci.hi, pt.analytic_sr, pt.p_star);
  out.check(pt.analytic_sr >= ci.lo && pt.analytic_sr <= ci.hi, buf);
  out.check(r.estimate.conservation_failures == 0 &&
                r.estimate.invariant_failures == 0,
            "protocol MC ledgers broke conservation or an invariant");
}

/// With a `setup` timer, samples one set-up batch after every point, out
/// of the pass's wall time.
Pass run_pass(const Options& opts, const std::vector<Point>& points, int reps,
              Tracer* tracer, Outcome& out, SetupTimer* setup = nullptr) {
  Pass p;
  double setup_s = 0.0;
  const Clock::time_point t0 = Clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& pt = points[i];
      const std::uint64_t request = static_cast<std::uint64_t>(rep) * kPoints + i + 1;
      const std::uint64_t seed = mix(opts.seed * 1000003ULL + request);
      const Tracer::Scope point_span =
          Tracer::span(tracer, "request", "validate_point", request);
      double seconds = 0.0;  // of the latest call
      const auto timed = [&](const char* name, const sim::McRunSpec& spec) {
        const Tracer::Scope span = Tracer::span(tracer, "sim", name, request);
        sim::McRunResult r = sim::McRunner::run(spec);
        seconds = span.elapsed();
        out.op(r.samples > 0);
        return r;
      };
      const sim::McRunResult adaptive = timed(
          "McRunner::run(adaptive)", adaptive_spec(pt, seed, opts.threads));
      p.adaptive_s += seconds;
      const sim::McRunResult fixed = timed(
          "McRunner::run(fixed)", fixed_spec(pt, seed + 1, opts.threads));
      p.fixed_rates.push_back(static_cast<double>(fixed.samples) / seconds);
      const sim::McRunResult protocol = timed(
          "McRunner::run(protocol)", protocol_spec(pt, seed + 2, opts.threads));
      p.protocol_s += seconds;
      p.point_ms.push_back(point_span.elapsed() * 1e3);
      check_model(adaptive, pt, "adaptive", out);
      check_model(fixed, pt, "fixed-budget", out);
      check_protocol(protocol, pt, out);
      p.adaptive_samples += adaptive.samples;
      p.adaptive_rounds += adaptive.rounds;
      p.fixed_samples += fixed.samples;
      p.protocol_swaps += protocol.samples;
      if (setup != nullptr) setup_s += setup->sample();
    }
  }
  p.wall_s = seconds_since(t0) - setup_s;
  return p;
}

/// proto::run_swap timed on a seeded subset of the workload's setups.
void probe_proto(const std::vector<Point>& points, std::uint64_t seed,
                 Tracer* tracer, Outcome& out) {
  std::vector<double> us;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const sim::McRunSpec spec =
        protocol_spec(points[i], seed + i, 1);
    const swapgame::proto::SwapSetup setup = spec.to_setup();
    const sim::StrategyFactory factory = spec.make_strategy();
    const model::Schedule schedule =
        model::idealized_schedule(setup.params, 0.0);
    swapgame::math::Xoshiro256 rng(mix(seed + i));
    for (std::size_t k = 0; k < kProbeSwapsPerPoint; ++k) {
      const swapgame::proto::SteppedPricePath path =
          sim::sample_epoch_path(setup.params, schedule, rng);
      const auto alice = factory(swapgame::agents::Role::kAlice, k);
      const auto bob = factory(swapgame::agents::Role::kBob, k);
      const Tracer::Scope span = Tracer::span(tracer, "proto", "run_swap");
      const swapgame::proto::SwapResult r =
          swapgame::proto::run_swap(setup, *alice, *bob, path);
      us.push_back(span.elapsed() * 1e6);
      if (k == 0) out.check(r.conservation_ok, "probe swap broke conservation");
    }
  }
  out.metric("proto.swap_us_p50", quantile(us, 0.5), "us");
  out.metric("proto.swap_us_p99", quantile(us, 0.99), "us");
}

}  // namespace

void run_mc_validation(const Options& opts, Outcome& out) {
  const std::vector<double> rates = draw_rates(opts.seed);
  const int reps = std::max(1, static_cast<int>(kRepsPerSecond * opts.seconds + 0.5));

  // Set-up: a worker pool, the SIMD dispatch and the analytic references.
  std::vector<Point> references;  // of the latest set-up
  SetupTimer setup(kSetupBatch, [&] {
    { swapgame::sweep::ThreadPool pool(opts.threads); }
    swapgame::math::simd::reset_level();
    (void)swapgame::math::simd::kernels();
    std::vector<Point> refs;
    for (const double p_star : rates) {
      const model::BasicGame game(model::SwapParams::table3_defaults(), p_star);
      refs.push_back({p_star, game.success_rate()});
    }
    references = std::move(refs);
  });
  (void)setup.sample(kSetupBatches);
  const std::vector<Point> points = references;
  // Warm-up: one untimed pass over the points with other seeds, so the
  // timed pass starts with the pool, the allocator and the clocks warm.
  Options warm = opts;
  warm.seed = ~opts.seed;
  (void)run_pass(warm, points, 1, nullptr, out);

  const Pass timed = run_pass(opts, points, reps, nullptr, out, &setup);
  const double setup_s = setup.seconds();
  // The median run, so that a burst of load from elsewhere on the host
  // moves it less than it moves a total.
  const double msps = median(timed.fixed_rates);
  const double rss = peak_rss_mb();
  out.report("setup_s", setup_s, "s");
  out.report("model_mc_samples_per_s", msps, "samples/s");
  out.report("time_to_ci_s", timed.adaptive_s, "s");
  out.report("protocol_swaps_per_s",
             static_cast<double>(timed.protocol_swaps) / timed.protocol_s,
             "swaps/s");
  out.report("point_latency_p50_ms", quantile(timed.point_ms, 0.5), "ms");
  out.report("point_latency_p99_ms", quantile(timed.point_ms, 0.99), "ms");
  out.report("points", static_cast<double>(timed.point_ms.size()), "count");
  out.report("peak_rss_mb", rss, "MB");

  if (!opts.trace) {
    out.metric("setup_s", setup_s, "s");
    out.metric("throughput_per_s", msps, "1/s");
    out.metric("latency_p50_ms", quantile(timed.point_ms, 0.5), "ms");
    out.metric("latency_p99_ms", quantile(timed.point_ms, 0.99), "ms");
    out.metric("peak_rss_mb", rss, "MB");
    return;
  }

  Tracer tracer;
  const swapgame::sweep::ThreadPool::Stats before =
      swapgame::sweep::shared_pool().stats();
  const Pass traced = run_pass(opts, points, reps, &tracer, out);
  const swapgame::sweep::ThreadPool::Stats after =
      swapgame::sweep::shared_pool().stats();
  out.metric("obs.trace_overhead", traced.wall_s / timed.wall_s, "ratio");
  out.metric("sim.model_samples", static_cast<double>(traced.fixed_samples),
             "count");
  out.metric("sim.samples_to_ci", static_cast<double>(traced.adaptive_samples),
             "count");
  out.metric("sim.adaptive_rounds", static_cast<double>(traced.adaptive_rounds),
             "count");
  out.metric("sim.protocol_swaps", static_cast<double>(traced.protocol_swaps),
             "count");
  out.metric("sweep.pool_tasks",
             static_cast<double>(after.executed - before.executed), "count");
  out.metric("sweep.max_queue_depth",
             static_cast<double>(after.max_queue_depth), "count");

  // The single-threaded baseline of the fixed-budget model MC.
  double one_thread_s = 0.0;
  {
    const Tracer::Scope span =
        Tracer::span(&tracer, "sim", "McRunner::run(fixed, threads=1)");
    (void)sim::McRunner::run(fixed_spec(points[0], mix(opts.seed), 1));
    one_thread_s = span.elapsed();
  }
  const double msps_1t = static_cast<double>(kFixedSamples) / one_thread_s;
  const double msps_n = median(traced.fixed_rates);
  out.metric("sim.model_msps_1t", msps_1t * 1e-6, "Msamples/s");
  out.metric("sim.parallel_efficiency", msps_n / (opts.threads * msps_1t),
             "ratio");

  // The kernels on the block the fixed-budget runs fill (one MC chunk).
  probe_simd(8192, out, &tracer);
  probe_proto(points, opts.seed, &tracer, out);
  const ChainProbe chain = probe_chain(1, opts.seed, &tracer);
  out.check(chain.conserved, "chain probe (per swap) broke conservation");
  out.metric("chain.submit_us", chain.submit_us, "us");
  out.metric("chain.apply_us", chain.apply_us, "us");
  out.metric("chain.compact_ms.per_swap", chain.compact_ms, "ms");
  trace_summary(opts, tracer);
}

}  // namespace perfbench
