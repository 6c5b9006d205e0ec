// Layer probes of the traced runs: each drives one module through its
// public API only, on inputs shaped like the workload that module serves.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench.hpp"
#include "chain/event_queue.hpp"
#include "chain/ledger.hpp"
#include "crypto/secret.hpp"
#include "math/gbm.hpp"
#include "math/rng.hpp"
#include "math/simd.hpp"
#include "model/basic_game.hpp"
#include "model/params.hpp"

namespace perfbench {
namespace {

namespace simd = swapgame::math::simd;
namespace chain = swapgame::chain;

constexpr int kSimdTrials = 5;
constexpr int kSimdCallsPerTrial = 64;

/// The z-space kernel of the Table III game at P* = 2, built from the
/// game's public thresholds exactly as the model MC engine builds it.
struct ZKernel {
  std::vector<simd::ZIntervalPod> region;
  simd::ZKernelPod pod{};

  ZKernel() {
    const swapgame::model::SwapParams params =
        swapgame::model::SwapParams::table3_defaults();
    const swapgame::model::BasicGame game(params, 2.0);
    const swapgame::math::GbmLaw law_a(params.gbm, params.p_t0, params.tau_a);
    const double inf = std::numeric_limits<double>::infinity();
    for (const auto& iv : game.bob_t2_region().intervals()) {
      simd::ZIntervalPod z;
      z.lo = iv.lo <= 0.0 ? -inf
                          : (std::log(iv.lo) - law_a.log_mean()) / law_a.log_stddev();
      z.hi = std::isinf(iv.hi)
                 ? inf
                 : (std::log(iv.hi) - law_a.log_mean()) / law_a.log_stddev();
      if (z.hi > z.lo) region.push_back(z);
    }
    const double drift_b =
        (params.gbm.mu - 0.5 * params.gbm.sigma * params.gbm.sigma) * params.tau_b;
    const double sd_b = params.gbm.sigma * std::sqrt(params.tau_b);
    const double cutoff = game.alice_t3_cutoff();
    pod.regions = region.data();
    pod.region_count = region.size();
    if (cutoff <= 0.0) {
      pod.always_reveal = true;
    } else {
      pod.c0 = (std::log(cutoff) - drift_b - law_a.log_mean()) / sd_b;
      pod.c1 = -law_a.log_stddev() / sd_b;
    }
  }
};

/// Median over trials of Msamples/s for `calls` invocations of `fn`.
template <typename Fn>
double msps(std::size_t block, Tracer* tracer, const char* name, Fn&& fn) {
  std::vector<double> rates;
  for (int t = 0; t < kSimdTrials; ++t) {
    const Tracer::Scope span = Tracer::span(tracer, "math.simd", name);
    for (int c = 0; c < kSimdCallsPerTrial; ++c) fn();
    rates.push_back(static_cast<double>(block) * kSimdCallsPerTrial /
                    span.elapsed() * 1e-6);
  }
  return median(rates);
}

}  // namespace

void probe_simd(std::size_t block, Outcome& out, Tracer* tracer) {
  const ZKernel kernel;
  std::vector<double> uniforms(block), buf(block), z2(block), z3(block),
      y(block), x(block);
  {
    swapgame::math::Xoshiro256 rng(0x51D);
    swapgame::math::fill_uniform01(rng, uniforms.data(), block);
    swapgame::math::fill_normal_inverse_cdf(rng, z2.data(), block);
    swapgame::math::fill_normal_inverse_cdf(rng, z3.data(), block);
  }
  out.metric("math.simd.level",
             static_cast<double>(static_cast<int>(simd::active_level())),
             "level");
  for (const simd::SimdLevel level :
       {simd::SimdLevel::kScalar, simd::SimdLevel::kAvx2,
        simd::SimdLevel::kAvx512}) {
    const simd::KernelTable* kt = simd::kernels(level);
    const std::string suffix = simd::to_string(level);
    double fill = 0.0, quantile_rate = 0.0, zkernel = 0.0;
    if (kt != nullptr) {
      swapgame::math::Xoshiro256 rng(0xF111);
      fill = msps(block, tracer, "fill_uniform01",
                  [&] { kt->fill_uniform01(rng, buf.data(), block); });
      quantile_rate = msps(block, tracer, "normal_quantile_transform", [&] {
        std::memcpy(buf.data(), uniforms.data(), block * sizeof(double));
        kt->normal_quantile_transform(buf.data(), block);
      });
      zkernel = msps(block, tracer, "zkernel_eval", [&] {
        (void)kt->zkernel_eval(kernel.pod, z2.data(), z3.data(), 1.0, y.data(),
                               x.data(), block);
      });
    }
    out.metric("math.simd.fill_msps." + suffix, fill, "Msamples/s");
    out.metric("math.simd.quantile_msps." + suffix, quantile_rate, "Msamples/s");
    out.metric("math.simd.zkernel_msps." + suffix, zkernel, "Msamples/s");
  }
  // Computed, not measured: zkernel_eval reads z2 and z3 and writes y and
  // x, one double each per sample.
  out.metric("math.simd.zkernel_bytes_per_sample", 4.0 * sizeof(double),
             "B/sample");
}

ChainProbe probe_chain(std::size_t live_sessions, std::uint64_t seed,
                       Tracer* tracer) {
  // About 32768 transfers in all, in rounds of at most 4096.
  const std::size_t churn = std::min<std::size_t>(4 * live_sessions, 4096);
  const std::size_t rounds = std::clamp<std::size_t>(32768 / churn, 8, 1024);
  const chain::Hours tau = 3.0;

  chain::EventQueue queue;
  chain::ChainParams params;
  params.confirmation_time = tau;
  params.mempool_visibility = 1.0;
  chain::Ledger ledger(params, queue);
  swapgame::math::Xoshiro256 rng(mix(seed));
  const chain::Amount funds = chain::Amount::from_tokens(1000.0);
  const chain::Amount one = chain::Amount::from_tokens(1.0);

  // Live state: one locked HTLC between two accounts per live session.
  std::vector<chain::Address> alice(live_sessions), bob(live_sessions);
  {
    const Tracer::Scope span = Tracer::span(tracer, "chain", "build_live_set");
    for (std::size_t i = 0; i < live_sessions; ++i) {
      alice[i].value = "a" + std::to_string(i);
      bob[i].value = "b" + std::to_string(i);
      ledger.create_account(alice[i], funds);
      ledger.create_account(bob[i], funds);
      chain::DeployHtlcPayload deploy;
      deploy.sender = alice[i];
      deploy.recipient = bob[i];
      deploy.amount = one;
      deploy.hash_lock = swapgame::crypto::Secret::generate(rng).commitment();
      deploy.expiry = 1e6;
      (void)ledger.submit(deploy);
    }
    queue.run_until(queue.now() + tau + 1.0);
  }
  const chain::Amount supply = ledger.total_supply();

  // Churn: settled transfers accumulate behind the live set, then one
  // compact() sweep retires them.
  std::vector<double> submit_us, apply_us, compact_ms;
  for (std::size_t round = 0; round < rounds; ++round) {
    {
      const Tracer::Scope span = Tracer::span(tracer, "chain", "Ledger::submit");
      // Alternate directions, so balances stay where they started.
      const bool forward = round % 2 == 0;
      for (std::size_t k = 0; k < churn; ++k) {
        const std::size_t i = k % live_sessions;
        chain::TransferPayload transfer{forward ? alice[i] : bob[i],
                                        forward ? bob[i] : alice[i], one};
        const Clock::time_point t0 = Clock::now();
        (void)ledger.submit(std::move(transfer));
        submit_us.push_back(seconds_since(t0) * 1e6);
      }
    }
    {
      const Tracer::Scope span =
          Tracer::span(tracer, "chain", "EventQueue::run_until");
      queue.run_until(queue.now() + tau + 1.0);
      apply_us.push_back(span.elapsed() * 1e6 / static_cast<double>(churn));
    }
    const Tracer::Scope span = Tracer::span(tracer, "chain", "Ledger::compact");
    (void)ledger.compact(queue.now() - 0.5);
    compact_ms.push_back(span.elapsed() * 1e3);
  }

  ChainProbe probe;
  probe.submit_us = median(submit_us);
  probe.apply_us = median(apply_us);
  probe.compact_ms = median(compact_ms);
  probe.conserved = ledger.total_supply() == supply;
  return probe;
}

}  // namespace perfbench
