#include "solver_cache.hpp"

#include <array>
#include <cstring>
#include <mutex>

namespace swapgame::model {

namespace {

std::uint64_t bits_of(double x) noexcept {
  std::uint64_t b = 0;
  static_assert(sizeof(b) == sizeof(x));
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

std::size_t hash_combine(std::size_t seed, std::uint64_t v) noexcept {
  // splitmix64-style mixing; quality only affects bucket spread.
  v += 0x9E3779B97F4A7C15ULL + seed;
  v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9ULL;
  v = (v ^ (v >> 27)) * 0x94D049BB133111EBULL;
  return static_cast<std::size_t>(v ^ (v >> 31));
}

}  // namespace

// ---------------------------------------------------------- BasicGameSweeper

BasicGameSweeper::BasicGameSweeper(const SwapParams& params) : params_(params) {
  params_.validate();
}

std::shared_ptr<const BasicGame> BasicGameSweeper::at(double p_star) {
  const std::uint64_t key = bits_of(p_star);
  if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
  auto game = std::make_shared<const BasicGame>(params_, p_star, last_roots_);
  last_roots_ = game->t2_roots();
  return memo_.emplace(key, std::move(game)).first->second;
}

// ----------------------------------------------------- CollateralGameSweeper

CollateralGameSweeper::CollateralGameSweeper(const SwapParams& params)
    : params_(params) {
  params_.validate();
}

std::size_t CollateralGameSweeper::KeyHash::operator()(
    const Key& k) const noexcept {
  return hash_combine(hash_combine(0, k.p_bits), k.q_bits);
}

std::shared_ptr<const CollateralGame> CollateralGameSweeper::at(
    double p_star, double collateral) {
  const Key key{bits_of(p_star), bits_of(collateral)};
  if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
  auto game = std::make_shared<const CollateralGame>(params_, p_star,
                                                     collateral, last_roots_);
  last_roots_ = game->t2_roots();
  return memo_.emplace(key, std::move(game)).first->second;
}

// ------------------------------------------------------- feasible-band cache

namespace {

struct BandKey {
  std::array<std::uint64_t, 12> bits{};
  int samples = 0;
  bool operator==(const BandKey&) const = default;
};

struct BandKeyHash {
  std::size_t operator()(const BandKey& k) const noexcept {
    std::size_t h = hash_combine(0, static_cast<std::uint64_t>(k.samples));
    for (const std::uint64_t b : k.bits) h = hash_combine(h, b);
    return h;
  }
};

}  // namespace

FeasibleBand cached_feasible_band(const SwapParams& params, double scan_lo,
                                  double scan_hi, int scan_samples) {
  const BandKey key{
      {bits_of(params.alice.alpha), bits_of(params.alice.r),
       bits_of(params.bob.alpha), bits_of(params.bob.r), bits_of(params.tau_a),
       bits_of(params.tau_b), bits_of(params.eps_b), bits_of(params.p_t0),
       bits_of(params.gbm.mu), bits_of(params.gbm.sigma), bits_of(scan_lo),
       bits_of(scan_hi)},
      scan_samples};

  static std::mutex mutex;
  static std::unordered_map<BandKey, FeasibleBand, BandKeyHash> cache;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    if (const auto it = cache.find(key); it != cache.end()) return it->second;
  }
  // Solve outside the lock: bands for distinct params can compute in
  // parallel, and a rare duplicate solve is benign (deterministic result).
  const FeasibleBand band =
      alice_feasible_band(params, scan_lo, scan_hi, scan_samples);
  {
    const std::lock_guard<std::mutex> lock(mutex);
    cache.emplace(key, band);
  }
  return band;
}

}  // namespace swapgame::model
