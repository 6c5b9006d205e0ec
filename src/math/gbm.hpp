// Geometric Brownian motion transition law (paper Eq. (1) and the
// E / P / C operators of Section III-A).
//
// The token-b price P (denominated in token-a, the numeraire) satisfies
//   ln(P_{t+tau} / P_t) = (mu - sigma^2/2) tau + sigma (W_{t+tau} - W_t),
// so P_{t+tau} | P_t is lognormal with log-mean
//   M = ln(P_t) + (mu - sigma^2/2) tau    and log-stddev  S = sigma sqrt(tau).
//
// Beyond the paper's three operators (expectation, PDF, CDF) this class
// exposes partial expectations -- E[P 1{P<=L}] and E[P 1{P>L}] -- which turn
// the paper's utility integrals (Eqs. (20), (21), (25), (26), (35)-(37))
// into closed forms, plus quantiles and exact path sampling.
//
// CutoffLaw is the same law read against one fixed cutoff from many start
// prices: the hot form behind the t2-stage kernel (model/
// backward_induction.hpp), with every start-price-invariant factor hoisted.
#pragma once

#include <cmath>
#include <stdexcept>

#include "special.hpp"

namespace swapgame::math {

/// Drift/volatility pair of the GBM, in per-hour units as in Table III
/// (mu = 0.002 /hour, sigma = 0.1 /sqrt(hour) by default).
struct GbmParams {
  double mu = 0.002;
  double sigma = 0.1;

  /// Throws std::invalid_argument unless sigma > 0 and both are finite.
  void validate() const;
};

/// Transition law of a GBM over a fixed horizon, conditional on the current
/// price.  All methods are pure; the object is an immutable value type.
class GbmLaw {
 public:
  /// @param params  drift/volatility (validated).
  /// @param price   current price P_t, must be > 0 and finite.
  /// @param horizon time step tau in hours, must be > 0 and finite.
  GbmLaw(const GbmParams& params, double price, double horizon);

  [[nodiscard]] double price() const noexcept { return price_; }
  [[nodiscard]] double horizon() const noexcept { return horizon_; }
  [[nodiscard]] const GbmParams& params() const noexcept { return params_; }

  /// E(P_t, tau) = P_t * exp(mu * tau)   -- the paper's script-E operator.
  [[nodiscard]] double expectation() const noexcept;

  /// Lognormal density of P_{t+tau} at x -- the paper's script-P operator.
  /// Returns 0 for x <= 0.
  [[nodiscard]] double pdf(double x) const noexcept;

  /// pdf(x) for x > 0 given log_x == std::log(x), so a caller that already
  /// holds the log (a quadrature node shared with a CutoffLaw) pays no
  /// second one.  Bit-identical to pdf(x).
  [[nodiscard]] double pdf(double x, double log_x) const noexcept;

  /// P[P_{t+tau} <= x] -- the paper's script-C operator (with the erfc sign
  /// corrected; see DESIGN.md).  Returns 0 for x <= 0.
  [[nodiscard]] double cdf(double x) const noexcept;

  /// P[P_{t+tau} > x], computed without cancellation.
  [[nodiscard]] double survival(double x) const noexcept;

  /// Quantile: smallest x with cdf(x) >= p.  Requires p in [0, 1].
  [[nodiscard]] double quantile(double p) const;

  /// Lower partial expectation E[P_{t+tau} * 1{P_{t+tau} <= L}].
  /// Returns 0 for L <= 0 and expectation() for L = +infinity.
  [[nodiscard]] double partial_expectation_below(double L) const noexcept;

  /// Upper partial expectation E[P_{t+tau} * 1{P_{t+tau} > L}].
  [[nodiscard]] double partial_expectation_above(double L) const noexcept;

  /// Maps a standard normal draw z to a price sample:
  /// P_t * exp((mu - sigma^2/2) tau + sigma sqrt(tau) z).  Exact sampling.
  [[nodiscard]] double sample_from_normal(double z) const noexcept;

  /// log-mean M and log-stddev S of the terminal price.
  [[nodiscard]] double log_mean() const noexcept { return log_mean_; }
  [[nodiscard]] double log_stddev() const noexcept { return log_sd_; }

 private:
  GbmParams params_;
  double price_;
  double horizon_;
  double log_mean_;  // ln(P_t) + (mu - sigma^2/2) tau
  double log_sd_;    // sigma sqrt(tau)
};

/// The GBM law over one horizon tau read against one fixed cutoff L, from
/// any start price P_t: P[P_{t+tau} > L], P[P_{t+tau} <= L] and the two
/// partial expectations at L.  Everything that does not depend on P_t --
/// the drift (mu - sigma^2/2) tau, sigma sqrt(tau), e^{mu tau} and ln L --
/// is computed once, so a start price costs one log (at()) plus the one
/// erfc each quantity needs.  Every value is bit-identical to the same
/// method of GbmLaw(params, P_t, tau) at L: the expressions and their
/// operand order are GbmLaw's, including the L <= 0 and L = +inf branches.
class CutoffLaw {
 public:
  /// A start price with its log and the law's log-mean from it.  It depends
  /// only on (params, horizon), so laws at other cutoffs over the same
  /// horizon may read it too.
  struct Point {
    double price;
    double log_price;
    double log_mean;  // ln(P_t) + (mu - sigma^2/2) tau
  };

  CutoffLaw() = default;
  /// Validates params and horizon as GbmLaw does (std::invalid_argument).
  /// Any cutoff is accepted; L <= 0 and L = +inf take GbmLaw's branches.
  CutoffLaw(const GbmParams& params, double horizon, double cutoff);

  [[nodiscard]] double cutoff() const noexcept { return cutoff_; }

  /// Throws std::invalid_argument unless price > 0 and finite.
  [[nodiscard]] Point at(double price) const {
    if (!(price > 0.0) || !std::isfinite(price)) throw_bad_price();
    const double log_price = std::log(price);
    return {price, log_price, log_price + drift_};
  }

  /// P[P_{t+tau} > L].
  [[nodiscard]] double survival(const Point& at) const noexcept {
    if (!(cutoff_ > 0.0)) return 1.0;
    if (std::isinf(cutoff_)) return 0.0;
    return normal_sf((log_cutoff_ - at.log_mean) / log_sd_);
  }

  /// P[P_{t+tau} <= L].
  [[nodiscard]] double cdf(const Point& at) const noexcept {
    if (!(cutoff_ > 0.0)) return 0.0;
    if (std::isinf(cutoff_)) return 1.0;
    return normal_cdf((log_cutoff_ - at.log_mean) / log_sd_);
  }

  /// E[P_{t+tau} 1{P_{t+tau} <= L}].
  [[nodiscard]] double partial_expectation_below(
      const Point& at) const noexcept {
    if (!(cutoff_ > 0.0)) return 0.0;
    if (std::isinf(cutoff_)) return at.price * growth_;
    const double d = (log_cutoff_ - at.log_mean - variance_) / log_sd_;
    return at.price * growth_ * normal_cdf(d);
  }

  /// E[P_{t+tau} 1{P_{t+tau} > L}].
  [[nodiscard]] double partial_expectation_above(
      const Point& at) const noexcept {
    if (!(cutoff_ > 0.0)) return at.price * growth_;
    if (std::isinf(cutoff_)) return 0.0;
    const double d = (log_cutoff_ - at.log_mean - variance_) / log_sd_;
    return at.price * growth_ * normal_sf(d);
  }

 private:
  [[noreturn]] static void throw_bad_price();

  double drift_ = 0.0;       // (mu - sigma^2/2) tau
  double log_sd_ = 0.0;      // sigma sqrt(tau)
  double variance_ = 0.0;    // log_sd_ * log_sd_
  double growth_ = 0.0;      // e^{mu tau}
  double cutoff_ = 0.0;
  double log_cutoff_ = 0.0;  // ln L, when 0 < L < inf
};

}  // namespace swapgame::math
