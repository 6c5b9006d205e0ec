#include "gbm.hpp"

#include <cmath>
#include <limits>

#include "special.hpp"

namespace swapgame::math {

void GbmParams::validate() const {
  if (!std::isfinite(mu)) {
    throw std::invalid_argument("GbmParams: mu must be finite");
  }
  if (!(sigma > 0.0) || !std::isfinite(sigma)) {
    throw std::invalid_argument("GbmParams: sigma must be positive and finite");
  }
}

GbmLaw::GbmLaw(const GbmParams& params, double price, double horizon)
    : params_(params), price_(price), horizon_(horizon) {
  params_.validate();
  if (!(price > 0.0) || !std::isfinite(price)) {
    throw std::invalid_argument("GbmLaw: price must be positive and finite");
  }
  if (!(horizon > 0.0) || !std::isfinite(horizon)) {
    throw std::invalid_argument("GbmLaw: horizon must be positive and finite");
  }
  log_mean_ = std::log(price) + (params_.mu - 0.5 * params_.sigma * params_.sigma) * horizon;
  log_sd_ = params_.sigma * std::sqrt(horizon);
}

double GbmLaw::expectation() const noexcept {
  return price_ * std::exp(params_.mu * horizon_);
}

double GbmLaw::pdf(double x) const noexcept {
  if (!(x > 0.0)) return 0.0;
  return pdf(x, std::log(x));
}

double GbmLaw::pdf(double x, double log_x) const noexcept {
  const double z = (log_x - log_mean_) / log_sd_;
  return normal_pdf(z) / (x * log_sd_);
}

double GbmLaw::cdf(double x) const noexcept {
  if (!(x > 0.0)) return 0.0;
  if (std::isinf(x)) return 1.0;
  const double z = (std::log(x) - log_mean_) / log_sd_;
  return normal_cdf(z);
}

double GbmLaw::survival(double x) const noexcept {
  if (!(x > 0.0)) return 1.0;
  if (std::isinf(x)) return 0.0;
  const double z = (std::log(x) - log_mean_) / log_sd_;
  return normal_sf(z);
}

double GbmLaw::quantile(double p) const {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("GbmLaw::quantile: p must be in [0, 1]");
  }
  if (p == 0.0) return 0.0;
  if (p == 1.0) return std::numeric_limits<double>::infinity();
  return std::exp(log_mean_ + log_sd_ * normal_quantile(p));
}

double GbmLaw::partial_expectation_below(double L) const noexcept {
  if (!(L > 0.0)) return 0.0;
  if (std::isinf(L)) return expectation();
  // E[X 1{X<=L}] = exp(M + S^2/2) * Phi((ln L - M - S^2) / S) for lognormal
  // X with log-mean M and log-stddev S; exp(M + S^2/2) = P_t e^{mu tau}.
  const double d = (std::log(L) - log_mean_ - log_sd_ * log_sd_) / log_sd_;
  return expectation() * normal_cdf(d);
}

double GbmLaw::partial_expectation_above(double L) const noexcept {
  if (!(L > 0.0)) return expectation();
  if (std::isinf(L)) return 0.0;
  const double d = (std::log(L) - log_mean_ - log_sd_ * log_sd_) / log_sd_;
  return expectation() * normal_sf(d);
}

double GbmLaw::sample_from_normal(double z) const noexcept {
  return std::exp(log_mean_ + log_sd_ * z);
}

CutoffLaw::CutoffLaw(const GbmParams& params, double horizon, double cutoff)
    : cutoff_(cutoff) {
  // The same checks, in the same order, as the GbmLaw constructor.
  params.validate();
  if (!(horizon > 0.0) || !std::isfinite(horizon)) {
    throw std::invalid_argument(
        "CutoffLaw: horizon must be positive and finite");
  }
  drift_ = (params.mu - 0.5 * params.sigma * params.sigma) * horizon;
  log_sd_ = params.sigma * std::sqrt(horizon);
  variance_ = log_sd_ * log_sd_;
  growth_ = std::exp(params.mu * horizon);
  if (cutoff > 0.0 && !std::isinf(cutoff)) log_cutoff_ = std::log(cutoff);
}

void CutoffLaw::throw_bad_price() {
  throw std::invalid_argument("CutoffLaw: price must be positive and finite");
}

}  // namespace swapgame::math
