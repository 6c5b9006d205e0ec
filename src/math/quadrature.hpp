// Numerical integration used to evaluate the paper's expected-utility
// integrals (Eqs. (20)-(21), (25)-(26), (31), (35)-(37), (40)) wherever a
// closed form is unavailable, and to cross-validate the closed forms in
// tests and the solver-ablation bench (X2).
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <functional>

namespace swapgame::math {

/// Scalar integrand type.
using Integrand = std::function<double(double)>;

/// Result of an adaptive integration.
struct QuadratureResult {
  double value = 0.0;
  double error_estimate = 0.0;  ///< conservative absolute-error estimate
  int evaluations = 0;          ///< number of integrand evaluations
  bool converged = false;       ///< whether the tolerance was met
};

/// Options controlling adaptive integration.
struct QuadratureOptions {
  double abs_tol = 1e-10;
  double rel_tol = 1e-9;
  int max_depth = 50;           ///< max recursion depth per panel
  int initial_panels = 8;       ///< initial uniform subdivision of [a, b]
};

/// Adaptive Simpson integration of f over the finite interval [a, b].
/// Handles a > b by sign convention; a == b yields 0.
/// Throws std::invalid_argument for non-finite bounds.
[[nodiscard]] QuadratureResult integrate(const Integrand& f, double a, double b,
                                         const QuadratureOptions& opts = {});

/// Integrates f over [a, +infinity) by the substitution x = a + t/(1-t),
/// t in [0, 1).  f must decay at infinity for convergence.
[[nodiscard]] QuadratureResult integrate_to_infinity(
    const Integrand& f, double a, const QuadratureOptions& opts = {});

namespace detail {

// 15-point Gauss-Legendre nodes/weights on [-1, 1] (symmetric; positive half).
inline constexpr std::array<double, 8> kGl15Nodes = {
    0.0000000000000000, 0.2011940939974345, 0.3941513470775634,
    0.5709721726085388, 0.7244177313601700, 0.8482065834104272,
    0.9372733924007059, 0.9879925180204854};
inline constexpr std::array<double, 8> kGl15Weights = {
    0.2025782419255613, 0.1984314853271116, 0.1861610000155622,
    0.1662692058169939, 0.1395706779261543, 0.1071592204671719,
    0.0703660474881081, 0.0307532419961173};

[[noreturn]] void throw_gauss_legendre_bounds();

}  // namespace detail

/// Composite 15-point Gauss-Legendre quadrature of f on [a, b] over
/// `panels` equal panels (fewer than 1 counts as 1).  Cheap non-adaptive
/// path used in hot loops; a template so the integrand inlines.  Throws
/// std::invalid_argument for non-finite bounds.
template <class F>
[[nodiscard]] double gauss_legendre(const F& f, double a, double b,
                                    int panels = 8) {
  if (!std::isfinite(a) || !std::isfinite(b)) {
    detail::throw_gauss_legendre_bounds();
  }
  if (panels < 1) panels = 1;
  const double h = (b - a) / panels;
  double total = 0.0;
  for (int p = 0; p < panels; ++p) {
    const double pa = a + p * h;
    const double mid = pa + 0.5 * h;
    const double half = 0.5 * h;
    double s = detail::kGl15Weights[0] * f(mid);
    for (std::size_t i = 1; i < detail::kGl15Nodes.size(); ++i) {
      const double dx = half * detail::kGl15Nodes[i];
      s += detail::kGl15Weights[i] * (f(mid - dx) + f(mid + dx));
    }
    total += s * half;
  }
  return total;
}

}  // namespace swapgame::math
