#include "quadrature.hpp"

#include <cmath>
#include <stdexcept>

namespace swapgame::math {

namespace {

struct SimpsonState {
  const Integrand* f = nullptr;
  double abs_tol = 0.0;
  double rel_tol = 0.0;
  int max_depth = 0;
  int evaluations = 0;
  double error_accum = 0.0;
  bool converged = true;
};

double simpson(double fa, double fm, double fb, double a, double b) {
  return (b - a) / 6.0 * (fa + 4.0 * fm + fb);
}

// Classic adaptive Simpson with Richardson correction.
double adaptive_panel(SimpsonState& st, double a, double b, double fa, double fm,
                      double fb, double whole, double tol, int depth) {
  const double m = 0.5 * (a + b);
  const double lm = 0.5 * (a + m);
  const double rm = 0.5 * (m + b);
  const double flm = (*st.f)(lm);
  const double frm = (*st.f)(rm);
  st.evaluations += 2;
  const double left = simpson(fa, flm, fm, a, m);
  const double right = simpson(fm, frm, fb, m, b);
  const double delta = left + right - whole;
  if (depth >= st.max_depth) {
    st.converged = false;
    st.error_accum += std::abs(delta);
    return left + right + delta / 15.0;
  }
  if (std::abs(delta) <= 15.0 * tol) {
    st.error_accum += std::abs(delta) / 15.0;
    return left + right + delta / 15.0;
  }
  return adaptive_panel(st, a, m, fa, flm, fm, left, 0.5 * tol, depth + 1) +
         adaptive_panel(st, m, b, fm, frm, fb, right, 0.5 * tol, depth + 1);
}

}  // namespace

QuadratureResult integrate(const Integrand& f, double a, double b,
                           const QuadratureOptions& opts) {
  if (!std::isfinite(a) || !std::isfinite(b)) {
    throw std::invalid_argument("integrate: bounds must be finite");
  }
  QuadratureResult result;
  if (a == b) {
    result.converged = true;
    return result;
  }
  double sign = 1.0;
  double lo = a, hi = b;
  if (lo > hi) {
    std::swap(lo, hi);
    sign = -1.0;
  }

  SimpsonState st;
  st.f = &f;
  st.abs_tol = opts.abs_tol;
  st.rel_tol = opts.rel_tol;
  st.max_depth = opts.max_depth;

  // Initial uniform split protects against integrands whose features are
  // invisible to a single Simpson panel (e.g. narrow lognormal densities).
  const int n = opts.initial_panels > 0 ? opts.initial_panels : 1;
  const double h = (hi - lo) / n;
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    const double pa = lo + i * h;
    const double pb = (i + 1 == n) ? hi : pa + h;
    const double pm = 0.5 * (pa + pb);
    const double fa = f(pa);
    const double fm = f(pm);
    const double fb = f(pb);
    st.evaluations += 3;
    const double whole = simpson(fa, fm, fb, pa, pb);
    const double tol = std::max(opts.abs_tol / n,
                                opts.rel_tol * std::abs(whole));
    total += adaptive_panel(st, pa, pb, fa, fm, fb, whole, tol, 0);
  }

  result.value = sign * total;
  result.error_estimate = st.error_accum;
  result.evaluations = st.evaluations;
  result.converged = st.converged;
  return result;
}

QuadratureResult integrate_to_infinity(const Integrand& f, double a,
                                       const QuadratureOptions& opts) {
  if (!std::isfinite(a)) {
    throw std::invalid_argument("integrate_to_infinity: lower bound must be finite");
  }
  // x = a + t/(1-t), dx = dt/(1-t)^2, t in [0, 1).
  const Integrand g = [&f, a](double t) {
    const double omt = 1.0 - t;
    if (omt <= 0.0) return 0.0;
    const double x = a + t / omt;
    const double jac = 1.0 / (omt * omt);
    const double v = f(x) * jac;
    return std::isfinite(v) ? v : 0.0;
  };
  // Stop slightly short of 1 to avoid the singular endpoint; the integrand
  // must vanish there for the transform to converge anyway.
  return integrate(g, 0.0, 1.0 - 1e-12, opts);
}

void detail::throw_gauss_legendre_bounds() {
  throw std::invalid_argument("gauss_legendre: bounds must be finite");
}

}  // namespace swapgame::math
