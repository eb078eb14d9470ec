#include "solvers/cheby_coef.hpp"

#include <cmath>

#include "util/error.hpp"

namespace tealeaf {

ChebyCoefs chebyshev_coefficients(double eigmin, double eigmax, int nsteps) {
  TEA_REQUIRE(eigmin > 0.0, "spectrum must be positive (SPD operator)");
  TEA_REQUIRE(eigmax > eigmin, "eigmax must exceed eigmin");
  TEA_REQUIRE(nsteps >= 1, "need at least one step");

  ChebyCoefs cc;
  cc.theta = 0.5 * (eigmax + eigmin);
  cc.delta = 0.5 * (eigmax - eigmin);
  cc.sigma = cc.theta / cc.delta;
  cc.alphas.reserve(static_cast<std::size_t>(nsteps));
  cc.betas.reserve(static_cast<std::size_t>(nsteps));

  double rho_old = 1.0 / cc.sigma;
  for (int j = 0; j < nsteps; ++j) {
    const double rho_new = 1.0 / (2.0 * cc.sigma - rho_old);
    cc.alphas.push_back(rho_new * rho_old);
    cc.betas.push_back(2.0 * rho_new / cc.delta);
    rho_old = rho_new;
  }
  return cc;
}

std::string try_chebyshev_polynomial(const CGRecurrence* rec,
                                     double safety_lo, double safety_hi,
                                     int nsteps, EigenEstimate& est,
                                     ChebyCoefs& cc) {
  try {
    if (rec != nullptr) est = estimate_eigenvalues(*rec, safety_lo, safety_hi);
    cc = chebyshev_coefficients(est.eigmin, est.eigmax, nsteps);
  } catch (const TeaError& e) {
    return e.what();
  }
  return {};
}

double chebyshev_tm(int m, double x) {
  TEA_REQUIRE(x >= 1.0, "stable evaluation requires x >= 1");
  return std::cosh(static_cast<double>(m) * std::acosh(x));
}

IterationBounds chebyshev_iteration_bounds(double eigmin, double eigmax,
                                           int poly_degree, double eps) {
  TEA_REQUIRE(eigmin > 0.0 && eigmax > eigmin, "invalid spectrum");
  TEA_REQUIRE(poly_degree >= 1, "polynomial degree must be >= 1");
  TEA_REQUIRE(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");

  IterationBounds b;
  b.kappa_cg = eigmax / eigmin;
  // eq. 5: ε_m <= |T_m((λmax+λmin)/(λmax−λmin))|⁻¹
  const double x = (eigmax + eigmin) / (eigmax - eigmin);
  const double eps_m = 1.0 / chebyshev_tm(poly_degree, x);
  // eq. 4: κ_pcg = (1+ε_m)/(1−ε_m)
  b.kappa_pcg = (1.0 + eps_m) / (1.0 - eps_m);
  const double log_term = std::log(2.0 / eps);
  // eq. 6 / eq. 7
  b.k_total = 0.5 * std::sqrt(b.kappa_cg) * log_term;
  b.k_outer = 0.5 * std::sqrt(b.kappa_pcg) * log_term;
  return b;
}

}  // namespace tealeaf
