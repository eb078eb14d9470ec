#pragma once

#include <string>
#include <vector>

#include "solvers/eigen_estimate.hpp"

namespace tealeaf {

/// Coefficients of the shifted/scaled Chebyshev acceleration recurrence
/// for a spectrum contained in [eigmin, eigmax] (paper §III-C, eq. 2-3;
/// upstream tea_calc_ch_coefs):
///   θ = (λmax+λmin)/2,  δ = (λmax−λmin)/2,  σ = θ/δ
///   ρ₀ = 1/σ,  ρ_{j+1} = 1/(2σ − ρ_j)
///   α_j = ρ_{j+1}·ρ_j,   β_j = 2·ρ_{j+1}/δ
struct ChebyCoefs {
  double theta = 0.0;
  double delta = 0.0;
  double sigma = 0.0;
  std::vector<double> alphas;  ///< α_1 … α_n
  std::vector<double> betas;   ///< β_1 … β_n
};

[[nodiscard]] ChebyCoefs chebyshev_coefficients(double eigmin, double eigmax,
                                                int nsteps);

/// The polynomial of one Chebyshev-accelerated solve: when `rec` is
/// non-null, `est` is first estimated from it (estimate_eigenvalues), then
/// `cc` holds the coefficients on [est.eigmin, est.eigmax].  For solver
/// bodies inside a parallel region, where an exception would terminate
/// the process: returns the message estimate_eigenvalues or
/// chebyshev_coefficients would throw (a recurrence with no usable
/// spectrum), or "" on success.  Every thread of a team holds the same
/// recurrence, so every thread gets the same answer.
[[nodiscard]] std::string try_chebyshev_polynomial(const CGRecurrence* rec,
                                                   double safety_lo,
                                                   double safety_hi,
                                                   int nsteps,
                                                   EigenEstimate& est,
                                                   ChebyCoefs& cc);

/// The paper's iteration-count bounds (eqs. 4-7) for a degree-m Chebyshev
/// polynomial preconditioner on a spectrum [eigmin, eigmax]:
///   κ_cg   = λmax/λmin
///   ε_m    = |T_m((λmax+λmin)/(λmax−λmin))|⁻¹
///   κ_pcg  = (1+ε_m)/(1−ε_m)
///   k_total = √κ_cg/2 · ln(2/ε)   (bound on matrix-vector products)
///   k_outer = √κ_pcg/2 · ln(2/ε)  (bound on outer iterations ⇒ dot products)
struct IterationBounds {
  double kappa_cg = 0.0;
  double kappa_pcg = 0.0;
  double k_total = 0.0;
  double k_outer = 0.0;
  /// k_total/k_outer ≈ √(κ_cg/κ_pcg): the factor by which CPPCG reduces
  /// global reductions relative to PCG (paper §III-C).
  [[nodiscard]] double reduction_ratio() const { return k_total / k_outer; }
};

[[nodiscard]] IterationBounds chebyshev_iteration_bounds(double eigmin,
                                                         double eigmax,
                                                         int poly_degree,
                                                         double eps);

/// T_m(x) for |x| >= 1 evaluated stably as cosh(m·acosh(x)).
[[nodiscard]] double chebyshev_tm(int m, double x);

}  // namespace tealeaf
