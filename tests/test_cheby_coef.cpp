#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "solvers/cheby_coef.hpp"
#include "util/error.hpp"

namespace tealeaf {
namespace {

TEST(ChebyCoefs, ShiftScaleParameters) {
  const auto cc = chebyshev_coefficients(0.5, 4.5, 8);
  EXPECT_DOUBLE_EQ(cc.theta, 2.5);
  EXPECT_DOUBLE_EQ(cc.delta, 2.0);
  EXPECT_DOUBLE_EQ(cc.sigma, 1.25);
  ASSERT_EQ(cc.alphas.size(), 8u);
  ASSERT_EQ(cc.betas.size(), 8u);
}

TEST(ChebyCoefs, RecurrenceMatchesClosedForm) {
  // ρ_j follows ρ_{j+1} = 1/(2σ − ρ_j) with ρ₀ = 1/σ; verify the first
  // few terms by hand.
  const double lo = 1.0, hi = 9.0;
  const auto cc = chebyshev_coefficients(lo, hi, 3);
  const double sigma = cc.sigma;
  double rho0 = 1.0 / sigma;
  double rho1 = 1.0 / (2.0 * sigma - rho0);
  double rho2 = 1.0 / (2.0 * sigma - rho1);
  EXPECT_NEAR(cc.alphas[0], rho1 * rho0, 1e-15);
  EXPECT_NEAR(cc.betas[0], 2.0 * rho1 / cc.delta, 1e-15);
  EXPECT_NEAR(cc.alphas[1], rho2 * rho1, 1e-15);
}

TEST(ChebyCoefs, RhoConvergesBelowOne) {
  // The recurrence converges to σ − √(σ²−1) < 1: alphas approach a
  // stable limit (the asymptotic convergence factor squared).
  const auto cc = chebyshev_coefficients(1.0, 100.0, 200);
  const double sigma = cc.sigma;
  const double rho_inf = sigma - std::sqrt(sigma * sigma - 1.0);
  EXPECT_NEAR(cc.alphas.back(), rho_inf * rho_inf, 1e-10);
}

TEST(ChebyCoefs, InputValidation) {
  EXPECT_THROW(chebyshev_coefficients(-1.0, 2.0, 4), TeaError);
  EXPECT_THROW(chebyshev_coefficients(2.0, 1.0, 4), TeaError);
  EXPECT_THROW(chebyshev_coefficients(1.0, 2.0, 0), TeaError);
}

TEST(ChebyCoefs, PolynomialReportsAnUnusableSpectrumInsteadOfThrowing) {
  // A recurrence with a negative beta has no real Lanczos spectrum; the
  // form solver bodies call inside their parallel region hands back the
  // message instead of throwing across the region boundary.
  CGRecurrence rec;
  rec.alphas = {0.5, 0.4};
  rec.betas = {-0.1, 0.2};
  EigenEstimate est;
  ChebyCoefs cc;
  const std::string why = try_chebyshev_polynomial(&rec, 1.0, 1.0, 4, est, cc);
  EXPECT_NE(why.find("negative beta"), std::string::npos) << why;

  // Without a recurrence the given interval is used as is.
  est.eigmin = 0.5;
  est.eigmax = 4.5;
  EXPECT_EQ(try_chebyshev_polynomial(nullptr, 1.0, 1.0, 8, est, cc), "");
  EXPECT_DOUBLE_EQ(cc.theta, 2.5);
  est.eigmax = est.eigmin;  // collapsed interval
  EXPECT_NE(try_chebyshev_polynomial(nullptr, 1.0, 1.0, 8, est, cc), "");
}

TEST(ChebyTm, MatchesPolynomialDefinition) {
  // T₂(x) = 2x²−1, T₃(x) = 4x³−3x for x ≥ 1.
  for (const double x : {1.0, 1.5, 2.0, 5.0}) {
    EXPECT_NEAR(chebyshev_tm(2, x), 2 * x * x - 1, 1e-9 * (2 * x * x));
    EXPECT_NEAR(chebyshev_tm(3, x), 4 * x * x * x - 3 * x,
                1e-9 * (4 * x * x * x));
  }
  EXPECT_THROW((void)chebyshev_tm(2, 0.5), TeaError);
}

TEST(IterationBounds, PaperEquations4to7) {
  const double lo = 1.0, hi = 400.0;  // κ_cg = 400
  const int m = 10;
  const double eps = 1e-10;
  const auto b = chebyshev_iteration_bounds(lo, hi, m, eps);
  EXPECT_DOUBLE_EQ(b.kappa_cg, 400.0);
  // eq. 6: k_total = √κ/2·ln(2/ε) = 10·ln(2e10)
  EXPECT_NEAR(b.k_total, 10.0 * std::log(2.0 / eps), 1e-9);
  // κ_pcg must collapse towards 1 for a good polynomial.
  EXPECT_GT(b.kappa_pcg, 1.0);
  EXPECT_LT(b.kappa_pcg, b.kappa_cg);
  EXPECT_LT(b.k_outer, b.k_total);
  EXPECT_GT(b.reduction_ratio(), 1.0);
}

TEST(IterationBounds, HigherDegreeReducesOuterIterations) {
  const auto b5 = chebyshev_iteration_bounds(1.0, 1000.0, 5, 1e-8);
  const auto b10 = chebyshev_iteration_bounds(1.0, 1000.0, 10, 1e-8);
  const auto b20 = chebyshev_iteration_bounds(1.0, 1000.0, 20, 1e-8);
  EXPECT_GT(b5.k_outer, b10.k_outer);
  EXPECT_GT(b10.k_outer, b20.k_outer);
  // Total work bound is degree-independent (eq. 6).
  EXPECT_DOUBLE_EQ(b5.k_total, b10.k_total);
}

TEST(IterationBounds, ReductionRatioGrowsWithConditionNumber) {
  const auto small = chebyshev_iteration_bounds(1.0, 100.0, 10, 1e-8);
  const auto large = chebyshev_iteration_bounds(1.0, 10000.0, 10, 1e-8);
  EXPECT_GT(large.reduction_ratio(), small.reduction_ratio());
}

}  // namespace
}  // namespace tealeaf
