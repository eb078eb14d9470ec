#include <gtest/gtest.h>

#include <cmath>

#include "solvers/eigen_estimate.hpp"
#include "util/error.hpp"
#include "solvers/tridiag_eigen.hpp"

namespace tealeaf {
namespace {

TEST(TridiagEigen, DiagonalMatrixReturnsSortedDiagonal) {
  const auto eigs = tridiag_eigenvalues({3.0, 1.0, 2.0}, {0.0, 0.0});
  ASSERT_EQ(eigs.size(), 3u);
  EXPECT_DOUBLE_EQ(eigs[0], 1.0);
  EXPECT_DOUBLE_EQ(eigs[1], 2.0);
  EXPECT_DOUBLE_EQ(eigs[2], 3.0);
}

TEST(TridiagEigen, TwoByTwoAnalytic) {
  // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
  const auto eigs = tridiag_eigenvalues({2.0, 2.0}, {1.0});
  ASSERT_EQ(eigs.size(), 2u);
  EXPECT_NEAR(eigs[0], 1.0, 1e-12);
  EXPECT_NEAR(eigs[1], 3.0, 1e-12);
}

TEST(TridiagEigen, OneByOne) {
  const auto eigs = tridiag_eigenvalues({5.0}, {});
  ASSERT_EQ(eigs.size(), 1u);
  EXPECT_DOUBLE_EQ(eigs[0], 5.0);
}

TEST(TridiagEigen, DiscreteLaplacianSpectrum) {
  // T = tridiag(-1, 2, -1) of size n has eigenvalues 2−2cos(iπ/(n+1)).
  const int n = 25;
  std::vector<double> d(n, 2.0), e(n - 1, -1.0);
  const auto eigs = tridiag_eigenvalues(d, e);
  ASSERT_EQ(eigs.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double expect = 2.0 - 2.0 * std::cos(M_PI * (i + 1) / (n + 1));
    EXPECT_NEAR(eigs[i], expect, 1e-10) << "eigenvalue " << i;
  }
}

TEST(TridiagEigen, LargeRandomSPDTraceAndPositivity) {
  // Diagonally dominant symmetric tridiagonal: all eigenvalues positive,
  // and their sum equals the trace.
  const int n = 64;
  std::vector<double> d(n), e(n - 1);
  double trace = 0.0;
  for (int i = 0; i < n; ++i) {
    d[i] = 3.0 + 0.01 * i;
    trace += d[i];
  }
  for (int i = 0; i < n - 1; ++i) e[i] = 1.0 + 0.002 * i;
  const auto eigs = tridiag_eigenvalues(d, e);
  double sum = 0.0;
  for (const double x : eigs) {
    EXPECT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum, trace, 1e-9 * trace);
}

TEST(TridiagEigen, InputValidation) {
  EXPECT_THROW(tridiag_eigenvalues({}, {}), TeaError);
  EXPECT_THROW(tridiag_eigenvalues({1.0, 2.0}, {}), TeaError);
}

TEST(EigenEstimate, RecoversSpectrumOfKnownRecurrence) {
  // For A = diag(λ) CG converges in ≤ n steps; feed the Lanczos identity
  // with synthetic alphas/betas from a real CG run is covered by the
  // solver tests — here check the wiring: a 2-step recurrence with
  // alpha = 1, beta = 0 gives T = I ⇒ both eigenvalues 1.
  CGRecurrence rec;
  rec.alphas = {1.0, 1.0};
  rec.betas = {0.0, 0.0};
  const auto est = estimate_eigenvalues(rec, 1.0, 1.0);
  EXPECT_NEAR(est.eigmin, 1.0, 1e-12);
  EXPECT_NEAR(est.eigmax, 1.0, 1e-12);
  EXPECT_EQ(est.lanczos_steps, 2);
}

TEST(EigenEstimate, SafetyFactorsWidenTheInterval) {
  CGRecurrence rec;
  rec.alphas = {0.5, 0.25};
  rec.betas = {0.2, 0.1};
  const auto tight = estimate_eigenvalues(rec, 1.0, 1.0);
  const auto wide = estimate_eigenvalues(rec, 0.9, 1.1);
  EXPECT_NEAR(wide.eigmin, 0.9 * tight.eigmin, 1e-12);
  EXPECT_NEAR(wide.eigmax, 1.1 * tight.eigmax, 1e-12);
  EXPECT_LT(wide.eigmin, wide.eigmax);
}

TEST(EigenEstimate, RejectsDegenerateInput) {
  CGRecurrence rec;
  rec.alphas = {1.0};
  rec.betas = {};
  EXPECT_THROW((void)estimate_eigenvalues(rec, 1.0, 1.0), TeaError);
  rec.alphas = {1.0, 0.0};
  rec.betas = {0.1};
  EXPECT_THROW((void)estimate_eigenvalues(rec, 1.0, 1.0), TeaError);
}

}  // namespace
}  // namespace tealeaf
