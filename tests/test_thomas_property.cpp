#include <gtest/gtest.h>

#include <vector>

#include "comm/sim_comm.hpp"
#include "ops/kernels.hpp"
#include "precon/preconditioner.hpp"
#include "util/numeric.hpp"

namespace tealeaf {
namespace {

/// Dense Gaussian elimination on a tridiagonal system — the slow
/// reference the Thomas algorithm must match ("a much faster variation of
/// Gaussian elimination for tridiagonal systems", paper §IV-C1).
std::vector<double> dense_tridiag_solve(std::vector<double> sub,
                                        std::vector<double> diag,
                                        std::vector<double> sup,
                                        std::vector<double> rhs) {
  const std::size_t n = diag.size();
  for (std::size_t i = 1; i < n; ++i) {
    const double m = sub[i] / diag[i - 1];
    diag[i] -= m * sup[i - 1];
    rhs[i] -= m * rhs[i - 1];
  }
  std::vector<double> x(n);
  x[n - 1] = rhs[n - 1] / diag[n - 1];
  for (int i = static_cast<int>(n) - 2; i >= 0; --i) {
    x[i] = (rhs[i] - sup[i] * x[i + 1]) / diag[i];
  }
  return x;
}

/// Randomised-material property sweep: the block-Jacobi solve must equal
/// an independent dense solve of every strip's tridiagonal system.
class ThomasProperty : public ::testing::TestWithParam<int> {};

TEST_P(ThomasProperty, MatchesDenseEliminationPerStrip) {
  const int seed = GetParam();
  SplitMix64 rng(static_cast<std::uint64_t>(seed) * 7919u + 1u);
  // Vary the chunk height so truncated strips of every length 1..4 occur
  // across the sweep.
  const int ny = 5 + seed;  // 6..15
  const int nx = 7;
  SimCluster2D cl(GlobalMesh2D(nx, ny), 1, 2);
  cl.allocate({.fp64 = {FieldId::kR, FieldId::kW, FieldId::kZ, FieldId::kCp,
                        FieldId::kBfp}});
  Chunk2D& c = cl.chunk(0);
  c.density().fill(1.0);
  for (int k = -2; k < ny + 2; ++k)
    for (int j = -2; j < nx + 2; ++j)
      c.density()(j, k) = rng.next_double(0.1, 10.0);
  kernels::init_conduction(c, kernels::Coefficient::kConductivity,
                           rng.next_double(0.5, 20.0),
                           rng.next_double(0.5, 20.0));
  kernels::block_jacobi_init(c);

  auto& r = c.r();
  for (int k = 0; k < ny; ++k)
    for (int j = 0; j < nx; ++j) r(j, k) = rng.next_double(-3.0, 3.0);
  kernels::block_jacobi_solve(c, FieldId::kR, FieldId::kZ, interior_bounds(c));

  for (int k0 = 0; k0 < ny; k0 += kJacBlockSize) {
    const int k1 = std::min(k0 + kJacBlockSize, ny);
    const int len = k1 - k0;
    for (int j = 0; j < nx; ++j) {
      std::vector<double> sub(len, 0.0), diag(len), sup(len, 0.0),
          rhs(len);
      for (int i = 0; i < len; ++i) {
        const int k = k0 + i;
        diag[i] = kernels::diag_at(c, j, k);
        if (i > 0) sub[i] = -c.ky()(j, k);
        if (i < len - 1) sup[i] = -c.ky()(j, k + 1);
        rhs[i] = r(j, k);
      }
      const auto x = dense_tridiag_solve(sub, diag, sup, rhs);
      for (int i = 0; i < len; ++i) {
        EXPECT_NEAR(c.z()(j, k0 + i), x[i],
                    1e-11 * std::max(1.0, std::fabs(x[i])))
            << "seed " << seed << " strip " << k0 << " column " << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThomasProperty, ::testing::Range(1, 11));

TEST(ThomasEdge, ExtremeCoefficientContrast) {
  // 1000:1 density contrast (the crooked-pipe regime) must not break the
  // factorisation.
  SimCluster2D cl(GlobalMesh2D(4, 8), 1, 2);
  cl.allocate({.fp64 = {FieldId::kR, FieldId::kW, FieldId::kZ, FieldId::kCp,
                        FieldId::kBfp}});
  Chunk2D& c = cl.chunk(0);
  for (int k = -2; k < 10; ++k)
    for (int j = -2; j < 6; ++j)
      c.density()(j, k) = (k % 2 == 0) ? 100.0 : 0.1;
  kernels::init_conduction(c, kernels::Coefficient::kConductivity, 640.0,
                           640.0);
  kernels::block_jacobi_init(c);
  auto& r = c.r();
  r.fill(0.0);
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 4; ++j) r(j, k) = 1.0;
  kernels::block_jacobi_solve(c, FieldId::kR, FieldId::kZ, interior_bounds(c));
  for (int k = 0; k < 8; ++k) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_TRUE(std::isfinite(c.z()(j, k)));
      EXPECT_GT(c.z()(j, k), 0.0);  // M⁻¹ of a positive vector stays positive
    }
  }
}

TEST(ThomasEdge, IdentityLimitWhenCouplingVanishes) {
  // With ky = 0 (e.g. ry = 0) the strips decouple into scalars:
  // M = diag(A) and the block solve must equal the diagonal solve.
  SimCluster2D cl(GlobalMesh2D(5, 9), 1, 2);
  cl.allocate({.fp64 = {FieldId::kR, FieldId::kW, FieldId::kZ, FieldId::kCp,
                        FieldId::kBfp}});
  Chunk2D& c = cl.chunk(0);
  c.density().fill(2.0);
  kernels::init_conduction(c, kernels::Coefficient::kConductivity, 3.0,
                           0.0);
  kernels::block_jacobi_init(c);
  auto& r = c.r();
  SplitMix64 rng(5);
  for (int k = 0; k < 9; ++k)
    for (int j = 0; j < 5; ++j) r(j, k) = rng.next_double(-1.0, 1.0);
  kernels::block_jacobi_solve(c, FieldId::kR, FieldId::kZ, interior_bounds(c));
  kernels::diag_solve(c, FieldId::kR, FieldId::kW, interior_bounds(c));
  for (int k = 0; k < 9; ++k)
    for (int j = 0; j < 5; ++j)
      EXPECT_NEAR(c.z()(j, k), c.w()(j, k), 1e-14);
}

}  // namespace
}  // namespace tealeaf
