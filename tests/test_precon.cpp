#include <gtest/gtest.h>

#include "comm/sim_comm.hpp"
#include "ops/kernels.hpp"
#include "precon/preconditioner.hpp"
#include "util/numeric.hpp"

namespace tealeaf {
namespace {

class PreconFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cl_ = std::make_unique<SimCluster2D>(GlobalMesh2D(10, 11), 1, 2);
    cl_->allocate({.fp64 = {FieldId::kP, FieldId::kR, FieldId::kW,
                            FieldId::kZ, FieldId::kCp, FieldId::kBfp}});
    Chunk2D& c = cl_->chunk(0);
    SplitMix64 rng(5150);
    c.density().fill(1.0);
    for (int k = -2; k < c.ny() + 2; ++k)
      for (int j = -2; j < c.nx() + 2; ++j)
        c.density()(j, k) = rng.next_double(0.2, 5.0);
    kernels::init_conduction(c, kernels::Coefficient::kConductivity, 0.9,
                             1.1);
    kernels::block_jacobi_init(c);
    auto& r = c.r();
    r.fill(0.0);
    for (int k = 0; k < c.ny(); ++k)
      for (int j = 0; j < c.nx(); ++j) r(j, k) = rng.next_double(-2.0, 2.0);
  }

  /// Apply the block-diagonal matrix M (the truncated tridiagonal strips)
  /// to a field — the forward operator for checking M·(M⁻¹r) = r.
  double apply_block_matrix(const Chunk2D& c, const Field2D<double>& x,
                            int j, int k) const {
    const auto& ky = c.ky();
    const int k0 = (k / kJacBlockSize) * kJacBlockSize;
    const int k1 = std::min(k0 + kJacBlockSize, c.ny());
    double acc = kernels::diag_at(c, j, k) * x(j, k);
    if (k > k0) acc -= ky(j, k) * x(j, k - 1);
    if (k < k1 - 1) acc -= ky(j, k + 1) * x(j, k + 1);
    return acc;
  }

  std::unique_ptr<SimCluster2D> cl_;
};

TEST_F(PreconFixture, DiagSolveDividesByDiagonal) {
  Chunk2D& c = cl_->chunk(0);
  kernels::diag_solve(c, FieldId::kR, FieldId::kZ, interior_bounds(c));
  for (int k = 0; k < c.ny(); ++k)
    for (int j = 0; j < c.nx(); ++j)
      EXPECT_NEAR(c.z()(j, k) * kernels::diag_at(c, j, k), c.r()(j, k),
                  1e-13);
}

TEST_F(PreconFixture, BlockSolveInvertsBlockMatrix) {
  Chunk2D& c = cl_->chunk(0);
  kernels::block_jacobi_solve(c, FieldId::kR, FieldId::kZ, interior_bounds(c));
  // ny = 11: strips of 4,4,3 — the truncated strip is exercised too.
  for (int k = 0; k < c.ny(); ++k)
    for (int j = 0; j < c.nx(); ++j)
      EXPECT_NEAR(apply_block_matrix(c, c.z(), j, k), c.r()(j, k), 1e-12);
}

TEST_F(PreconFixture, BlockSolveIsSymmetric) {
  // M⁻¹ must be symmetric for CG: ⟨M⁻¹a, b⟩ = ⟨a, M⁻¹b⟩.
  Chunk2D& c = cl_->chunk(0);
  SplitMix64 rng(11);
  auto& a = c.p();
  auto& b = c.w();
  a.fill(0.0);
  b.fill(0.0);
  for (int k = 0; k < c.ny(); ++k) {
    for (int j = 0; j < c.nx(); ++j) {
      a(j, k) = rng.next_double(-1.0, 1.0);
      b(j, k) = rng.next_double(-1.0, 1.0);
    }
  }
  // z = M⁻¹a
  kernels::block_jacobi_solve(c, FieldId::kP, FieldId::kZ,
                              interior_bounds(c));
  const double ma_b = kernels::dot(c, FieldId::kZ, FieldId::kW);
  // z = M⁻¹b
  kernels::block_jacobi_solve(c, FieldId::kW, FieldId::kZ,
                              interior_bounds(c));
  const double a_mb = kernels::dot(c, FieldId::kP, FieldId::kZ);
  EXPECT_NEAR(ma_b, a_mb, 1e-11 * std::max(1.0, std::fabs(ma_b)));
}

TEST_F(PreconFixture, BlockSolveIsPositiveDefinite) {
  Chunk2D& c = cl_->chunk(0);
  kernels::block_jacobi_solve(c, FieldId::kR, FieldId::kZ, interior_bounds(c));
  EXPECT_GT(kernels::dot(c, FieldId::kR, FieldId::kZ), 0.0);
}

TEST_F(PreconFixture, DispatchMatchesDirectCalls) {
  Chunk2D& c = cl_->chunk(0);
  kernels::apply_preconditioner(c, PreconType::kNone, FieldId::kR,
                                FieldId::kZ);
  for (int k = 0; k < c.ny(); ++k)
    for (int j = 0; j < c.nx(); ++j)
      EXPECT_DOUBLE_EQ(c.z()(j, k), c.r()(j, k));

  kernels::apply_preconditioner(c, PreconType::kJacobiDiag, FieldId::kR,
                                FieldId::kW);
  kernels::diag_solve(c, FieldId::kR, FieldId::kZ, interior_bounds(c));
  for (int k = 0; k < c.ny(); ++k)
    for (int j = 0; j < c.nx(); ++j)
      EXPECT_DOUBLE_EQ(c.w()(j, k), c.z()(j, k));
}

TEST_F(PreconFixture, TruncatedStripsDecoupleAcrossBlockBoundary) {
  // Changing r inside one strip must not change z in a different strip
  // of the same column (blocks are independent by construction).
  Chunk2D& c = cl_->chunk(0);
  kernels::block_jacobi_solve(c, FieldId::kR, FieldId::kZ, interior_bounds(c));
  const double z_other = c.z()(3, 6);  // strip [4,8)
  c.r()(3, 1) += 5.0;                  // strip [0,4)
  kernels::block_jacobi_solve(c, FieldId::kR, FieldId::kZ, interior_bounds(c));
  EXPECT_DOUBLE_EQ(c.z()(3, 6), z_other);
  EXPECT_NE(c.z()(3, 1), 0.0);
}

TEST(PreconSmall, SingleCellStrip) {
  // ny = 1 forces strips of length 1: M = diag, so block == diag solve.
  SimCluster2D cl(GlobalMesh2D(6, 1), 1, 2);
  cl.allocate({.fp64 = {FieldId::kR, FieldId::kW, FieldId::kZ, FieldId::kCp,
                        FieldId::kBfp}});
  Chunk2D& c = cl.chunk(0);
  c.density().fill(2.0);
  kernels::init_conduction(c, kernels::Coefficient::kConductivity, 0.5,
                           0.5);
  kernels::block_jacobi_init(c);
  auto& r = c.r();
  for (int j = 0; j < 6; ++j) r(j, 0) = 1.0 + j;
  kernels::block_jacobi_solve(c, FieldId::kR, FieldId::kZ, interior_bounds(c));
  kernels::diag_solve(c, FieldId::kR, FieldId::kW, interior_bounds(c));
  for (int j = 0; j < 6; ++j)
    EXPECT_NEAR(c.z()(j, 0), c.w()(j, 0), 1e-14);
}

TEST(PreconNames, ToString) {
  EXPECT_STREQ(to_string(PreconType::kNone), "none");
  EXPECT_STREQ(to_string(PreconType::kJacobiDiag), "jac_diag");
  EXPECT_STREQ(to_string(PreconType::kJacobiBlock), "jac_block");
}

}  // namespace
}  // namespace tealeaf
