#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "comm/sim_comm.hpp"
#include "ops/kernels.hpp"
#include "util/numeric.hpp"

namespace tealeaf {
namespace {

/// Single-chunk fixture with randomised SPD coefficients.
class OpsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    mesh_ = GlobalMesh2D(8, 6, 0.0, 8.0, 0.0, 6.0);
    cl_ = std::make_unique<SimCluster2D>(mesh_, 1, 2);
    cl_->allocate({.fp64 = {FieldId::kP, FieldId::kR, FieldId::kW,
                            FieldId::kZ}});
    Chunk2D& c = cl_->chunk(0);
    SplitMix64 rng(1234);
    c.density().fill(0.0);
    for (int k = -2; k < c.ny() + 2; ++k)
      for (int j = -2; j < c.nx() + 2; ++j)
        c.density()(j, k) = rng.next_double(0.5, 4.0);
    kernels::init_conduction(c, kernels::Coefficient::kConductivity,
                             /*rx=*/0.7, /*ry=*/0.4);
  }

  /// Dense (matrix-form) application of A for cross-checking the
  /// matrix-free kernel: builds each row from kx/ky explicitly.
  double dense_apply(const Chunk2D& c, const Field2D<double>& x, int j,
                     int k) const {
    const auto& kx = c.kx();
    const auto& ky = c.ky();
    const double diag =
        1.0 + (ky(j, k + 1) + ky(j, k)) + (kx(j + 1, k) + kx(j, k));
    double acc = diag * x(j, k);
    acc -= kx(j, k) * x(j - 1, k);
    acc -= kx(j + 1, k) * x(j + 1, k);
    acc -= ky(j, k) * x(j, k - 1);
    acc -= ky(j, k + 1) * x(j, k + 1);
    return acc;
  }

  GlobalMesh2D mesh_;
  std::unique_ptr<SimCluster2D> cl_;
};

TEST_F(OpsFixture, BoundaryFacesAreZero) {
  const Chunk2D& c = cl_->chunk(0);
  for (int k = 0; k < c.ny(); ++k) {
    EXPECT_DOUBLE_EQ(c.kx()(0, k), 0.0);          // left physical face
    EXPECT_DOUBLE_EQ(c.kx()(c.nx(), k), 0.0);     // right physical face
    EXPECT_GT(c.kx()(1, k), 0.0);                 // interior face positive
  }
  for (int j = 0; j < c.nx(); ++j) {
    EXPECT_DOUBLE_EQ(c.ky()(j, 0), 0.0);
    EXPECT_DOUBLE_EQ(c.ky()(j, c.ny()), 0.0);
    EXPECT_GT(c.ky()(j, 1), 0.0);
  }
}

TEST_F(OpsFixture, FaceCoefficientMatchesUpstreamFormula) {
  const Chunk2D& c = cl_->chunk(0);
  const auto& d = c.density();
  // Kx(j,k) = rx · (ρa+ρb)/(2·ρa·ρb) with coefficient = density.
  const double expect =
      0.7 * (d(2, 3) + d(3, 3)) / (2.0 * d(2, 3) * d(3, 3));
  EXPECT_NEAR(c.kx()(3, 3), expect, 1e-15);
}

TEST_F(OpsFixture, RecipCoefficientInvertsDensityRole) {
  Chunk2D& c = cl_->chunk(0);
  kernels::init_conduction(c, kernels::Coefficient::kRecipConductivity, 0.7,
                           0.4);
  const auto& d = c.density();
  const double ca = 1.0 / d(2, 3), cb = 1.0 / d(3, 3);
  const double expect = 0.7 * (ca + cb) / (2.0 * ca * cb);
  EXPECT_NEAR(c.kx()(3, 3), expect, 1e-15);
}

TEST_F(OpsFixture, SmvpMatchesDenseReference) {
  Chunk2D& c = cl_->chunk(0);
  SplitMix64 rng(77);
  auto& p = c.p();
  p.fill(0.0);
  for (int k = 0; k < c.ny(); ++k)
    for (int j = 0; j < c.nx(); ++j) p(j, k) = rng.next_double(-1.0, 1.0);
  kernels::smvp(c, FieldId::kP, FieldId::kW, interior_bounds(c));
  for (int k = 0; k < c.ny(); ++k)
    for (int j = 0; j < c.nx(); ++j)
      EXPECT_NEAR(c.w()(j, k), dense_apply(c, p, j, k), 1e-13);
}

TEST_F(OpsFixture, SmvpDotReturnsInteriorInnerProduct) {
  Chunk2D& c = cl_->chunk(0);
  SplitMix64 rng(99);
  auto& p = c.p();
  p.fill(0.0);
  for (int k = 0; k < c.ny(); ++k)
    for (int j = 0; j < c.nx(); ++j) p(j, k) = rng.next_double(-1.0, 1.0);
  const double pw = kernels::smvp_dot(c, FieldId::kP, FieldId::kW,
                                      interior_bounds(c));
  EXPECT_NEAR(pw, kernels::dot(c, FieldId::kP, FieldId::kW), 1e-12);
  EXPECT_GT(pw, 0.0);  // SPD: ⟨p, A p⟩ > 0 for p ≠ 0
}

TEST_F(OpsFixture, OperatorIsSymmetric) {
  Chunk2D& c = cl_->chunk(0);
  SplitMix64 rng(7);
  auto& x = c.p();
  auto& y = c.z();
  x.fill(0.0);
  y.fill(0.0);
  for (int k = 0; k < c.ny(); ++k) {
    for (int j = 0; j < c.nx(); ++j) {
      x(j, k) = rng.next_double(-1.0, 1.0);
      y(j, k) = rng.next_double(-1.0, 1.0);
    }
  }
  kernels::smvp(c, FieldId::kP, FieldId::kW, interior_bounds(c));   // w = Ax
  const double y_Ax = kernels::dot(c, FieldId::kZ, FieldId::kW);
  kernels::smvp(c, FieldId::kZ, FieldId::kW, interior_bounds(c));   // w = Ay
  const double x_Ay = kernels::dot(c, FieldId::kP, FieldId::kW);
  EXPECT_NEAR(y_Ax, x_Ay, 1e-11 * std::max(1.0, std::fabs(y_Ax)));
}

TEST_F(OpsFixture, ConstantVectorMapsToItself) {
  // Row sums of A are exactly 1 (diag = 1 + ΣK, off-diag = −K), so
  // A·1 = 1 — the discrete conservation property of the operator.
  Chunk2D& c = cl_->chunk(0);
  c.p().fill(1.0);
  kernels::smvp(c, FieldId::kP, FieldId::kW, interior_bounds(c));
  for (int k = 0; k < c.ny(); ++k)
    for (int j = 0; j < c.nx(); ++j)
      EXPECT_NEAR(c.w()(j, k), 1.0, 1e-13);
}

TEST_F(OpsFixture, InitUSetsTemperatureAndClearsWork) {
  Chunk2D& c = cl_->chunk(0);
  c.energy().fill(2.0);
  c.p().fill(5.0);
  kernels::init_u_u0(c);
  for (int k = 0; k < c.ny(); ++k) {
    for (int j = 0; j < c.nx(); ++j) {
      EXPECT_DOUBLE_EQ(c.u()(j, k), 2.0 * c.density()(j, k));
      EXPECT_DOUBLE_EQ(c.u0()(j, k), c.u()(j, k));
    }
  }
  EXPECT_DOUBLE_EQ(c.p()(0, 0), 0.0);
}

TEST_F(OpsFixture, VectorKernelsBasics) {
  Chunk2D& c = cl_->chunk(0);
  const Bounds in = interior_bounds(c);
  c.p().fill(2.0);
  c.z().fill(3.0);
  kernels::axpy(c, FieldId::kP, 0.5, FieldId::kZ, in);  // p = 2 + 1.5
  EXPECT_DOUBLE_EQ(c.p()(1, 1), 3.5);
  kernels::xpby(c, FieldId::kP, FieldId::kZ, 2.0, in);  // p = 3 + 2*3.5
  EXPECT_DOUBLE_EQ(c.p()(1, 1), 10.0);
  kernels::copy(c, FieldId::kW, FieldId::kP, in);
  EXPECT_DOUBLE_EQ(c.w()(2, 2), 10.0);
  EXPECT_DOUBLE_EQ(kernels::norm2_sq(c, FieldId::kZ), 9.0 * 8 * 6);
}

TEST_F(OpsFixture, ResidualIsZeroForExactSolution) {
  Chunk2D& c = cl_->chunk(0);
  // Set u, then manufacture u0 = A·u; the residual must vanish.
  SplitMix64 rng(3);
  auto& u = c.u();
  u.fill(0.0);
  for (int k = 0; k < c.ny(); ++k)
    for (int j = 0; j < c.nx(); ++j) u(j, k) = rng.next_double(0.0, 2.0);
  kernels::smvp(c, FieldId::kU, FieldId::kZ, interior_bounds(c));
  c.u0().copy_interior_from(c.z());
  const double rr = kernels::calc_residual(c);
  EXPECT_NEAR(rr, 0.0, 1e-20);
}

TEST_F(OpsFixture, ExtendedBoundsClampAtPhysicalBoundary) {
  const Chunk2D& c = cl_->chunk(0);  // single chunk: all faces physical
  const Bounds b = extended_bounds(c, 2);
  EXPECT_EQ(b.jlo, 0);
  EXPECT_EQ(b.jhi, c.nx());
  EXPECT_EQ(b.klo, 0);
  EXPECT_EQ(b.khi, c.ny());
}

TEST(ExtendedBounds, GrowOnlyTowardNeighbours) {
  const GlobalMesh2D mesh(16, 16);
  SimCluster2D cl(mesh, 4, 3);  // 2x2
  const Chunk2D& c = cl.chunk(0);  // bottom-left
  const Bounds b = extended_bounds(c, 3);
  EXPECT_EQ(b.jlo, 0);           // left is physical
  EXPECT_EQ(b.jhi, c.nx() + 3);  // right has a neighbour
  EXPECT_EQ(b.klo, 0);
  EXPECT_EQ(b.khi, c.ny() + 3);
  EXPECT_EQ(b.cells(), static_cast<long long>(11) * 11);
}

TEST(JacobiKernel, OneSweepReducesError) {
  const GlobalMesh2D mesh(12, 12);
  SimCluster2D cl(mesh, 1, 2);
  cl.allocate({.fp64 = {FieldId::kR}});
  Chunk2D& c = cl.chunk(0);
  c.density().fill(1.0);
  c.energy().fill(1.0);
  kernels::init_u_u0(c);
  c.u0()(5, 5) = 10.0;  // perturb the RHS
  kernels::init_conduction(c, kernels::Coefficient::kConductivity, 1.0, 1.0);
  // One sweep through the tile kernels, one block as the engine runs
  // tile_rows = 0: save + inner rows, then the deferred edge rows.
  const auto sweep = [&c] {
    const Bounds in = interior_bounds(c);
    kernels::jacobi_tile(c, in, c.row_scratch());
    kernels::jacobi_tile_edges(c, in, c.row_scratch());
    double err = 0.0;
    for (int k = 0; k < c.ny(); ++k) err += c.row_scratch()[k];
    return err;
  };
  const Field2D<double> old = c.u();
  const double e1 = sweep();
  // The Jacobi update written out from the matrix definition:
  //   u = (u0 + Σ K·u_old(neighbours)) / (1 + Σ K),  err = Σ|u − u_old|.
  double ref_err = 0.0;
  for (int k = 0; k < c.ny(); ++k) {
    for (int j = 0; j < c.nx(); ++j) {
      const double kx0 = c.kx()(j, k), kx1 = c.kx()(j + 1, k);
      const double ky0 = c.ky()(j, k), ky1 = c.ky()(j, k + 1);
      const double want =
          (c.u0()(j, k) + kx0 * old(j - 1, k) + kx1 * old(j + 1, k) +
           ky0 * old(j, k - 1) + ky1 * old(j, k + 1)) /
          (1.0 + kx0 + kx1 + ky0 + ky1);
      EXPECT_NEAR(c.u()(j, k), want, 1e-12) << j << "," << k;
      ref_err += std::fabs(want - old(j, k));
    }
  }
  EXPECT_NEAR(e1, ref_err, 1e-12 * ref_err);
  const double e2 = sweep();
  EXPECT_GT(e1, 0.0);
  EXPECT_LT(e2, e1);
}

// The loader binds the kernels' AVX2 copy exactly where the CPU has AVX2;
// a toolchain without the copies always runs the baseline one.
TEST(VectorIsa, FollowsTheCpu) {
  const std::string isa = kernels::vector_isa();
#if TEALEAF_KERNEL_CLONES
  EXPECT_EQ(isa, __builtin_cpu_supports("avx2") ? "avx2" : "baseline");
#else
  EXPECT_EQ(isa, "baseline");
#endif
}

}  // namespace
}  // namespace tealeaf
