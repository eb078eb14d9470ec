#include <gtest/gtest.h>

#include <cmath>

#include "amg/multigrid.hpp"
#include "comm/sim_comm.hpp"
#include "ops/kernels.hpp"
#include "solvers/solver.hpp"
#include "test_helpers.hpp"

namespace tealeaf {
namespace {

using testing::make_test_problem;

/// Build a single-chunk problem and return (cluster, chunk&) with kx/ky
/// initialised — the MG solvers take their coefficients from the chunk.
std::unique_ptr<SimCluster2D> mg_problem(int n, double rx_ry = 8.0) {
  return make_test_problem(n, 1, 2, rx_ry);
}

/// One V-cycle the way mg-pcg runs it: inside a parallel region.
void v_cycle(Multigrid& mg, const Field<double>& rhs, Field<double>& out) {
  parallel_region([&](const Team& team) { mg.v_cycle(rhs, out, team); });
}

/// mg-pcg: classic CG preconditioned by one multigrid V-cycle.
SolverConfig mg_pcg() {
  SolverConfig cfg;
  cfg.type = SolverType::kCG;
  cfg.precon = PreconType::kMultigrid;
  return cfg;
}

SolverConfig plain_cg(double eps) {
  SolverConfig cfg;
  cfg.type = SolverType::kCG;
  cfg.eps = eps;
  return cfg;
}

/// ‖u0 − A·u‖ / ‖u0‖ on a one-rank cluster, with A applied by the
/// hierarchy's fine-level operator rather than the solver's stencil.
double mg_relative_residual(const SimCluster& cl) {
  const Chunk& c = cl.chunk(0);
  const Multigrid mg = c.dims() == 3
                           ? Multigrid(c.kx(), c.ky(), c.kz(), c.nx(),
                                       c.ny(), c.nz())
                           : Multigrid(c.kx(), c.ky(), c.nx(), c.ny());
  double rr = 0.0, bb = 0.0;
  for (int l = 0; l < c.nz(); ++l) {
    for (int k = 0; k < c.ny(); ++k) {
      for (int j = 0; j < c.nx(); ++j) {
        const double r = c.u0()(j, k, l) - Multigrid::apply_stencil(
                                               mg.level(0), c.u(), j, k, l);
        rr += r * r;
        bb += c.u0()(j, k, l) * c.u0()(j, k, l);
      }
    }
  }
  return std::sqrt(rr / bb);
}

TEST(Multigrid, HierarchyShrinksToCoarseFloor) {
  auto cl = mg_problem(64);
  const Chunk2D& c = cl->chunk(0);
  Multigrid mg(c.kx(), c.ky(), c.nx(), c.ny());
  ASSERT_GE(mg.num_levels(), 4);
  EXPECT_EQ(mg.level(0).nx, 64);
  EXPECT_EQ(mg.level(1).nx, 32);
  EXPECT_LE(mg.level(mg.num_levels() - 1).nx, 4);
  // Coefficients restrict positively and shrink by the 1/4 rescale.
  EXPECT_GT(mg.level(1).kx(1, 1), 0.0);
  EXPECT_LT(mg.level(1).kx(1, 1), mg.level(0).kx(2, 2) * 2.0);
}

TEST(Multigrid, VCycleContractsResidual) {
  auto cl = mg_problem(64);
  const Chunk2D& c = cl->chunk(0);
  Multigrid mg(c.kx(), c.ky(), c.nx(), c.ny());
  const MGLevel& lv = mg.level(0);

  Field2D<double> rhs(64, 64, 1, 0.0);
  for (int k = 0; k < 64; ++k)
    for (int j = 0; j < 64; ++j)
      rhs(j, k) = std::sin(0.2 * j) * std::cos(0.15 * k);
  Field2D<double> u(64, 64, 1, 0.0);

  const auto resnorm = [&] {
    double rr = 0.0;
    for (int k = 0; k < 64; ++k) {
      for (int j = 0; j < 64; ++j) {
        const double r = rhs(j, k) - Multigrid::apply_stencil(lv, u, j, k);
        rr += r * r;
      }
    }
    return std::sqrt(rr);
  };

  const double r0 = resnorm();
  Field2D<double> z(64, 64, 1, 0.0);
  v_cycle(mg, rhs, z);
  for (int k = 0; k < 64; ++k)
    for (int j = 0; j < 64; ++j) u(j, k) += z(j, k);
  const double r1 = resnorm();
  EXPECT_LT(r1, 0.5 * r0) << "one V-cycle must contract the residual";
}

TEST(MGPCG, SolvesToTolerance) {
  auto cl = mg_problem(48);
  const SolveStats st = run_solver(*cl, mg_pcg());
  EXPECT_TRUE(st.converged);
  EXPECT_LT(mg_relative_residual(*cl), 1e-8);
}

TEST(MGPCG, MatchesTeaLeafCGSolution) {
  auto mg = mg_problem(40, 16.0);
  auto cg = mg_problem(40, 16.0);
  ASSERT_TRUE(run_solver(*mg, mg_pcg()).converged);
  ASSERT_TRUE(run_solver(*cg, plain_cg(1e-12)).converged);
  for (int k = 0; k < 40; ++k)
    for (int j = 0; j < 40; ++j)
      EXPECT_NEAR(mg->chunk(0).u()(j, k), cg->chunk(0).u()(j, k), 1e-6)
          << j << "," << k;
}

TEST(MGPCG, NearMeshIndependentIterations) {
  // The property that makes AMG the low-node-count winner (paper §VIII):
  // iteration counts barely grow with resolution, unlike plain CG.
  int iters32 = 0, iters64 = 0, cg32 = 0, cg64 = 0;
  for (const int n : {32, 64}) {
    auto mg = mg_problem(n, 16.0);
    auto cg = mg_problem(n, 16.0);
    const SolveStats res = run_solver(*mg, mg_pcg());
    ASSERT_TRUE(res.converged);
    const SolveStats st = run_solver(*cg, plain_cg(1e-10));
    ASSERT_TRUE(st.converged);
    (n == 32 ? iters32 : iters64) = res.outer_iters;
    (n == 32 ? cg32 : cg64) = st.outer_iters;
  }
  EXPECT_LE(iters64, iters32 + 6) << "MG-PCG should be ~mesh independent";
  EXPECT_GT(cg64, cg32) << "plain CG iterations must grow with n";
  EXPECT_LT(iters64, cg64 / 2) << "MG-PCG should need far fewer iterations";
}

TEST(MGPCG, OddSizedGridsWork) {
  auto cl = mg_problem(37, 4.0);
  EXPECT_TRUE(run_solver(*cl, mg_pcg()).converged);
}

TEST(MGPCG, SetupCostIsRecorded) {
  // The hierarchy's build is AMG's setup phase: reported apart from the
  // solve, and only by the multigrid preconditioner.
  auto cl = mg_problem(32);
  const Chunk2D& c = cl->chunk(0);
  EXPECT_GE(Multigrid(c.kx(), c.ky(), c.nx(), c.ny()).num_levels(), 3);
  const SolveStats st = run_solver(*cl, mg_pcg());
  EXPECT_TRUE(st.converged);
  EXPECT_GT(st.setup_seconds, 0.0);
  auto cg = mg_problem(32);
  EXPECT_EQ(run_solver(*cg, plain_cg(1e-10)).setup_seconds, 0.0);
}

TEST(MGPCG, BreakdownIsReportedNotThrown) {
  // A NaN in the right-hand side breaks CG down on its first ⟨p, A·p⟩.
  // The retired standalone mg-pcg solver threw a TeaError after its
  // region instead; through the solve server that throw escaped drain()
  // and lost every other result of the drain.
  auto cl = mg_problem(24);
  cl->chunk(0).u0()(5, 7) = std::nan("");
  SolveStats st;
  EXPECT_NO_THROW(st = run_solver(*cl, mg_pcg()));
  EXPECT_TRUE(st.breakdown);
  EXPECT_FALSE(st.converged);
  EXPECT_NE(st.breakdown_reason.find("breakdown"), std::string::npos)
      << st.breakdown_reason;
}

TEST(MGPCG, RejectsWhatTheVCycleCannotRun) {
  // The V-cycle solves the undecomposed fp64 stencil inside classic CG.
  auto two_ranks = make_test_problem(32, 2, 2, 8.0);
  EXPECT_THROW((void)run_solver(*two_ranks, mg_pcg()), TeaError);
  SolverConfig cfg = mg_pcg();
  cfg.fuse_cg_reductions = true;
  EXPECT_THROW(cfg.validate(), TeaError);
  cfg = mg_pcg();
  cfg.type = SolverType::kPPCG;
  EXPECT_THROW(cfg.validate(), TeaError);
  cfg = mg_pcg();
  cfg.op = OperatorKind::kCsr;
  EXPECT_THROW(cfg.validate(), TeaError);
  cfg = mg_pcg();
  cfg.precision = Precision::kMixed;
  EXPECT_THROW(cfg.validate(), TeaError);
  // No deck or sweep value spells it: the solver name selects it.
  EXPECT_THROW((void)precon_type_from_string("multigrid"), TeaError);
  EXPECT_EQ(with_solver_name(SolverConfig{}, "mg-pcg").precon,
            PreconType::kMultigrid);
}

// ---- dimension-generic hierarchy (3-D, mirroring test_geometry3d) -------

using testing::make_test_problem;
using testing::make_test_problem_3d;
using testing::make_test_problem_slab3d;

TEST(Multigrid3D, HierarchyCoarsensPerAxis) {
  auto cl = make_test_problem_3d(32, 1, 2, 8.0);
  const Chunk& c = cl->chunk(0);
  Multigrid mg(c.kx(), c.ky(), c.kz(), 32, 32, 32);
  ASSERT_EQ(mg.num_levels(), 4);  // 32³ → 16³ → 8³ → 4³
  EXPECT_EQ(mg.level(1).nx, 16);
  EXPECT_EQ(mg.level(1).nz, 16);
  EXPECT_EQ(mg.level(3).nz, 4);
  // Coefficients restrict positively on every axis.
  EXPECT_GT(mg.level(1).kx(1, 1, 1), 0.0);
  EXPECT_GT(mg.level(1).kz(1, 1, 1), 0.0);

  // Anisotropic brick: short axes hold at the floor while long axes keep
  // coarsening (per-axis factors from the extents).
  Field<double> kx = Field<double>::make3d(16, 16, 4, 1, 0.1);
  Field<double> ky = Field<double>::make3d(16, 16, 4, 1, 0.1);
  Field<double> kz = Field<double>::make3d(16, 16, 4, 1, 0.1);
  Multigrid aniso(kx, ky, kz, 16, 16, 4);
  ASSERT_EQ(aniso.num_levels(), 3);  // (16,16,4) → (8,8,4) → (4,4,4)
  EXPECT_EQ(aniso.level(1).nx, 8);
  EXPECT_EQ(aniso.level(1).nz, 4);
  EXPECT_EQ(aniso.level(2).nx, 4);
  EXPECT_EQ(aniso.level(2).nz, 4);
}

TEST(Multigrid3D, TransferOperatorsPreserveConstantsOnHeldAxes) {
  // Full weighting must average, never sum: restricting a constant-1
  // residual yields exactly 1 for EVERY combination of coarsened and
  // held axes (a held axis has a single child; double-counting its
  // duplicate index would restrict constants to 2).
  struct Extents {
    int fnx, fny, fnz, cnx, cny, cnz;
  };
  for (const Extents& e : {Extents{4, 4, 1, 2, 2, 1},    // classic 2-D
                           Extents{4, 2, 2, 2, 2, 1},    // y held
                           Extents{2, 4, 4, 2, 2, 2},    // x held
                           Extents{4, 4, 2, 2, 2, 2},    // z held
                           Extents{4, 4, 4, 2, 2, 2}}) { // full 3-D
    Field<double> fine =
        Field<double>::make3d(e.fnx, e.fny, e.fnz, 1, 0.0);
    fine.fill_interior(1.0);
    Field<double> coarse_rhs =
        Field<double>::make3d(e.cnx, e.cny, e.cnz, 1, 0.0);
    Field<double> coarse_u =
        Field<double>::make3d(e.cnx, e.cny, e.cnz, 1, 0.0);
    for (int lc = 0; lc < e.cnz; ++lc)
      for (int kc = 0; kc < e.cny; ++kc)
        kernels::mg_restrict_row(fine, e.fnx, e.fny, e.fnz, coarse_rhs,
                                 coarse_u, e.cnx, e.cny, e.cnz, kc, lc);
    for (int lc = 0; lc < e.cnz; ++lc)
      for (int kc = 0; kc < e.cny; ++kc)
        for (int jc = 0; jc < e.cnx; ++jc)
          ASSERT_EQ(coarse_rhs(jc, kc, lc), 1.0)
              << e.fnx << "x" << e.fny << "x" << e.fnz << " -> " << e.cnx
              << "x" << e.cny << "x" << e.cnz << " at (" << jc << ","
              << kc << "," << lc << ")";

    // The transpose: prolonging a constant coarse correction adds
    // exactly that constant to every fine cell.
    coarse_u.fill_interior(1.0);
    Field<double> fine_u =
        Field<double>::make3d(e.fnx, e.fny, e.fnz, 1, 0.0);
    for (int lf = 0; lf < e.fnz; ++lf)
      for (int kf = 0; kf < e.fny; ++kf)
        kernels::mg_prolong_row(coarse_u, e.cnx, e.cny, e.cnz, fine_u,
                                e.fnx, e.fny, e.fnz, kf, lf);
    for (int lf = 0; lf < e.fnz; ++lf)
      for (int kf = 0; kf < e.fny; ++kf)
        for (int jf = 0; jf < e.fnx; ++jf)
          ASSERT_EQ(fine_u(jf, kf, lf), 1.0);
  }
}

TEST(Multigrid3D, VCycleContractsOnAnisotropic2DGrid) {
  // Per-axis coarsening makes held-axis levels reachable in 2-D too
  // (e.g. 32x4: y holds at the floor while x keeps halving); the
  // restriction must keep averaging there for the V-cycle to contract.
  const int nx = 32, ny = 4;
  Field<double> kx(nx, ny, 1, 0.0);
  Field<double> ky(nx, ny, 1, 0.0);
  for (int k = 0; k < ny; ++k)
    for (int j = 1; j < nx; ++j) kx(j, k) = 2.0;  // boundary faces zero
  for (int k = 1; k < ny; ++k)
    for (int j = 0; j < nx; ++j) ky(j, k) = 2.0;
  Multigrid mg(kx, ky, nx, ny);
  ASSERT_GE(mg.num_levels(), 3);
  EXPECT_EQ(mg.level(1).nx, 16);
  EXPECT_EQ(mg.level(1).ny, 4);  // y held at the floor

  Field<double> rhs(nx, ny, 1, 0.0);
  for (int k = 0; k < ny; ++k)
    for (int j = 0; j < nx; ++j)
      rhs(j, k) = std::sin(0.2 * j) * std::cos(0.5 * k);
  Field<double> z(nx, ny, 1, 0.0);
  v_cycle(mg, rhs, z);
  double rr = 0.0, r0 = 0.0;
  for (int k = 0; k < ny; ++k) {
    for (int j = 0; j < nx; ++j) {
      const double r =
          rhs(j, k) - Multigrid::apply_stencil(mg.level(0), z, j, k);
      rr += r * r;
      r0 += rhs(j, k) * rhs(j, k);
    }
  }
  EXPECT_LT(std::sqrt(rr), 0.5 * std::sqrt(r0))
      << "V-cycle must contract on held-axis hierarchies";
}

TEST(Multigrid3D, VCycleContractsResidual3D) {
  const int n = 20;
  auto cl = make_test_problem_3d(n, 1, 2, 8.0);
  const Chunk& c = cl->chunk(0);
  Multigrid mg(c.kx(), c.ky(), c.kz(), n, n, n);
  const MGLevel& lv = mg.level(0);

  Field<double> rhs = Field<double>::make3d(n, n, n, 1, 0.0);
  for (int l = 0; l < n; ++l)
    for (int k = 0; k < n; ++k)
      for (int j = 0; j < n; ++j)
        rhs(j, k, l) =
            std::sin(0.2 * j) * std::cos(0.15 * k) * std::cos(0.1 * l);
  Field<double> u = Field<double>::make3d(n, n, n, 1, 0.0);

  const auto resnorm = [&] {
    double rr = 0.0;
    for (int l = 0; l < n; ++l) {
      for (int k = 0; k < n; ++k) {
        for (int j = 0; j < n; ++j) {
          const double r =
              rhs(j, k, l) - Multigrid::apply_stencil(lv, u, j, k, l);
          rr += r * r;
        }
      }
    }
    return std::sqrt(rr);
  };

  const double r0 = resnorm();
  Field<double> z = Field<double>::make3d(n, n, n, 1, 0.0);
  v_cycle(mg, rhs, z);
  for (int l = 0; l < n; ++l)
    for (int k = 0; k < n; ++k)
      for (int j = 0; j < n; ++j) u(j, k, l) += z(j, k, l);
  const double r1 = resnorm();
  EXPECT_LT(r1, 0.5 * r0) << "one V-cycle must contract the residual";
}

TEST(Multigrid3D, SinglePlaneVCycleMatches2DExactly) {
  // The tentpole contract at the hierarchy level: a 3-D hierarchy built
  // over a single cell-plane (Kz ≡ 0) has the same level ladder as the
  // 2-D hierarchy and its V-cycle output equals the 2-D V-cycle's
  // bitwise, row for row.
  const int n = 24;
  auto d2 = make_test_problem(n, 1, 2, 6.0);
  auto d3 = make_test_problem_slab3d(n, 1, 2, 6.0);
  const Chunk& c2 = d2->chunk(0);
  const Chunk& c3 = d3->chunk(0);
  Multigrid mg2(c2.kx(), c2.ky(), n, n);
  Multigrid mg3(c3.kx(), c3.ky(), c3.kz(), n, n, 1);
  ASSERT_EQ(mg3.num_levels(), mg2.num_levels());
  for (int lev = 0; lev < mg2.num_levels(); ++lev) {
    EXPECT_EQ(mg3.level(lev).nx, mg2.level(lev).nx);
    EXPECT_EQ(mg3.level(lev).ny, mg2.level(lev).ny);
    EXPECT_EQ(mg3.level(lev).nz, 1);
  }

  Field<double> rhs2(n, n, 1, 0.0);
  Field<double> rhs3 = Field<double>::make3d(n, n, 1, 1, 0.0);
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      const double v = std::sin(0.2 * j) * std::cos(0.15 * k);
      rhs2(j, k) = v;
      rhs3(j, k, 0) = v;
    }
  }
  Field<double> z2(n, n, 1, 0.0);
  Field<double> z3 = Field<double>::make3d(n, n, 1, 1, 0.0);
  v_cycle(mg2, rhs2, z2);
  v_cycle(mg3, rhs3, z3);
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      ASSERT_EQ(z2(j, k), z3(j, k, 0)) << "(" << j << "," << k << ")";

  // Residual norms of the corrected iterate agree exactly too.
  double rr2 = 0.0, rr3 = 0.0;
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      const double r2 =
          rhs2(j, k) - Multigrid::apply_stencil(mg2.level(0), z2, j, k);
      const double r3 = rhs3(j, k, 0) - Multigrid::apply_stencil(
                                            mg3.level(0), z3, j, k, 0);
      rr2 += r2 * r2;
      rr3 += r3 * r3;
    }
  }
  EXPECT_EQ(rr2, rr3);
}

TEST(MGPCG3D, SolvesToTolerance3D) {
  auto cl = make_test_problem_3d(20, 1, 2, 8.0);
  const SolveStats st = run_solver(*cl, mg_pcg());
  EXPECT_TRUE(st.converged);
  // Independent residual check against the 7-point operator.
  EXPECT_LT(mg_relative_residual(*cl), 1e-8);
}

TEST(MGPCG3D, NearMeshIndependentIterations3D) {
  int iters16 = 0, iters32 = 0;
  for (const int n : {16, 32}) {
    auto cl = make_test_problem_3d(n, 1, 2, 16.0);
    const SolveStats res = run_solver(*cl, mg_pcg());
    ASSERT_TRUE(res.converged);
    (n == 16 ? iters16 : iters32) = res.outer_iters;
  }
  EXPECT_LE(iters32, iters16 + 6) << "MG-PCG should be ~mesh independent";
}

TEST(MGPCG3D, MatchesTeaLeafCGSolution3D) {
  const int n = 14;
  auto mg = make_test_problem_3d(n, 1, 2, 8.0);
  auto cg = make_test_problem_3d(n, 1, 2, 8.0);
  ASSERT_TRUE(run_solver(*mg, mg_pcg()).converged);
  ASSERT_TRUE(run_solver(*cg, plain_cg(1e-12)).converged);
  for (int l = 0; l < n; ++l)
    for (int k = 0; k < n; ++k)
      for (int j = 0; j < n; ++j)
        EXPECT_NEAR(mg->chunk(0).u()(j, k, l), cg->chunk(0).u()(j, k, l),
                    1e-6)
            << j << "," << k << "," << l;
}

TEST(MGPCG3D, SinglePlaneSolveMatches2DExactly) {
  // The slab solve reproduces the 2-D iteration count, both residual
  // norms and the iterate itself exactly.
  const int n = 24;
  auto d2 = make_test_problem(n, 1, 2, 6.0);
  auto d3 = make_test_problem_slab3d(n, 1, 2, 6.0);
  const SolveStats r2 = run_solver(*d2, mg_pcg());
  const SolveStats r3 = run_solver(*d3, mg_pcg());
  ASSERT_TRUE(r2.converged);
  ASSERT_TRUE(r3.converged);
  EXPECT_EQ(r3.outer_iters, r2.outer_iters);
  EXPECT_EQ(r3.initial_norm, r2.initial_norm);
  EXPECT_EQ(r3.final_norm, r2.final_norm);
  const Chunk& c2 = d2->chunk(0);
  const Chunk& c3 = d3->chunk(0);
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      ASSERT_EQ(c2.u()(j, k), c3.u()(j, k, 0)) << "(" << j << "," << k << ")";
}

}  // namespace
}  // namespace tealeaf
