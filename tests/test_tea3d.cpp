// The TeaLeaf3D surface, running entirely through the dimension-generic
// unified core (the former src/tea3d fork is retired): 3-D decomposition,
// three-phase halo exchange, the 7-point operator, and all four native
// solvers on 3-D bricks — including the facade dispatch that the old fork
// rejected for Chebyshev.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "comm/sim_comm.hpp"
#include "ops/kernels.hpp"
#include "solvers/solver.hpp"
#include "util/numeric.hpp"
#include "test_helpers.hpp"

namespace tealeaf {
namespace {

// These tests' meshes are too small for a threaded team_width: pin three
// threads so their solves and collectives keep a threaded team.
[[maybe_unused]] ::testing::Environment* const kPinnedTeam =
    ::testing::AddGlobalTestEnvironment(new testing::PinnedThreads(3));

/// Decomposition-independent 3-D test material.
double density3d(int gj, int gk, int gl) {
  SplitMix64 h(static_cast<std::uint64_t>(gj) * 2654435761u +
               static_cast<std::uint64_t>(gk) * 40503u +
               static_cast<std::uint64_t>(gl) * 1299709u + 23u);
  return 0.5 + 3.0 * h.next_double();
}

double energy3d(int gj, int gk, int gl) {
  return 1.0 + 0.5 * std::exp(-0.05 * ((gj - 5) * (gj - 5) +
                                       (gk - 6) * (gk - 6) +
                                       (gl - 4) * (gl - 4)));
}

std::unique_ptr<SimCluster> make_problem_3d(int n, int nranks, int halo,
                                            double rxyz = 4.0) {
  auto cl = std::make_unique<SimCluster>(GlobalMesh::brick3d(n, n, n),
                                         nranks, halo);
  cl->for_each_chunk([&](int, Chunk& c) {
    for (int l = 0; l < c.nz(); ++l)
      for (int k = 0; k < c.ny(); ++k)
        for (int j = 0; j < c.nx(); ++j) {
          const int gj = c.extent().x0 + j;
          const int gk = c.extent().y0 + k;
          const int gl = c.extent().z0 + l;
          c.density()(j, k, l) = density3d(gj, gk, gl);
          c.energy()(j, k, l) = energy3d(gj, gk, gl);
        }
  });
  cl->exchange({FieldId::kDensity, FieldId::kEnergy1}, halo);
  cl->for_each_chunk([&](int, Chunk& c) {
    kernels::init_u_u0(c);
    kernels::init_conduction(c, kernels::Coefficient::kConductivity, rxyz,
                             rxyz, rxyz);
  });
  cl->reset_stats();
  return cl;
}

/// Gather u into a flat global array for cross-decomposition comparison.
std::vector<double> gather_u(SimCluster& cl) {
  const auto& m = cl.mesh();
  std::vector<double> out(static_cast<std::size_t>(m.cell_count()), 0.0);
  for (int r = 0; r < cl.nranks(); ++r) {
    Chunk& c = cl.chunk(r);
    for (int l = 0; l < c.nz(); ++l)
      for (int k = 0; k < c.ny(); ++k)
        for (int j = 0; j < c.nx(); ++j) {
          const std::size_t idx =
              (static_cast<std::size_t>(c.extent().z0 + l) * m.ny +
               (c.extent().y0 + k)) *
                  m.nx +
              (c.extent().x0 + j);
          out[idx] = c.u()(j, k, l);
        }
  }
  return out;
}

TEST(Decomposition3D, PartitionsAndSurfacesMinimal) {
  const GlobalMesh mesh = GlobalMesh::brick3d(24, 24, 24);
  const auto d = Decomposition::create(8, mesh);
  EXPECT_EQ(d.px(), 2);
  EXPECT_EQ(d.py(), 2);
  EXPECT_EQ(d.pz(), 2);
  long long cells = 0;
  for (int r = 0; r < 8; ++r) {
    const auto& e = d.extent(r);
    cells += static_cast<long long>(e.nx) * e.ny * e.nz;
  }
  EXPECT_EQ(cells, mesh.cell_count());
  // Mutual neighbours, all six faces.
  for (int r = 0; r < 8; ++r) {
    for (const Face f : {Face::kRight, Face::kTop, Face::kFront}) {
      const int nb = d.neighbor(r, f);
      if (nb >= 0) EXPECT_EQ(d.neighbor(nb, opposite(f)), r);
    }
  }
}

TEST(Exchange3D, CornersAndEdgesPropagate) {
  const GlobalMesh mesh = GlobalMesh::brick3d(12, 12, 12);
  SimCluster cl(mesh, 8, 2);
  cl.for_each_chunk([&](int, Chunk& c) {
    c.u().fill(-999.0);
    for (int l = 0; l < c.nz(); ++l)
      for (int k = 0; k < c.ny(); ++k)
        for (int j = 0; j < c.nx(); ++j)
          c.u()(j, k, l) = 1e6 * (c.extent().z0 + l) +
                           1e3 * (c.extent().y0 + k) + (c.extent().x0 + j);
  });
  cl.exchange({FieldId::kU}, 2);
  for (int r = 0; r < cl.nranks(); ++r) {
    Chunk& c = cl.chunk(r);
    for (int l = -2; l < c.nz() + 2; ++l)
      for (int k = -2; k < c.ny() + 2; ++k)
        for (int j = -2; j < c.nx() + 2; ++j) {
          const int gj = c.extent().x0 + j;
          const int gk = c.extent().y0 + k;
          const int gl = c.extent().z0 + l;
          if (gj < 0 || gj >= 12 || gk < 0 || gk >= 12 || gl < 0 ||
              gl >= 12) {
            continue;
          }
          EXPECT_DOUBLE_EQ(c.u()(j, k, l), 1e6 * gl + 1e3 * gk + gj)
              << "rank " << r << " (" << j << "," << k << "," << l << ")";
        }
  }
}

TEST(Operator3D, SevenPointConservationAndSPD) {
  auto cl = make_problem_3d(8, 1, 2);
  cl->allocate({.fp64 = {FieldId::kP, FieldId::kW, FieldId::kZ}});
  Chunk& c = cl->chunk(0);
  // A·1 = 1 (unit row sums).
  c.p().fill(1.0);
  kernels::smvp(c, FieldId::kP, FieldId::kW, interior_bounds(c));
  for (int l = 0; l < 8; ++l)
    for (int k = 0; k < 8; ++k)
      for (int j = 0; j < 8; ++j)
        EXPECT_NEAR(c.w()(j, k, l), 1.0, 1e-12);
  // Symmetry via random vectors.
  SplitMix64 rng(3);
  for (int l = 0; l < 8; ++l)
    for (int k = 0; k < 8; ++k)
      for (int j = 0; j < 8; ++j) {
        c.p()(j, k, l) = rng.next_double(-1, 1);
        c.z()(j, k, l) = rng.next_double(-1, 1);
      }
  kernels::smvp(c, FieldId::kP, FieldId::kW, interior_bounds(c));
  const double z_ap = kernels::dot(c, FieldId::kZ, FieldId::kW);
  const double p_ap = kernels::dot(c, FieldId::kP, FieldId::kW);
  kernels::smvp(c, FieldId::kZ, FieldId::kW, interior_bounds(c));
  const double p_az = kernels::dot(c, FieldId::kP, FieldId::kW);
  EXPECT_NEAR(z_ap, p_az, 1e-10 * std::max(1.0, std::fabs(z_ap)));
  EXPECT_GT(p_ap, 0.0);
}

TEST(CG3D, SolvesAndIsDecompositionIndependent) {
  SolverConfig cfg;
  cfg.type = SolverType::kCG;
  cfg.eps = 1e-11;
  auto ref = make_problem_3d(12, 1, 2);
  ASSERT_TRUE(run_solver(*ref, cfg).converged);
  const auto u_ref = gather_u(*ref);
  for (const int nranks : {2, 4, 8}) {
    auto cl = make_problem_3d(12, nranks, 2);
    const SolveStats st = run_solver(*cl, cfg);
    ASSERT_TRUE(st.converged) << nranks;
    const auto u = gather_u(*cl);
    double worst = 0.0;
    for (std::size_t i = 0; i < u.size(); ++i)
      worst = std::max(worst, std::fabs(u[i] - u_ref[i]));
    EXPECT_LT(worst, 1e-9) << nranks << " ranks";
  }
}

TEST(CG3D, CommunicationStructureMatches2DPattern) {
  auto cl = make_problem_3d(12, 8, 2);
  SolverConfig cfg;
  cfg.type = SolverType::kCG;
  cfg.eps = 1e-10;
  const SolveStats st = run_solver(*cl, cfg);
  ASSERT_TRUE(st.converged);
  EXPECT_EQ(cl->stats().reductions, 1 + 2LL * st.outer_iters);
  EXPECT_EQ(cl->stats().exchange_calls,
            1 + static_cast<long long>(st.outer_iters));
}

TEST(Jacobi3D, ConvergesSlowly) {
  auto cl = make_problem_3d(8, 2, 2, 0.5);
  SolverConfig cfg;
  cfg.type = SolverType::kJacobi;
  cfg.eps = 1e-7;
  cfg.max_iters = 100000;
  const SolveStats st = run_solver(*cl, cfg);
  EXPECT_TRUE(st.converged);
  EXPECT_GT(st.outer_iters, 10);
}

TEST(PPCG3D, MatchesCGAndCutsReductions) {
  SolverConfig cg;
  cg.type = SolverType::kCG;
  cg.eps = 1e-11;
  auto a = make_problem_3d(12, 4, 2, 16.0);
  const SolveStats st_cg = run_solver(*a, cg);
  ASSERT_TRUE(st_cg.converged);
  const long long red_cg = a->stats().reductions;

  SolverConfig pp;
  pp.type = SolverType::kPPCG;
  pp.eps = 1e-11;
  pp.eigen_cg_iters = 10;
  pp.inner_steps = 8;
  auto b = make_problem_3d(12, 4, 2, 16.0);
  const SolveStats st_pp = run_solver(*b, pp);
  ASSERT_TRUE(st_pp.converged);
  EXPECT_LT(b->stats().reductions, red_cg);

  const auto ua = gather_u(*a);
  const auto ub = gather_u(*b);
  for (std::size_t i = 0; i < ua.size(); ++i)
    EXPECT_NEAR(ua[i], ub[i], 1e-7);
}

class MatrixPowers3D : public ::testing::TestWithParam<int> {};

TEST_P(MatrixPowers3D, DepthEquivalence) {
  const int depth = GetParam();
  SolverConfig cfg;
  cfg.type = SolverType::kPPCG;
  cfg.eps = 1e-11;
  cfg.eigen_cg_iters = 8;
  cfg.inner_steps = 9;

  cfg.halo_depth = 1;
  auto ref = make_problem_3d(12, 8, 2, 8.0);
  const SolveStats st_ref = run_solver(*ref, cfg);
  ASSERT_TRUE(st_ref.converged);

  cfg.halo_depth = depth;
  auto cl = make_problem_3d(12, 8, depth, 8.0);
  const SolveStats st = run_solver(*cl, cfg);
  ASSERT_TRUE(st.converged);
  EXPECT_EQ(st.outer_iters, st_ref.outer_iters);
  EXPECT_LT(cl->stats().exchange_calls, ref->stats().exchange_calls);

  const auto ua = gather_u(*ref);
  const auto ub = gather_u(*cl);
  double worst = 0.0;
  for (std::size_t i = 0; i < ua.size(); ++i)
    worst = std::max(worst, std::fabs(ua[i] - ub[i]));
  EXPECT_LT(worst, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Depths, MatrixPowers3D, ::testing::Values(2, 3),
                         [](const auto& info) {
                           return "depth" + std::to_string(info.param);
                         });

TEST(Slab3D, SingleLayerMatches2DOperator) {
  // A 3-D problem with nz = 1 has zero z-coefficients everywhere, so the
  // 7-point operator degenerates to the 2-D 5-point one.
  auto cl = std::make_unique<SimCluster>(GlobalMesh::brick3d(10, 10, 1), 1,
                                         1);
  Chunk& c = cl->chunk(0);
  c.density().fill(2.0);
  c.energy().fill(1.0);
  kernels::init_u_u0(c);
  kernels::init_conduction(c, kernels::Coefficient::kConductivity, 3.0, 3.0,
                           3.0);
  for (int k = 0; k < 10; ++k)
    for (int j = 0; j < 10; ++j)
      EXPECT_DOUBLE_EQ(c.kz()(j, k, 0), 0.0);
  // diag = 1 + ΣKx + ΣKy only.
  const double expect = 1.0 + 2 * (3.0 * (2.0 + 2.0) / (2 * 2.0 * 2.0)) +
                        2 * (3.0 * 0.5);
  EXPECT_NEAR(kernels::diag_at(c, 5, 5, 0), expect, 1e-12);
}

TEST(Facade3D, DispatchesEverySolverIncludingChebyshev) {
  // The retired tea3d fork rejected Chebyshev in 3-D; the unified core
  // dispatches all four native solvers through the one facade.
  auto cl = make_problem_3d(8, 1, 2, 1.0);
  SolverConfig cfg;
  cfg.type = SolverType::kChebyshev;
  cfg.eps = 1e-8;
  cfg.eigen_cg_iters = 8;
  EXPECT_TRUE(run_solver(*cl, cfg).converged);
  cfg = SolverConfig{};
  cfg.type = SolverType::kCG;
  cfg.eps = 1e-9;
  EXPECT_TRUE(run_solver(*cl, cfg).converged);
}

}  // namespace
}  // namespace tealeaf
