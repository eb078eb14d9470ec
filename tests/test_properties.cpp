#include <gtest/gtest.h>

#include <tuple>

#include "solvers/cg.hpp"
#include "solvers/solver.hpp"
#include "test_helpers.hpp"

namespace tealeaf {
namespace {

// These tests' meshes are too small for a threaded team_width: pin three
// threads so their solves and collectives keep a threaded team.
[[maybe_unused]] ::testing::Environment* const kPinnedTeam =
    ::testing::AddGlobalTestEnvironment(new testing::PinnedThreads(3));

using testing::make_test_problem;
using testing::max_field_diff;
using testing::relative_residual;

// ---------------------------------------------------------------------------
// Property sweep 1: every (solver, preconditioner) combination that the
// design space allows must converge to the same solution on the same
// problem, for any decomposition.
// ---------------------------------------------------------------------------

struct ComboCase {
  SolverType type;
  PreconType precon;
  int halo_depth;
  int nranks;
};

class SolverCombo : public ::testing::TestWithParam<ComboCase> {};

TEST_P(SolverCombo, ConvergesToTheCommonSolution) {
  const ComboCase cc = GetParam();
  SolverConfig cfg;
  cfg.type = cc.type;
  cfg.precon = cc.precon;
  cfg.halo_depth = cc.halo_depth;
  cfg.eps = 1e-11;
  cfg.max_iters = 200000;
  cfg.eigen_cg_iters = 12;
  cfg.inner_steps = 8;

  auto ref = make_test_problem(28, 1, 2, 8.0);
  SolverConfig ref_cfg;
  ref_cfg.type = SolverType::kCG;
  ref_cfg.eps = 1e-13;
  ref_cfg.max_iters = 100000;
  ASSERT_TRUE(run_solver(*ref, ref_cfg).converged);

  auto cl = make_test_problem(28, cc.nranks, std::max(2, cc.halo_depth), 8.0);
  const SolveStats st = run_solver(*cl, cfg);
  EXPECT_TRUE(st.converged);
  const double tol = (cc.type == SolverType::kJacobi) ? 1e-4 : 1e-6;
  EXPECT_LT(max_field_diff(*ref, *cl, FieldId::kU), tol);
}

INSTANTIATE_TEST_SUITE_P(
    DesignSpace, SolverCombo,
    ::testing::Values(
        ComboCase{SolverType::kCG, PreconType::kNone, 1, 3},
        ComboCase{SolverType::kCG, PreconType::kJacobiDiag, 1, 4},
        ComboCase{SolverType::kCG, PreconType::kJacobiBlock, 1, 2},
        ComboCase{SolverType::kChebyshev, PreconType::kNone, 1, 4},
        ComboCase{SolverType::kChebyshev, PreconType::kJacobiDiag, 1, 2},
        ComboCase{SolverType::kChebyshev, PreconType::kJacobiBlock, 1, 1},
        ComboCase{SolverType::kPPCG, PreconType::kNone, 1, 4},
        ComboCase{SolverType::kPPCG, PreconType::kNone, 4, 4},
        ComboCase{SolverType::kPPCG, PreconType::kJacobiDiag, 2, 3},
        ComboCase{SolverType::kPPCG, PreconType::kJacobiBlock, 1, 2}),
    [](const auto& info) {
      const ComboCase& cc = info.param;
      return std::string(to_string(cc.type)) + "_" + to_string(cc.precon) +
             "_d" + std::to_string(cc.halo_depth) + "_r" +
             std::to_string(cc.nranks);
    });

// ---------------------------------------------------------------------------
// Property sweep 2: SPD invariants of the operator across random
// materials — symmetry, positive definiteness and unit row sums must hold
// for any coefficient field.
// ---------------------------------------------------------------------------

class OperatorInvariants : public ::testing::TestWithParam<int> {};

TEST_P(OperatorInvariants, SymmetricPositiveConservative) {
  const int seed = GetParam();
  SimCluster2D cl(GlobalMesh2D(14, 17), 1, 2);
  cl.allocate({.fp64 = {FieldId::kP, FieldId::kW, FieldId::kZ}});
  Chunk2D& c = cl.chunk(0);
  SplitMix64 rng(static_cast<std::uint64_t>(seed));
  c.density().fill(1.0);
  for (int k = -2; k < c.ny() + 2; ++k)
    for (int j = -2; j < c.nx() + 2; ++j)
      c.density()(j, k) = rng.next_double(0.05, 20.0);
  kernels::init_conduction(c, kernels::Coefficient::kConductivity,
                           rng.next_double(0.1, 50.0),
                           rng.next_double(0.1, 50.0));

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
  // Symmetry: ⟨y, Ax⟩ = ⟨x, Ay⟩.
  kernels::smvp(c, FieldId::kP, FieldId::kW, interior_bounds(c));
  const double y_ax = kernels::dot(c, FieldId::kZ, FieldId::kW);
  const double x_ax = kernels::dot(c, FieldId::kP, FieldId::kW);
  kernels::smvp(c, FieldId::kZ, FieldId::kW, interior_bounds(c));
  const double x_ay = kernels::dot(c, FieldId::kP, FieldId::kW);
  EXPECT_NEAR(y_ax, x_ay, 1e-10 * std::max(1.0, std::fabs(y_ax)));
  // Positive definiteness: ⟨x, Ax⟩ > 0.
  EXPECT_GT(x_ax, 0.0);
  // Conservation: A·1 = 1.
  c.p().fill(1.0);
  kernels::smvp(c, FieldId::kP, FieldId::kW, interior_bounds(c));
  for (int k = 0; k < c.ny(); ++k)
    for (int j = 0; j < c.nx(); ++j)
      EXPECT_NEAR(c.w()(j, k), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OperatorInvariants,
                         ::testing::Range(1, 11));

// ---------------------------------------------------------------------------
// Property sweep 3: CG residual-norm metric decreases monotonically in
// the ⟨r, M⁻¹r⟩ measure used for convergence control.
// ---------------------------------------------------------------------------

class CGMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(CGMonotonicity, MetricContractsOverall) {
  auto cl = make_test_problem(24, GetParam(), 2, 8.0);
  cl->allocate({.fp64 = {FieldId::kP, FieldId::kR, FieldId::kW}});
  double initial = 0.0;
  double rro = 0.0;
  int increases = 0;
  parallel_region([&](const Team& t) {
    double r = cg_setup(*cl, PreconType::kNone, t);
    const double r0 = r;
    double lowest = r;
    int ups = 0;
    bool broke = false;
    for (int i = 0; i < 60 && !broke; ++i) {
      r = cg_iteration(*cl, PreconType::kNone, r, nullptr, broke, t);
      if (r > lowest) ++ups;
      lowest = std::min(lowest, r);
    }
    t.single([&] {
      initial = r0;
      rro = r;
      increases = ups;
    });
  });
  // CG's ‖r‖₂ is not strictly monotone, but it must trend firmly down.
  EXPECT_LT(rro, 1e-4 * initial);
  EXPECT_LT(increases, 30);
}

INSTANTIATE_TEST_SUITE_P(Ranks, CGMonotonicity, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace tealeaf
