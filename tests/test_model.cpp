#include <gtest/gtest.h>

#include "model/machine.hpp"
#include "model/scaling.hpp"
#include "model/trace.hpp"
#include "solvers/solver.hpp"
#include "test_helpers.hpp"

namespace tealeaf {
namespace {

using testing::make_test_problem;

/// The heart of the substitution argument (DESIGN.md §2.2): the analytic
/// trace must reproduce the counted communication of real runs exactly —
/// same exchanges, same messages, same bytes, same reductions.
struct TraceCase {
  SolverType type;
  PreconType precon;
  int halo_depth;
  int nranks;
};

class TraceValidation : public ::testing::TestWithParam<TraceCase> {};

TEST_P(TraceValidation, PredictedCommCountsMatchCountedStats) {
  const TraceCase tc = GetParam();
  SolverConfig cfg;
  cfg.type = tc.type;
  cfg.precon = tc.precon;
  cfg.halo_depth = tc.halo_depth;
  cfg.eps = (tc.type == SolverType::kJacobi) ? 1e-6 : 1e-10;
  cfg.max_iters = 100000;
  cfg.eigen_cg_iters = 10;
  cfg.inner_steps = 9;

  const int n = 36;
  auto cl = make_test_problem(n, tc.nranks, std::max(2, tc.halo_depth), 8.0);
  const SolveStats st = run_solver(*cl, cfg);
  ASSERT_TRUE(st.converged);

  const SolverRunSummary run = SolverRunSummary::from(cfg, st, n);
  const CommCounts predicted =
      predict_comm_counts(run, cl->decomposition(), cl->mesh());
  const CommStats& counted = cl->stats();

  EXPECT_EQ(predicted.exchange_calls, counted.exchange_calls);
  EXPECT_EQ(predicted.messages, counted.messages);
  EXPECT_EQ(predicted.message_bytes, counted.message_bytes);
  EXPECT_EQ(predicted.reductions, counted.reductions);
}

INSTANTIATE_TEST_SUITE_P(
    SolversAndDepths, TraceValidation,
    ::testing::Values(
        TraceCase{SolverType::kCG, PreconType::kNone, 1, 4},
        TraceCase{SolverType::kCG, PreconType::kJacobiDiag, 1, 6},
        TraceCase{SolverType::kCG, PreconType::kJacobiBlock, 1, 4},
        TraceCase{SolverType::kJacobi, PreconType::kNone, 1, 4},
        TraceCase{SolverType::kChebyshev, PreconType::kNone, 1, 4},
        TraceCase{SolverType::kPPCG, PreconType::kNone, 1, 4},
        TraceCase{SolverType::kPPCG, PreconType::kNone, 2, 4},
        TraceCase{SolverType::kPPCG, PreconType::kNone, 4, 6},
        TraceCase{SolverType::kPPCG, PreconType::kJacobiDiag, 3, 9},
        TraceCase{SolverType::kPPCG, PreconType::kNone, 8, 2}),
    [](const auto& info) {
      const TraceCase& tc = info.param;
      return std::string(to_string(tc.type)) + "_" +
             to_string(tc.precon) + "_d" + std::to_string(tc.halo_depth) +
             "_r" + std::to_string(tc.nranks);
    });

/// The substitution argument extends to the precision axis: fp32-active
/// solves move 4-byte halos and the mixed refinement loop adds its fp64
/// guard exchanges — the analytic trace must reproduce both byte-exactly.
TEST(TraceValidationPrecision, ReducedPrecisionCommCountsMatchCountedStats) {
  struct Case {
    SolverType type;
    Precision precision;
    int halo_depth;
    double eps;
  };
  const Case cases[] = {
      {SolverType::kCG, Precision::kSingle, 1, 1e-4},
      {SolverType::kJacobi, Precision::kSingle, 1, 1e-4},
      {SolverType::kCG, Precision::kMixed, 1, 1e-8},
      {SolverType::kPPCG, Precision::kMixed, 2, 1e-8},
  };
  for (const Case& c : cases) {
    SolverConfig cfg;
    cfg.type = c.type;
    cfg.precision = c.precision;
    cfg.halo_depth = c.halo_depth;
    cfg.eps = c.eps;
    cfg.max_iters = 100000;
    cfg.eigen_cg_iters = 10;
    cfg.inner_steps = 9;

    const int n = 36;
    auto cl = make_test_problem(n, 4, std::max(2, c.halo_depth), 8.0);
    const SolveStats st = run_solver(*cl, cfg);
    ASSERT_TRUE(st.converged) << to_string(c.type);

    const SolverRunSummary run = SolverRunSummary::from(cfg, st, n);
    const CommCounts predicted =
        predict_comm_counts(run, cl->decomposition(), cl->mesh());
    const CommStats& counted = cl->stats();
    EXPECT_EQ(predicted.exchange_calls, counted.exchange_calls)
        << to_string(c.type);
    EXPECT_EQ(predicted.messages, counted.messages) << to_string(c.type);
    EXPECT_EQ(predicted.message_bytes, counted.message_bytes)
        << to_string(c.type);
    EXPECT_EQ(predicted.reductions, counted.reductions) << to_string(c.type);
  }
}

TEST(ScalingModelTest, ReducedPrecisionPricesBelowFp64PerIteration) {
  SolverRunSummary run;
  run.type = SolverType::kCG;
  run.outer_iters = 4000;
  run.mesh_n = 4000;
  const ScalingModel model(machines::titan(),
                           GlobalMesh2D(4000, 4000, 0, 10, 0, 10), 10);
  const double fp64 = model.run_seconds(run, 4);
  run.precision = Precision::kSingle;
  const double fp32 = model.run_seconds(run, 4);
  run.precision = Precision::kMixed;
  run.refine_steps = 2;
  const double mixed = model.run_seconds(run, 4);
  // Bandwidth-bound at this scale: halved element size must show, but the
  // per-sweep launch overheads keep it under a full 2x.
  EXPECT_LT(fp32, 0.75 * fp64);
  EXPECT_GT(fp32, 0.4 * fp64);
  // The refinement guard costs something, but far less than it saves.
  EXPECT_GT(mixed, fp32);
  EXPECT_LT(mixed, fp64);
}

TEST(ExchangeCounts, MatchesSingleExchange) {
  const GlobalMesh2D mesh(30, 30);
  for (const int nranks : {1, 2, 4, 6, 9}) {
    SimCluster2D cl(mesh, nranks, 3);
    cl.exchange({FieldId::kU, FieldId::kP}, 3);
    const CommCounts cc = exchange_counts(cl.decomposition(), 3, 2);
    EXPECT_EQ(cc.messages, cl.stats().messages) << nranks;
    EXPECT_EQ(cc.message_bytes, cl.stats().message_bytes) << nranks;
  }
}

TEST(InnerPlan, MatchesPaperSchedule) {
  // d=1: one {sd} exchange per inner step.
  auto p = ppcg_inner_exchange_plan(10, 1);
  EXPECT_EQ(p.single_field_rounds, 10);
  EXPECT_EQ(p.dual_field_rounds, 0);
  // d=4, m=10: initial {rtemp} + ⌊10/4⌋ dual rounds.
  p = ppcg_inner_exchange_plan(10, 4);
  EXPECT_EQ(p.single_field_rounds, 1);
  EXPECT_EQ(p.dual_field_rounds, 2);
  // d=16 > m: only the initial exchange — fully communication-free inner.
  p = ppcg_inner_exchange_plan(10, 16);
  EXPECT_EQ(p.single_field_rounds, 1);
  EXPECT_EQ(p.dual_field_rounds, 0);
}

TEST(Projection, ScalesOuterItersLinearly) {
  SolverRunSummary run;
  run.type = SolverType::kCG;
  run.outer_iters = 100;
  run.eigen_cg_iters = 20;
  run.mesh_n = 500;
  const SolverRunSummary proj = project_to_mesh(run, 4000);
  EXPECT_EQ(proj.outer_iters, 800);
  EXPECT_EQ(proj.eigen_cg_iters, 20);  // fixed configuration cost
  EXPECT_EQ(proj.mesh_n, 4000);
  // Identity projection is a no-op.
  const SolverRunSummary same = project_to_mesh(run, 500);
  EXPECT_EQ(same.outer_iters, 100);
}

TEST(Projection, EmpiricalIterationScalingIsRoughlyLinear) {
  // Validate the κ ∝ n² ⇒ iters ∝ n rule on real solves: doubling the
  // mesh should roughly double CG iterations (fixed dt).
  SolverConfig cfg;
  cfg.type = SolverType::kCG;
  cfg.eps = 1e-8;
  int iters[2] = {0, 0};
  const int sizes[2] = {24, 48};
  for (int i = 0; i < 2; ++i) {
    const GlobalMesh2D mesh(sizes[i], sizes[i], 0.0, 10.0, 0.0, 10.0);
    SimCluster2D cl(mesh, 1, 2);
    cl.for_each_chunk([&](int, Chunk2D& c) {
      c.density().fill(1.0);
      c.energy().fill(1.0);
      for (int k = 0; k < c.ny(); ++k)
        for (int j = 0; j < c.nx(); ++j)
          c.energy()(j, k) = (j < c.nx() / 2) ? 5.0 : 1.0;
    });
    cl.exchange({FieldId::kDensity, FieldId::kEnergy1}, 2);
    const double dx = mesh.dx();
    cl.for_each_chunk([&](int, Chunk2D& c) {
      kernels::init_u_u0(c);
      kernels::init_conduction(c, kernels::Coefficient::kConductivity,
                               0.04 / (dx * dx), 0.04 / (dx * dx));
    });
    iters[i] = run_solver(cl, cfg).outer_iters;
  }
  const double ratio = static_cast<double>(iters[1]) / iters[0];
  EXPECT_GT(ratio, 1.4);
  EXPECT_LT(ratio, 2.8);
}

TEST(Machines, TableOneRoster) {
  const auto t = machines::titan();
  const auto p = machines::piz_daint();
  const auto sh = machines::spruce_hybrid();
  const auto sm = machines::spruce_mpi();
  EXPECT_TRUE(t.is_gpu);
  EXPECT_TRUE(p.is_gpu);
  EXPECT_FALSE(sh.is_gpu);
  EXPECT_EQ(sm.ranks_per_node, 20);  // 2 × 10-core E5-2680v2
  EXPECT_EQ(sh.ranks_per_node, 1);
  // Same GPU on both Cray machines; the interconnect differs.
  EXPECT_DOUBLE_EQ(t.mem_bw_gbs, p.mem_bw_gbs);
  EXPECT_GT(t.net_alpha_us, p.net_alpha_us);
  EXPECT_LT(t.net_bw_gbs, p.net_bw_gbs);
}

TEST(ScalingModelTest, StrongScalingThenPlateau) {
  // CG on Titan: time must drop with nodes while compute-bound, then
  // flatten/rise once the 4000² problem starves the GPUs (paper Fig. 5:
  // knee around 1k nodes).
  SolverRunSummary run;
  run.type = SolverType::kCG;
  run.outer_iters = 4000;
  run.mesh_n = 4000;
  const ScalingModel model(machines::titan(),
                           GlobalMesh2D(4000, 4000, 0, 10, 0, 10), 10);
  const double t1 = model.run_seconds(run, 1);
  const double t64 = model.run_seconds(run, 64);
  const double t1024 = model.run_seconds(run, 1024);
  const double t8192 = model.run_seconds(run, 8192);
  EXPECT_LT(t64, t1 / 20.0);
  EXPECT_LT(t1024, t64);
  EXPECT_GT(t8192, t1024 * 0.5);  // at best marginal gains past the knee
}

TEST(ScalingModelTest, DeepHaloBeatsShallowAtScale) {
  SolverRunSummary run;
  run.type = SolverType::kPPCG;
  run.precon = PreconType::kNone;
  run.inner_steps = 10;
  run.eigen_cg_iters = 20;
  run.outer_iters = 400;
  run.mesh_n = 4000;
  const ScalingModel model(machines::titan(),
                           GlobalMesh2D(4000, 4000, 0, 10, 0, 10), 10);
  run.halo_depth = 1;
  const double shallow = model.run_seconds(run, 4096);
  run.halo_depth = 16;
  const double deep = model.run_seconds(run, 4096);
  EXPECT_LT(deep, shallow);
}

TEST(ScalingModelTest, EfficiencyHelper) {
  ScalingSeries s;
  s.label = "test";
  s.points = {{1, 100.0}, {2, 50.0}, {4, 30.0}, {8, 10.0}};
  const auto eff = scaling_efficiency(s);
  ASSERT_EQ(eff.size(), 4u);
  EXPECT_DOUBLE_EQ(eff[0], 1.0);
  EXPECT_DOUBLE_EQ(eff[1], 1.0);          // perfect halving
  EXPECT_NEAR(eff[2], 100.0 / 120.0, 1e-12);
  EXPECT_DOUBLE_EQ(eff[3], 1.25);         // super-linear
}

TEST(ScalingModelTest, AmgBaselinePeaksEarly) {
  // Fig. 7's qualitative shape: the AMG baseline scales to a point, then
  // coarse-level latency dominates and more nodes stop helping well
  // before the CPPCG curves peak.
  const ScalingModel model(machines::spruce_hybrid(),
                           GlobalMesh2D(4000, 4000, 0, 10, 0, 10), 10);
  const double t8 = model.amg_run_seconds(20, 8);
  const double t32 = model.amg_run_seconds(20, 32);
  const double t512 = model.amg_run_seconds(20, 512);
  EXPECT_LT(t32, t8);
  EXPECT_GT(t512, t32 * 0.8);  // little to no gain at 512
}

TEST(ScalingModelTest, SweepProducesLabelledSeries) {
  SolverRunSummary run;
  run.type = SolverType::kCG;
  run.outer_iters = 100;
  run.mesh_n = 512;
  const ScalingModel model(machines::piz_daint(),
                           GlobalMesh2D(512, 512, 0, 10, 0, 10), 5);
  const auto series = model.sweep(run, "CG - 1", {1, 2, 4, 8});
  EXPECT_EQ(series.label, "CG - 1");
  ASSERT_EQ(series.points.size(), 4u);
  for (const auto& pt : series.points) EXPECT_GT(pt.seconds, 0.0);
}

}  // namespace
}  // namespace tealeaf
