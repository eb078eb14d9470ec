#include <gtest/gtest.h>

#include <limits>

#include "driver/sweep.hpp"
#include "model/machine.hpp"
#include "model/scaling.hpp"
#include "model/trace.hpp"
#include "solvers/solver.hpp"
#include "test_helpers.hpp"

namespace tealeaf {
namespace {

using testing::make_test_problem;

/// A fixed-iteration configuration: eps at the smallest normal double
/// (validate() rejects 0), so no solve converges and every run of the
/// same configuration performs the same iterations whatever its
/// decomposition; `loop` main-loop iterations after the presteps.
SolverConfig fixed_config(SolverType type, int loop) {
  SolverConfig cfg;
  cfg.type = type;
  cfg.eps = std::numeric_limits<double>::min();
  cfg.eigen_cg_iters = 10;
  cfg.inner_steps = 9;
  cfg.cheby_check_interval = 5;
  const bool presteps =
      type == SolverType::kChebyshev || type == SolverType::kPPCG;
  cfg.max_iters = loop + (presteps ? cfg.eigen_cg_iters : 0);
  return cfg;
}

/// A run of `cfg` with no measured trace: a fixed-iteration trace held at
/// `outer_iters` main-loop iterations on an n² mesh.
SolverRunSummary held_run(const SolverConfig& cfg, int outer_iters,
                          int mesh_n) {
  SolverRunSummary run =
      with_outer_iters(fixed_iteration_run(cfg, 2), outer_iters);
  run.mesh_n = mesh_n;
  return run;
}

/// The heart of the substitution argument: the trace one solve records
/// is its communication at ANY decomposition.  A trace recorded on one
/// rank, priced at 2, 4 and 8 ranks, equals what those runs count —
/// same exchanges, messages, bytes and reductions.
struct TraceCase {
  SolverType type;
  PreconType precon = PreconType::kNone;
  int halo_depth = 1;
  Precision precision = Precision::kDouble;
  int dims = 2;
};

std::unique_ptr<SimCluster> problem(const TraceCase& tc, int nranks) {
  const int halo = std::max(2, tc.halo_depth);
  return tc.dims == 3 ? testing::make_test_problem_3d(16, nranks, halo, 8.0)
                      : make_test_problem(36, nranks, halo, 8.0);
}

class TraceValidation : public ::testing::TestWithParam<TraceCase> {};

TEST_P(TraceValidation, OneRankTracePricesEveryDecomposition) {
  const TraceCase tc = GetParam();
  SolverConfig cfg =
      fixed_config(tc.type, tc.type == SolverType::kChebyshev ? 10 : 3);
  cfg.precon = tc.precon;
  cfg.halo_depth = tc.halo_depth;
  cfg.precision = tc.precision;

  auto one = problem(tc, 1);
  const SolveStats recorded = run_solver(*one, cfg);
  // Every case is a capped solve; a mixed one spends its budget in one
  // pass.
  ASSERT_FALSE(recorded.converged || recorded.breakdown);
  for (const int nranks : {2, 4, 8}) {
    auto cl = problem(tc, nranks);
    const SolveStats st = run_solver(*cl, cfg);
    ASSERT_EQ(st.outer_iters, recorded.outer_iters) << nranks;
    ASSERT_EQ(st.refine_steps, recorded.refine_steps) << nranks;
    const CommStats predicted =
        predict_comm_counts(recorded.trace, cl->decomposition());
    const CommStats& counted = cl->stats();
    EXPECT_EQ(predicted.exchange_calls, counted.exchange_calls) << nranks;
    EXPECT_EQ(predicted.messages, counted.messages) << nranks;
    EXPECT_EQ(predicted.message_bytes, counted.message_bytes) << nranks;
    EXPECT_EQ(predicted.reductions, counted.reductions) << nranks;
  }
}

constexpr SolverType kJacobi = SolverType::kJacobi;
constexpr SolverType kCG = SolverType::kCG;
constexpr SolverType kCheby = SolverType::kChebyshev;
constexpr SolverType kPPCG = SolverType::kPPCG;
constexpr PreconType kNone = PreconType::kNone;
constexpr PreconType kDiag = PreconType::kJacobiDiag;
constexpr PreconType kBlock = PreconType::kJacobiBlock;

INSTANTIATE_TEST_SUITE_P(
    SolversDepthsPrecisionsAndGeometries, TraceValidation,
    ::testing::Values(
        TraceCase{kCG}, TraceCase{kCG, kDiag}, TraceCase{kCG, kBlock},
        TraceCase{kJacobi}, TraceCase{kCheby}, TraceCase{kPPCG},
        TraceCase{kPPCG, kNone, 2}, TraceCase{kPPCG, kNone, 4},
        TraceCase{kPPCG, kDiag, 3}, TraceCase{kPPCG, kNone, 8},
        TraceCase{kCG, kNone, 1, Precision::kSingle},
        TraceCase{kJacobi, kNone, 1, Precision::kSingle},
        TraceCase{kCG, kNone, 1, Precision::kMixed},
        TraceCase{kPPCG, kNone, 2, Precision::kMixed},
        TraceCase{kJacobi, kNone, 1, Precision::kDouble, 3},
        TraceCase{kCG, kNone, 1, Precision::kDouble, 3},
        TraceCase{kCheby, kNone, 1, Precision::kDouble, 3},
        TraceCase{kPPCG, kNone, 2, Precision::kDouble, 3}),
    [](const auto& info) {
      const TraceCase& tc = info.param;
      return std::string(to_string(tc.type)) + "_" + to_string(tc.precon) +
             "_d" + std::to_string(tc.halo_depth) + "_" +
             to_string(tc.precision) + "_" + std::to_string(tc.dims) + "d";
    });

/// PPCG's matrix-powers schedule (paper §IV-C2), read from the traces of
/// real solves: per inner application of m steps, depth 1 exchanges {sd}
/// before every step; depth d > 1 exchanges {rtemp} once, then
/// {sd, rtemp} every d steps.
TEST(PpcgSchedule, MatrixPowersExchangesPerInnerApplication) {
  constexpr int kLoop = 3;
  for (const auto& [m, d] : {std::pair{10, 1}, std::pair{10, 4},
                             std::pair{10, 16}, std::pair{9, 3}}) {
    SolverConfig cfg = fixed_config(kPPCG, kLoop);
    cfg.inner_steps = m;
    cfg.halo_depth = d;
    auto cl = make_test_problem(36, 1, std::max(2, d), 8.0);
    const SolveStats st = run_solver(*cl, cfg);
    ASSERT_FALSE(st.converged || st.breakdown);
    const auto exchanges = [&](Phase phase, int depth, int fields) {
      double n = 0.0;
      for (const SolveTrace::ExchangeCount& e : st.trace.exchanges) {
        if (e.phase == phase && e.depth == depth && e.fields == fields) {
          n += e.count;
        }
      }
      return n;
    };
    // Each main-loop iteration exchanges p at depth 1 and runs one inner
    // application; the set-up runs one more after exchanging u.
    const double single = d == 1 ? m : 1;
    const double dual = d == 1 ? 0 : m / d;
    for (const auto& [phase, applies] :
         {std::pair{Phase::kIteration, kLoop}, std::pair{Phase::kSetup, 1}}) {
      if (d == 1) {
        EXPECT_EQ(exchanges(phase, 1, 1), applies * (1 + single)) << m << d;
      } else {
        EXPECT_EQ(exchanges(phase, 1, 1), applies) << m << d;
        EXPECT_EQ(exchanges(phase, d, 1), applies * single) << m << d;
        EXPECT_EQ(exchanges(phase, d, 2), applies * dual) << m << d;
      }
    }
  }
}

TEST(ScalingModelTest, ReducedPrecisionPricesBelowFp64PerIteration) {
  SolverConfig cfg;
  const ScalingModel model(machines::titan(),
                           GlobalMesh2D(4000, 4000, 0, 10, 0, 10), 10);
  const double fp64 = model.run_seconds(held_run(cfg, 4000, 4000), 4);
  cfg.precision = Precision::kSingle;
  const double fp32 = model.run_seconds(held_run(cfg, 4000, 4000), 4);
  cfg.precision = Precision::kMixed;
  const double mixed = model.run_seconds(held_run(cfg, 4000, 4000), 4);
  // Bandwidth-bound at this scale: halved element size must show, but the
  // per-sweep launch overheads keep it under a full 2x.
  EXPECT_LT(fp32, 0.75 * fp64);
  EXPECT_GT(fp32, 0.4 * fp64);
  // The refinement guard costs something, but far less than it saves.
  EXPECT_GT(mixed, fp32);
  EXPECT_LT(mixed, fp64);
}

/// A one-rank allreduce crosses no network, so a CPU rank pays nothing
/// for it; two ranks pay the hop latency.
TEST(ScalingModelTest, OneCpuRankPricesNoReduction) {
  const SolverRunSummary run = held_run(SolverConfig{}, 100, 512);
  SolverRunSummary more = run;
  more.trace.reductions[static_cast<int>(Phase::kIteration)] += 1.0;
  const ScalingModel model(machines::spruce_hybrid(),
                           GlobalMesh2D(512, 512, 0, 10, 0, 10), 1);
  EXPECT_EQ(model.run_seconds(more, 1), model.run_seconds(run, 1));
  EXPECT_GT(model.run_seconds(more, 2), model.run_seconds(run, 2));
}

TEST(ExchangeCounts, MatchesSingleExchange) {
  const GlobalMesh2D mesh(30, 30);
  for (const int nranks : {1, 2, 4, 6, 9}) {
    SimCluster2D cl(mesh, nranks, 3);
    cl.allocate({.fp64 = {FieldId::kP}});
    cl.exchange({FieldId::kU, FieldId::kP}, 3);
    const CommStats cc = exchange_counts(cl.decomposition(), 3, 2);
    EXPECT_EQ(cc.messages, cl.stats().messages) << nranks;
    EXPECT_EQ(cc.message_bytes, cl.stats().message_bytes) << nranks;
  }
}

/// Every route the router projects records the same course in either
/// precision: the presteps, then one check interval of Chebyshev steps or
/// one main-loop iteration, so that with_outer_iters has a main loop to
/// scale.
TEST(Projection, EveryRouteTraceRunsOneMainLoopCourse) {
  for (const SolverType type : {kJacobi, kCG, kCheby, kPPCG}) {
    for (const PreconType precon : {kNone, kDiag, kBlock}) {
      for (const int dims : {2, 3}) {
        for (const Precision precision :
             {Precision::kDouble, Precision::kMixed}) {
          SolverConfig cfg;
          cfg.type = type;
          cfg.precon = precon;
          cfg.precision = precision;
          const SolverRunSummary run = fixed_iteration_run(cfg, dims);
          EXPECT_EQ(run.outer_iters,
                    type == kCheby ? cfg.cheby_check_interval : 1)
              << to_string(type) << "/" << to_string(precon) << "/" << dims
              << "d/" << to_string(precision);
        }
      }
    }
  }
}

TEST(Projection, ScalesOnlyTheIterationPhaseLinearly) {
  SolverRunSummary run = fixed_iteration_run(fixed_config(kPPCG, 1), 2);
  ASSERT_EQ(run.outer_iters, 1);
  run = with_outer_iters(run, 100);
  run.mesh_n = 500;
  const SolverRunSummary proj = project_to_mesh(run, 4000);
  EXPECT_EQ(proj.outer_iters, 800);
  EXPECT_EQ(proj.mesh_n, 4000);
  ASSERT_EQ(proj.trace.kernels.size(), run.trace.kernels.size());
  for (std::size_t i = 0; i < run.trace.kernels.size(); ++i) {
    const SolveTrace::KernelCount& a = run.trace.kernels[i];
    const double want = a.phase == Phase::kIteration ? 8.0 * a.count : a.count;
    EXPECT_DOUBLE_EQ(proj.trace.kernels[i].count, want);
  }
  // The presteps are a fixed configuration cost.
  EXPECT_EQ(proj.trace.reductions[static_cast<int>(Phase::kPrestep)],
            run.trace.reductions[static_cast<int>(Phase::kPrestep)]);
  EXPECT_DOUBLE_EQ(proj.trace.reductions[static_cast<int>(Phase::kIteration)],
                   8.0 * run.trace.reductions[static_cast<int>(
                             Phase::kIteration)]);
  // Identity projection is a no-op.
  EXPECT_EQ(project_to_mesh(run, 500).outer_iters, 100);
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
  const SolverRunSummary run = held_run(SolverConfig{}, 4000, 4000);
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
  SolverConfig cfg;
  cfg.type = SolverType::kPPCG;
  const ScalingModel model(machines::titan(),
                           GlobalMesh2D(4000, 4000, 0, 10, 0, 10), 10);
  const double shallow = model.run_seconds(held_run(cfg, 400, 4000), 4096);
  cfg.halo_depth = 16;
  const double deep = model.run_seconds(held_run(cfg, 400, 4000), 4096);
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
  const ScalingModel model(machines::piz_daint(),
                           GlobalMesh2D(512, 512, 0, 10, 0, 10), 5);
  const auto series =
      model.sweep(held_run(SolverConfig{}, 100, 512), "CG - 1", {1, 2, 4, 8});
  EXPECT_EQ(series.label, "CG - 1");
  ASSERT_EQ(series.points.size(), 4u);
  for (const auto& pt : series.points) EXPECT_GT(pt.seconds, 0.0);
}

}  // namespace
}  // namespace tealeaf
