// Dimension-generic core guarantees:
//  * Cross-dimension consistency — a z-uniform 3-D problem with a single
//    cell-plane (nz = 1) has Kz ≡ 0, so the 7-point operator degenerates
//    to the 5-point one and EVERY per-iteration scalar (rro, alpha, beta),
//    iteration count and iterate must reproduce the 2-D solver's exactly,
//    for every solver × preconditioner × tile-height cell.
//  * 3-D engine equivalence — the tiled execution engine is bitwise
//    identical to the untiled one in 3-D, enforced exactly the way
//    test_tiled_engine.cpp enforces it in 2-D.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

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
using testing::make_test_problem_3d;
using testing::max_field_diff;

/// The single-plane slab now lives in test_helpers (shared with the 3-D
/// multigrid suite in test_amg.cpp).
std::unique_ptr<SimCluster> make_slab_problem(int n, int nranks,
                                              int halo_depth,
                                              double rx_ry = 4.0) {
  return testing::make_test_problem_slab3d(n, nranks, halo_depth, rx_ry);
}

TEST(CrossDimension, SlabCGRecurrenceScalarsMatch2DExactly) {
  // The satellite contract in its sharpest form: rro and every alpha/beta
  // of the CG recurrence — the scalars that steer the whole solve — are
  // bitwise equal between the 2-D run and the single-plane 3-D run.
  for (const PreconType precon :
       {PreconType::kNone, PreconType::kJacobiDiag,
        PreconType::kJacobiBlock}) {
    auto d2 = make_test_problem(16, 2, 2);
    auto d3 = make_slab_problem(16, 2, 2);
    // Eight CG iterations on one cluster: the rro after setup and after
    // each iteration, and the recurrence (thread 0's copy).
    const auto run_cg = [&](SimCluster& cl, CGRecurrence& rec) {
      std::vector<double> rros;
      cl.allocate({.fp64 = {FieldId::kP, FieldId::kR, FieldId::kW,
                            FieldId::kZ, FieldId::kCp, FieldId::kBfp}});
      parallel_region([&](const Team& t) {
        CGRecurrence mine;
        std::vector<double> seen{cg_setup(cl, precon, t)};
        bool broke = false;
        for (int i = 0; i < 8 && !broke; ++i) {
          seen.push_back(
              cg_iteration(cl, precon, seen.back(), &mine, broke, t));
        }
        t.single([&] {
          rec = std::move(mine);
          rros = std::move(seen);
        });
      });
      return rros;
    };
    CGRecurrence rec2, rec3;
    const std::vector<double> rro2 = run_cg(*d2, rec2);
    const std::vector<double> rro3 = run_cg(*d3, rec3);
    ASSERT_EQ(rro2.size(), 9u) << to_string(precon);
    EXPECT_EQ(rro2, rro3) << to_string(precon);
    ASSERT_EQ(rec2.alphas.size(), rec3.alphas.size());
    for (std::size_t i = 0; i < rec2.alphas.size(); ++i) {
      EXPECT_EQ(rec2.alphas[i], rec3.alphas[i])
          << to_string(precon) << " alpha " << i;
      EXPECT_EQ(rec2.betas[i], rec3.betas[i])
          << to_string(precon) << " beta " << i;
    }
  }
}

struct EngineCell {
  SolverType type;
  PreconType precon;
  bool chrono;
  int tile_rows;
  int halo_depth = 1;
};

std::string cell_name(const EngineCell& ec) {
  std::string name = std::string(to_string(ec.type)) + "_" +
                     to_string(ec.precon) + "_d" +
                     std::to_string(ec.halo_depth);
  if (ec.chrono) name += "_chrono";
  if (ec.tile_rows != 0) name += "_b" + std::to_string(ec.tile_rows);
  return name;
}

SolverConfig cell_config(const EngineCell& ec) {
  SolverConfig cfg;
  cfg.type = ec.type;
  cfg.precon = ec.precon;
  cfg.halo_depth = ec.halo_depth;
  cfg.fuse_cg_reductions = ec.chrono;
  cfg.tile_rows = ec.tile_rows;
  cfg.eps = (ec.type == SolverType::kJacobi) ? 1e-5 : 1e-10;
  cfg.max_iters = (ec.type == SolverType::kJacobi) ? 100000 : 10000;
  cfg.eigen_cg_iters = 8;
  cfg.inner_steps = 6;
  return cfg;
}

class CrossDimensionCell : public ::testing::TestWithParam<EngineCell> {};

TEST_P(CrossDimensionCell, SlabSolveMatches2DExactly) {
  const EngineCell ec = GetParam();
  const SolverConfig cfg = cell_config(ec);
  const int halo = std::max(2, ec.halo_depth);
  auto d2 = make_test_problem(16, 2, halo, 6.0);
  auto d3 = make_slab_problem(16, 2, halo, 6.0);
  const SolveStats s2 = run_solver(*d2, cfg);
  const SolveStats s3 = run_solver(*d3, cfg);
  ASSERT_TRUE(s2.converged);
  ASSERT_TRUE(s3.converged);
  EXPECT_EQ(s3.outer_iters, s2.outer_iters);
  EXPECT_EQ(s3.inner_steps, s2.inner_steps);
  EXPECT_EQ(s3.spmv_applies, s2.spmv_applies);
  EXPECT_EQ(s3.eigen_cg_iters, s2.eigen_cg_iters);
  EXPECT_EQ(s3.initial_norm, s2.initial_norm);
  EXPECT_EQ(s3.final_norm, s2.final_norm);
  // The iterate itself: the 3-D plane equals the 2-D field bitwise.
  const Field<double> u2 = gather_field(*d2, FieldId::kU);
  const Field<double> u3 = gather_field(*d3, FieldId::kU);
  for (int k = 0; k < 16; ++k)
    for (int j = 0; j < 16; ++j)
      ASSERT_EQ(u2(j, k), u3(j, k, 0)) << "(" << j << "," << k << ")";
  // Same reductions; the slab's z phase moves no data, so byte counts
  // agree too (identical decomposition in the xy plane).
  EXPECT_EQ(d2->stats().reductions, d3->stats().reductions);
  EXPECT_EQ(d2->stats().message_bytes, d3->stats().message_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    SolverPreconEngine, CrossDimensionCell,
    ::testing::Values(
        EngineCell{SolverType::kJacobi, PreconType::kNone, false, 0},
        EngineCell{SolverType::kJacobi, PreconType::kNone, false, 3},
        EngineCell{SolverType::kCG, PreconType::kNone, false, 0},
        EngineCell{SolverType::kCG, PreconType::kNone, false, 3},
        EngineCell{SolverType::kCG, PreconType::kJacobiDiag, false, 3},
        EngineCell{SolverType::kCG, PreconType::kJacobiBlock, false, 3},
        EngineCell{SolverType::kCG, PreconType::kNone, true, 0},
        EngineCell{SolverType::kCG, PreconType::kJacobiDiag, true, 3},
        EngineCell{SolverType::kChebyshev, PreconType::kNone, false, 0},
        EngineCell{SolverType::kChebyshev, PreconType::kJacobiDiag, false, 3},
        EngineCell{SolverType::kChebyshev, PreconType::kJacobiBlock, false, 0},
        EngineCell{SolverType::kPPCG, PreconType::kNone, false, 0},
        EngineCell{SolverType::kPPCG, PreconType::kJacobiDiag, false, 3},
        EngineCell{SolverType::kPPCG, PreconType::kNone, false, 3, 3}),
    [](const auto& info) { return cell_name(info.param); });

// ---- 3-D tiled vs untiled: bitwise ---------------------------------------

class Engine3DEquivalence : public ::testing::TestWithParam<EngineCell> {};

TEST_P(Engine3DEquivalence, BitwiseIdenticalToUntiled3D) {
  const EngineCell ec = GetParam();
  SolverConfig cfg = cell_config(ec);
  const int halo = std::max(2, ec.halo_depth);
  auto a = make_test_problem_3d(10, 4, halo, 6.0);
  auto b = make_test_problem_3d(10, 4, halo, 6.0);
  SolverConfig untiled = cfg;
  untiled.tile_rows = 0;
  const SolveStats su = run_solver(*a, untiled);
  const SolveStats st = run_solver(*b, cfg);
  ASSERT_TRUE(su.converged);
  ASSERT_TRUE(st.converged);
  EXPECT_EQ(st.outer_iters, su.outer_iters);
  EXPECT_EQ(st.inner_steps, su.inner_steps);
  EXPECT_EQ(st.spmv_applies, su.spmv_applies);
  EXPECT_EQ(st.eigen_cg_iters, su.eigen_cg_iters);
  EXPECT_EQ(st.initial_norm, su.initial_norm);
  EXPECT_EQ(st.final_norm, su.final_norm);
  EXPECT_EQ(max_field_diff(*a, *b, FieldId::kU), 0.0);
  // Tiling changes the schedule, never the data motion.
  EXPECT_EQ(a->stats().exchange_calls, b->stats().exchange_calls);
  EXPECT_EQ(a->stats().messages, b->stats().messages);
  EXPECT_EQ(a->stats().message_bytes, b->stats().message_bytes);
  EXPECT_EQ(a->stats().reductions, b->stats().reductions);
}

INSTANTIATE_TEST_SUITE_P(
    AllSolversTiled, Engine3DEquivalence,
    ::testing::Values(
        EngineCell{SolverType::kJacobi, PreconType::kNone, false, 6},
        EngineCell{SolverType::kJacobi, PreconType::kNone, false, 1},
        EngineCell{SolverType::kJacobi, PreconType::kNone, false, 4},
        EngineCell{SolverType::kCG, PreconType::kNone, false, 6},
        EngineCell{SolverType::kCG, PreconType::kNone, false, 1},
        EngineCell{SolverType::kCG, PreconType::kNone, false, 4},
        EngineCell{SolverType::kCG, PreconType::kNone, false, 1000},
        EngineCell{SolverType::kCG, PreconType::kJacobiDiag, false, 3},
        EngineCell{SolverType::kCG, PreconType::kJacobiBlock, false, 3},
        EngineCell{SolverType::kCG, PreconType::kNone, true, 4},
        EngineCell{SolverType::kCG, PreconType::kJacobiDiag, true, 2},
        EngineCell{SolverType::kCG, PreconType::kJacobiBlock, true, 5},
        EngineCell{SolverType::kChebyshev, PreconType::kNone, false, 3},
        EngineCell{SolverType::kChebyshev, PreconType::kJacobiDiag, false, 2},
        EngineCell{SolverType::kChebyshev, PreconType::kJacobiBlock, false, 6},
        EngineCell{SolverType::kPPCG, PreconType::kNone, false, 3},
        EngineCell{SolverType::kPPCG, PreconType::kJacobiDiag, false, 2},
        EngineCell{SolverType::kPPCG, PreconType::kNone, false, 3, 3},
        EngineCell{SolverType::kPPCG, PreconType::kJacobiDiag, false, 1, 2}),
    [](const auto& info) { return cell_name(info.param); });

}  // namespace
}  // namespace tealeaf
