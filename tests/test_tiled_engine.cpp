#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

#include "driver/decks.hpp"
#include "driver/deck.hpp"
#include "driver/sweep.hpp"
#include "driver/tealeaf_app.hpp"
#include "model/machine.hpp"
#include "model/scaling.hpp"
#include "model/trace.hpp"
#include "ops/kernels.hpp"
#include "solvers/solver.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace tealeaf {
namespace {

using testing::make_test_problem;
using testing::max_field_diff;

// ---- Team::for_range_2d (the tile scheduler) -----------------------------

TEST(TeamForRange2D, CoversEveryPairExactlyOnce) {
  const std::vector<std::int64_t> counts = {3, 0, 5, 1, 4};
  std::vector<std::vector<int>> hits;
  for (const std::int64_t n : counts) {
    hits.emplace_back(static_cast<std::size_t>(n), 0);
  }
  parallel_region([&](Team& t) {
    t.for_range_2d(
        static_cast<std::int64_t>(counts.size()),
        [&](std::int64_t o) { return counts[static_cast<std::size_t>(o)]; },
        [&](std::int64_t o, std::int64_t i) {
          ++hits[static_cast<std::size_t>(o)][static_cast<std::size_t>(i)];
        });
  });
  for (std::size_t o = 0; o < counts.size(); ++o) {
    for (std::size_t i = 0; i < hits[o].size(); ++i) {
      ASSERT_EQ(hits[o][i], 1) << "pair (" << o << ", " << i << ")";
    }
  }
}

TEST(TeamForRange2D, HandlesEmptyAndTinyIterationSpaces) {
  int runs = 0;
  parallel_region([&](Team& t) {
    t.for_range_2d(3, [](std::int64_t) { return 0; },
                   [&](std::int64_t, std::int64_t) { ++runs; });
    // Fewer pairs than threads: each pair still runs exactly once.
    t.for_range_2d(1, [](std::int64_t) { return 1; },
                   [&](std::int64_t, std::int64_t) {
#if defined(TEALEAF_HAVE_OPENMP)
#pragma omp atomic
#endif
                     ++runs;
                   });
  });
  EXPECT_EQ(runs, 1);
}

TEST(TiledCluster, NumRowTilesEdgeCases) {
  EXPECT_EQ(SimCluster2D::num_row_tiles(16, 0), 1);   // untiled
  EXPECT_EQ(SimCluster2D::num_row_tiles(16, 16), 1);  // tile == rows
  EXPECT_EQ(SimCluster2D::num_row_tiles(16, 100), 1); // tile > rows
  EXPECT_EQ(SimCluster2D::num_row_tiles(16, 1), 16);  // one-row tiles
  EXPECT_EQ(SimCluster2D::num_row_tiles(16, 5), 4);   // non-dividing
  EXPECT_EQ(SimCluster2D::num_row_tiles(0, 4), 0);    // empty range
}

// ---- tiled kernels vs their untiled forms (bitwise) ----------------------

/// Deterministic non-trivial fill of the solver work fields (allocated
/// here).
void fill_work_fields(SimCluster2D& cl, int halo) {
  cl.allocate({.fp64 = {FieldId::kP, FieldId::kR, FieldId::kW, FieldId::kZ,
                        FieldId::kSd, FieldId::kRtemp}});
  cl.for_each_chunk([&](int r, Chunk2D& c) {
    for (int k = -halo; k < c.ny() + halo; ++k) {
      for (int j = -halo; j < c.nx() + halo; ++j) {
        c.p()(j, k) = 0.02 * j - 0.015 * k + 0.1 * r;
        c.r()(j, k) = 0.5 - 0.003 * j * k;
        c.z()(j, k) = 0.25 * j + 0.01 * k;
        c.sd()(j, k) = 0.01 * (j + 2 * k) + r;
        c.rtemp()(j, k) = 1.0 / (1.0 + 0.1 * (j + k + 2 * halo));
        c.w()(j, k) = 0.3 * k - 0.02 * j;
      }
    }
  });
}

/// The row-blocks of `bb` at height `tile` (<= 0: one block), in order —
/// the blocks for_each_tile hands out for one single-plane box.
std::vector<Bounds> row_blocks(const Bounds& bb, int tile) {
  const int rows = bb.khi - bb.klo;
  const int h = (tile <= 0 || tile >= rows) ? rows : tile;
  std::vector<Bounds> blocks;
  for (int k0 = bb.klo; k0 < bb.khi; k0 += h) {
    Bounds tb = bb;
    tb.klo = k0;
    tb.khi = std::min(bb.khi, k0 + h);
    blocks.push_back(tb);
  }
  return blocks;
}

TEST(TiledKernels, ChebyStepTileMatchesUntiledForAllTileSizes) {
  // Stencil passes for every block, then the deferred edges — the order
  // the engine runs them in (barrier between) — at `tile` rows per block.
  const auto step = [](SimCluster2D& cl, bool diag, int tile) {
    const PreconType precon =
        diag ? PreconType::kJacobiDiag : PreconType::kNone;
    cl.for_each_chunk([&](int, Chunk2D& c) {
      const Bounds bb = extended_bounds(c, 2);
      const std::vector<Bounds> blocks = row_blocks(bb, tile);
      for (const Bounds& tb : blocks) {
        kernels::cheby_step_tile(c, FieldId::kRtemp, FieldId::kSd,
                                 FieldId::kZ, 0.37, 1.21, precon, bb, tb);
      }
      for (const Bounds& tb : blocks) {
        kernels::cheby_step_tile_edges(c, FieldId::kRtemp, FieldId::kSd,
                                       FieldId::kZ, 0.37, 1.21, precon, bb,
                                       tb);
      }
    });
  };
  for (const bool diag : {false, true}) {
    for (const int tile : {1, 2, 3, 5, 14, 100}) {
      auto a = make_test_problem(28, 2, 3);
      auto b = make_test_problem(28, 2, 3);
      fill_work_fields(*a, 3);
      fill_work_fields(*b, 3);
      step(*a, diag, 0);  // one block: the untiled pass
      step(*b, diag, tile);
      for (const FieldId f :
           {FieldId::kRtemp, FieldId::kSd, FieldId::kZ, FieldId::kW}) {
        EXPECT_EQ(max_field_diff(*a, *b, f), 0.0)
            << "diag=" << diag << " tile=" << tile;
      }
    }
  }
}

TEST(TiledKernels, RowReductionsMatchFullKernelsBitwise) {
  // Each row kernel at every tile height against its one-block pass, and
  // the one-block dot / smvp_dot partials against the whole-chunk kernels.
  const auto sum_rows = [](const std::vector<double>& rows, int stride,
                           int offset) {
    double s = 0.0;
    for (std::size_t i = static_cast<std::size_t>(offset); i < rows.size();
         i += static_cast<std::size_t>(stride)) {
      s += rows[i];
    }
    return s;
  };
  for (const int tile : {0, 1, 3, 4, 5}) {
    auto a = make_test_problem(20, 2, 2);
    auto b = make_test_problem(20, 2, 2);
    fill_work_fields(*a, 2);
    fill_work_fields(*b, 2);
    for (int r = 0; r < a->nranks(); ++r) {
      Chunk2D& ca = a->chunk(r);
      Chunk2D& cb = b->chunk(r);
      const Bounds in = interior_bounds(ca);
      const std::size_t ny = static_cast<std::size_t>(ca.ny());
      std::vector<double> one(ny), rows(ny);
      std::vector<double> one2(2 * ny), rows2(2 * ny);

      kernels::dot_rows(ca, FieldId::kP, FieldId::kZ, in, one.data());
      for (const Bounds& tb : row_blocks(in, tile)) {
        kernels::dot_rows(cb, FieldId::kP, FieldId::kZ, tb, rows.data());
      }
      EXPECT_EQ(rows, one) << "dot, tile=" << tile;
      EXPECT_EQ(sum_rows(one, 1, 0),
                kernels::dot(ca, FieldId::kP, FieldId::kZ));

      kernels::smvp_dot_rows(ca, FieldId::kP, FieldId::kW, in, in,
                             one.data());
      for (const Bounds& tb : row_blocks(in, tile)) {
        kernels::smvp_dot_rows(cb, FieldId::kP, FieldId::kW, in, tb,
                               rows.data());
      }
      EXPECT_EQ(rows, one) << "smvp_dot, tile=" << tile;
      EXPECT_EQ(max_field_diff(*a, *b, FieldId::kW), 0.0);
      EXPECT_EQ(sum_rows(one, 1, 0),
                kernels::smvp_dot(cb, FieldId::kP, FieldId::kW, in));

      kernels::smvp_dot2_rows(ca, FieldId::kZ, FieldId::kW, FieldId::kR, in,
                              in, one2.data());
      for (const Bounds& tb : row_blocks(in, tile)) {
        kernels::smvp_dot2_rows(cb, FieldId::kZ, FieldId::kW, FieldId::kR,
                                in, tb, rows2.data());
      }
      EXPECT_EQ(rows2, one2) << "smvp_dot2, tile=" << tile;
      EXPECT_EQ(max_field_diff(*a, *b, FieldId::kW), 0.0);
      // The pair is (⟨r,z⟩, ⟨w,z⟩) with w = A·z.
      EXPECT_EQ(sum_rows(one2, 2, 0),
                kernels::dot(ca, FieldId::kR, FieldId::kZ));
      EXPECT_EQ(sum_rows(one2, 2, 1),
                kernels::dot(ca, FieldId::kW, FieldId::kZ));
    }
  }
}

TEST(TiledKernels, CalcUrDotRowsMatchesFullKernel) {
  const auto calc_ur_dot = [](SimCluster2D& cl, PreconType precon,
                              int tile) {
    double v = 0.0;
    parallel_region([&](const Team& t) {
      const double s = cl.sum_rows_over_chunks(
          t, tile, {Kernel::kCalcUrDot}, [&](int, Chunk2D& c, const Bounds& tb) {
            kernels::calc_ur_dot_rows(c, 0.61, precon, tb, c.row_scratch());
          });
      t.single([&] { v = s; });
    });
    return v;
  };
  for (const PreconType precon :
       {PreconType::kNone, PreconType::kJacobiDiag}) {
    for (const int tile : {1, 3, 7}) {
      auto a = make_test_problem(20, 2, 2);
      auto b = make_test_problem(20, 2, 2);
      fill_work_fields(*a, 2);
      fill_work_fields(*b, 2);
      const double one_block = calc_ur_dot(*a, precon, 0);
      const double tiled = calc_ur_dot(*b, precon, tile);
      EXPECT_EQ(tiled, one_block) << to_string(precon) << " tile=" << tile;
      for (const FieldId f : {FieldId::kU, FieldId::kR, FieldId::kZ}) {
        EXPECT_EQ(max_field_diff(*a, *b, f), 0.0)
            << to_string(precon) << " tile=" << tile;
      }
    }
  }
}

TEST(TiledKernels, JacobiTwoPhaseMatchesFusedSweep) {
  // One Jacobi sweep as the solver runs it: save/update tiles, a barrier,
  // the deferred edge rows, then the row-ordered error reduction.
  const auto sweep = [](SimCluster2D& cl, int tile) {
    const auto interior = [](int, Chunk2D& c) { return interior_bounds(c); };
    cl.exchange({FieldId::kU}, 1);
    double err = 0.0;
    parallel_region([&](const Team& t) {
      cl.for_each_tile(t, tile, interior, {Kernel::kJacobi},
                       [](int, Chunk2D& c, const Bounds& tb) {
                         kernels::jacobi_tile(c, tb, c.row_scratch());
                       });
      t.barrier();
      cl.for_each_tile(t, tile, interior, {},
                       [](int, Chunk2D& c, const Bounds& tb) {
                         kernels::jacobi_tile_edges(c, tb, c.row_scratch());
                       });
      const double v = cl.combine_row_partials(t, tile);
      t.single([&] { err = v; });
    });
    return err;
  };
  for (const int tile : {1, 2, 5, 7}) {
    auto a = make_test_problem(24, 2, 2);
    auto b = make_test_problem(24, 2, 2);
    a->allocate({.fp64 = {FieldId::kR}});
    b->allocate({.fp64 = {FieldId::kR}});
    for (int it = 0; it < 3; ++it) {
      const double one_block = sweep(*a, 0);
      const double tiled = sweep(*b, tile);
      EXPECT_EQ(tiled, one_block) << "tile=" << tile << " sweep " << it;
    }
    EXPECT_EQ(max_field_diff(*a, *b, FieldId::kU), 0.0) << "tile=" << tile;
  }
}

TEST(TiledCluster, SumRowsMatchesSumOverChunksBitwise) {
  // Both fold schedules of the row reductions: each rank's owner folds
  // the rows it deposited (threads <= ranks, or one tile per rank), or a
  // barrier precedes the fold (threads > ranks, several tiles per rank).
  bool owner_fold = false;
  bool barrier_fold = false;
  for (const int nranks : {5, 2}) {
    auto cl = make_test_problem(24, nranks, 2);
    const double untiled = cl->sum_over_chunks([](int, const Chunk2D& c) {
      return kernels::norm2_sq(c, FieldId::kU);
    });
    for (const int threads : {1, 2, 3, 4}) {
      const ThreadScope scope(threads);
      for (const int tile : {1, 3, 24, 0}) {
        cl->reset_stats();
        double tiled = 0.0;
        bool follows = false;
        parallel_region([&](Team& t) {
          const double v = cl->sum_rows_over_chunks(
              t, tile, {Kernel::kNorm2}, [](int, Chunk2D& c, const Bounds& tb) {
                kernels::dot_rows(c, FieldId::kU, FieldId::kU, tb,
                                  c.row_scratch());
              });
          t.single([&] {
            tiled = v;
            follows = cl->tiles_follow_ranks(t, tile);
          });
        });
        (follows ? owner_fold : barrier_fold) = true;
        EXPECT_EQ(tiled, untiled) << nranks << " ranks, " << threads
                                  << " threads, tile=" << tile;
        EXPECT_EQ(cl->stats().reductions, 1);
      }
    }
  }
  EXPECT_TRUE(owner_fold);
#if defined(TEALEAF_HAVE_OPENMP)
  EXPECT_TRUE(barrier_fold);
#endif
}

// ---- whole-solver tiled-vs-untiled equivalence ---------------------------

struct TiledCase {
  SolverType type;
  PreconType precon;
  int halo_depth;
  bool chrono;
  int tile_rows;
  // Shared by both configs: assembled cases check the tiled row-blocking
  // against the untiled fused run on the CSR SpMV path.
  OperatorKind op = OperatorKind::kStencil;
  int nranks = 4;
  // > 0: the tiled solve runs on this many threads and the untiled one on
  // one thread; 0: both on the ambient team.
  int threads = 0;
};

class TiledEngineEquivalence : public ::testing::TestWithParam<TiledCase> {};

TEST_P(TiledEngineEquivalence, BitwiseIdenticalToUntiledFused) {
  const TiledCase tc = GetParam();
  SolverConfig cfg;
  cfg.type = tc.type;
  cfg.precon = tc.precon;
  cfg.halo_depth = tc.halo_depth;
  cfg.fuse_cg_reductions = tc.chrono;
  cfg.tile_rows = 0;  // the untiled baseline (the default is auto)
  cfg.op = tc.op;
  cfg.eps = (tc.type == SolverType::kJacobi) ? 1e-5 : 1e-10;
  cfg.max_iters = (tc.type == SolverType::kJacobi) ? 100000 : 10000;

  auto a = make_test_problem(32, tc.nranks, std::max(2, tc.halo_depth), 8.0);
  auto b = make_test_problem(32, tc.nranks, std::max(2, tc.halo_depth), 8.0);
  testing::install_operator(*a, tc.op);
  testing::install_operator(*b, tc.op);
  SolverConfig tiled_cfg = cfg;
  tiled_cfg.tile_rows = tc.tile_rows;
  const auto solve = [](SimCluster2D& cl, const SolverConfig& c,
                        int threads) {
    if (threads <= 0) return run_solver(cl, c);
    const ThreadScope scope(threads);
    return run_solver(cl, c);
  };
  const SolveStats su = solve(*a, cfg, tc.threads > 0 ? 1 : 0);
  const SolveStats st = solve(*b, tiled_cfg, tc.threads);

  ASSERT_TRUE(su.converged);
  ASSERT_TRUE(st.converged);
  // The tiled engine only re-blocks the row loops: per-row arithmetic and
  // the row/rank-ordered reductions are shared with the untiled fused
  // path, so everything must match exactly.
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

std::vector<TiledCase> tiled_cases() {
  std::vector<TiledCase> cases = {
      // One-row tiles, non-dividing tiles, tile >= chunk rows.
      TiledCase{SolverType::kJacobi, PreconType::kNone, 1, false, 1},
      TiledCase{SolverType::kJacobi, PreconType::kNone, 1, false, 7},
      TiledCase{SolverType::kCG, PreconType::kNone, 1, false, 1},
      TiledCase{SolverType::kCG, PreconType::kNone, 1, false, 7},
      TiledCase{SolverType::kCG, PreconType::kNone, 1, false, 1000},
      TiledCase{SolverType::kCG, PreconType::kJacobiDiag, 1, false, 5},
      TiledCase{SolverType::kCG, PreconType::kJacobiBlock, 1, false, 5},
      TiledCase{SolverType::kCG, PreconType::kNone, 1, true, 7},
      TiledCase{SolverType::kCG, PreconType::kJacobiDiag, 1, true, 3},
      TiledCase{SolverType::kCG, PreconType::kJacobiBlock, 1, true, 6},
      TiledCase{SolverType::kChebyshev, PreconType::kNone, 1, false, 5},
      TiledCase{SolverType::kChebyshev, PreconType::kJacobiDiag, 1, false,
                4},
      TiledCase{SolverType::kChebyshev, PreconType::kJacobiBlock, 1, false,
                6},
      TiledCase{SolverType::kPPCG, PreconType::kNone, 1, false, 5},
      TiledCase{SolverType::kPPCG, PreconType::kJacobiBlock, 1, false, 6},
      TiledCase{SolverType::kPPCG, PreconType::kJacobiDiag, 1, false, 3},
      TiledCase{SolverType::kPPCG, PreconType::kNone, 4, false, 5},
      TiledCase{SolverType::kPPCG, PreconType::kJacobiDiag, 4, false, 1},
      // Assembled operators: row-blocked SpMV over CSR must stay
      // bitwise identical to the untiled fused run, including the
      // deferred-edge schedule at awkward tile heights.
      TiledCase{SolverType::kJacobi, PreconType::kNone, 1, false, 3,
                OperatorKind::kCsr},
      TiledCase{SolverType::kCG, PreconType::kNone, 1, false, 1,
                OperatorKind::kCsr},
      TiledCase{SolverType::kCG, PreconType::kJacobiBlock, 1, false, 5,
                OperatorKind::kCsr},
      TiledCase{SolverType::kCG, PreconType::kJacobiDiag, 1, true, 7,
                OperatorKind::kCsr},
      TiledCase{SolverType::kChebyshev, PreconType::kNone, 1, false, 4,
                OperatorKind::kCsr},
      TiledCase{SolverType::kChebyshev, PreconType::kJacobiDiag, 1, false,
                6, OperatorKind::kCsr},
      TiledCase{SolverType::kPPCG, PreconType::kNone, 1, false, 6,
                OperatorKind::kCsr},
      TiledCase{SolverType::kPPCG, PreconType::kJacobiDiag, 1, false, 5,
                OperatorKind::kCsr}};
  // Block-Jacobi runs its strip solve inside the tile pass, at heights
  // run_solver rounds up to whole strips ("auto" = -1 included), on more
  // threads than ranks.
  for (const int nranks : {1, 2}) {
    for (const int tile : {1, 3, 5, 6, 0, -1}) {
      for (const auto& [type, chrono] :
           {std::pair{SolverType::kCG, false},
            std::pair{SolverType::kCG, true},
            std::pair{SolverType::kChebyshev, false},
            std::pair{SolverType::kPPCG, false}}) {
        cases.push_back(TiledCase{type, PreconType::kJacobiBlock, 1, chrono,
                                  tile, OperatorKind::kStencil, nranks, 3});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllSolversAndTileSizes, TiledEngineEquivalence,
    ::testing::ValuesIn(tiled_cases()),
    [](const auto& info) {
      const TiledCase& tc = info.param;
      std::string name = std::string(to_string(tc.type)) + "_" +
                         to_string(tc.precon) + "_d" +
                         std::to_string(tc.halo_depth) + "_b" +
                         (tc.tile_rows < 0 ? std::string("auto")
                                           : std::to_string(tc.tile_rows));
      if (tc.chrono) name += "_chrono";
      if (tc.op == OperatorKind::kCsr) name += "_csr";
      if (tc.threads > 0) {
        name += "_r" + std::to_string(tc.nranks) + "_t" +
                std::to_string(tc.threads);
      }
      return name;
    });

// ---- 2-D scheduling: more threads than simulated ranks -------------------

TEST(TiledScheduling, MoreThreadsThanRanksStaysBitwiseIdentical) {
#if defined(TEALEAF_HAVE_OPENMP)
  // Reference on the current thread count, then rerun tiled with the team
  // deliberately oversubscribed past the rank count so the (rank,
  // row-block) 2-D schedule engages.
  SolverConfig cfg;
  cfg.type = SolverType::kCG;
  cfg.tile_rows = 0;
  cfg.eps = 1e-10;

  auto a = make_test_problem(32, 2, 2, 8.0);
  const SolveStats su = run_solver(*a, cfg);
  ASSERT_TRUE(su.converged);

  auto b = make_test_problem(32, 2, 2, 8.0);
  SolverConfig tiled = cfg;
  tiled.tile_rows = 3;
  const SolveStats st = [&] {
    const ThreadScope five(5);  // > 2 ranks → flat (rank, block) pairs
    return run_solver(*b, tiled);
  }();

  ASSERT_TRUE(st.converged);
  EXPECT_EQ(st.outer_iters, su.outer_iters);
  EXPECT_EQ(st.final_norm, su.final_norm);
  EXPECT_EQ(max_field_diff(*a, *b, FieldId::kU), 0.0);
#else
  GTEST_SKIP() << "OpenMP disabled: the team never exceeds one thread";
#endif
}

// ---- auto tile derivation ------------------------------------------------

TEST(AutoTile, DerivesFromMachineL2AndFallsBack) {
  const MachineSpec spruce = machines::spruce_hybrid();
  ASSERT_GT(spruce.l2_kb, 0.0);
  const int rows = auto_tile_rows(spruce, 512, 2);
  // Half of 256 KB over 6 fields × 8 B × (512+4) cells: 5.3 rows.
  EXPECT_EQ(rows, 5);
  // Narrower chunks fit more rows per block.
  EXPECT_GT(auto_tile_rows(spruce, 64, 2), rows);
  // No modelled L2: the documented 64-row fallback.
  MachineSpec no_l2 = spruce;
  no_l2.l2_kb = 0.0;
  EXPECT_EQ(auto_tile_rows(no_l2, 512, 2), 64);
}

TEST(HostMachine, L2IsWhatTheOsReports) {
  const MachineSpec& host = machines::host();
  double reported_kb = 0.0;
#ifdef _SC_LEVEL2_CACHE_SIZE
  const long bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (bytes > 0) reported_kb = static_cast<double>(bytes) / 1024.0;
#endif
  EXPECT_EQ(host.l2_kb, reported_kb);
  // One process-wide spec: every call returns the same object.
  EXPECT_EQ(&machines::host(), &host);
}

TEST(AutoTile, AutoConfigSolvesBitwiseIdenticalToUntiled) {
  SolverConfig cfg;
  cfg.type = SolverType::kCG;
  cfg.tile_rows = 0;
  cfg.eps = 1e-10;
  auto a = make_test_problem(32, 4, 2, 8.0);
  auto b = make_test_problem(32, 4, 2, 8.0);
  SolverConfig auto_cfg = cfg;
  auto_cfg.tile_rows = -1;
  const SolveStats su = run_solver(*a, cfg);
  const SolveStats st = run_solver(*b, auto_cfg);
  ASSERT_TRUE(su.converged && st.converged);
  EXPECT_EQ(st.outer_iters, su.outer_iters);
  EXPECT_EQ(st.final_norm, su.final_norm);
  EXPECT_EQ(max_field_diff(*a, *b, FieldId::kU), 0.0);
}

// ---- Jacobi sweeps --------------------------------------------------------

TEST(JacobiBatch, TiledMatchesUntiledOverManySweeps) {
  // Many sweeps: the tiled path must stop on exactly the same sweep as
  // the untiled one.
  SolverConfig cfg;
  cfg.type = SolverType::kJacobi;
  cfg.eps = 1e-6;
  cfg.max_iters = 100000;
  cfg.tile_rows = 0;
  auto a = make_test_problem(24, 2, 2, 4.0);
  auto b = make_test_problem(24, 2, 2, 4.0);
  SolverConfig tiled = cfg;
  tiled.tile_rows = 6;
  const SolveStats su = run_solver(*a, cfg);
  const SolveStats sf = run_solver(*b, tiled);
  ASSERT_TRUE(su.converged);
  ASSERT_TRUE(sf.converged);
  ASSERT_GT(su.outer_iters, 16) << "problem too easy";
  EXPECT_EQ(sf.outer_iters, su.outer_iters);
  EXPECT_EQ(sf.initial_norm, su.initial_norm);
  EXPECT_EQ(sf.final_norm, su.final_norm);
  EXPECT_EQ(max_field_diff(*a, *b, FieldId::kU), 0.0);
  EXPECT_EQ(a->stats().reductions, b->stats().reductions);
  EXPECT_EQ(a->stats().message_bytes, b->stats().message_bytes);
}

TEST(JacobiBatch, MaxItersStopsMidBatch) {
  SolverConfig cfg;
  cfg.type = SolverType::kJacobi;
  cfg.eps = 1e-14;
  cfg.max_iters = 21;  // not a multiple of the 16-sweep batch
  auto cl = make_test_problem(24, 2, 2, 4.0);
  const SolveStats st = run_solver(*cl, cfg);
  EXPECT_FALSE(st.converged);
  EXPECT_EQ(st.outer_iters, 21);
}

// ---- sweep tile axis ------------------------------------------------------

TEST(SweepTileAxis, EnumeratesAfterThreads) {
  SweepSpec spec;
  spec.solvers = {"cg"};
  spec.thread_counts = {0, 2};
  spec.tile_rows = {0, 8};
  const std::vector<SweepCase> cases = enumerate_cases(spec, 16);
  ASSERT_EQ(cases.size(), 4u);
  ASSERT_EQ(spec.num_cases(), 4u);
  EXPECT_EQ(cases[0].label(), "cg/none/d1/n16/t0/fused");
  EXPECT_EQ(cases[1].label(), "cg/none/d1/n16/t0/fused/b8");
  EXPECT_EQ(cases[2].label(), "cg/none/d1/n16/t2/fused");
  EXPECT_EQ(cases[3].label(), "cg/none/d1/n16/t2/fused/b8");
  spec.tile_rows = {-2};
  EXPECT_THROW(spec.validate(), TeaError);
}

TEST(SweepTileAxis, TiledCellsMatchUntiledAndRoundTrip) {
  InputDeck base = decks::hot_block(16, 1);
  base.solver.eps = 1e-8;
  SweepSpec spec;
  spec.solvers = {"cg", "mg-pcg"};
  spec.tile_rows = {0, 4};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);
  ASSERT_EQ(rep.cells.size(), 4u);

  // cg: untiled, b4.
  EXPECT_FALSE(rep.cells[0].skipped);
  EXPECT_FALSE(rep.cells[1].skipped);
  EXPECT_EQ(rep.cells[1].config.tile_rows, 4);
  EXPECT_TRUE(rep.cells[1].converged);
  EXPECT_EQ(rep.cells[1].iterations, rep.cells[0].iterations);
  EXPECT_EQ(rep.cells[1].final_norm, rep.cells[0].final_norm);
  EXPECT_EQ(rep.cells[1].message_bytes, rep.cells[0].message_bytes);

  // mg-pcg tiles like cg: its b4 cell runs and matches the untiled one.
  for (const std::size_t i : {2u, 3u}) {
    EXPECT_FALSE(rep.cells[i].skipped) << rep.cells[i].skip_reason;
    EXPECT_TRUE(rep.cells[i].converged) << rep.cells[i].config.label();
  }
  EXPECT_EQ(rep.cells[3].config.tile_rows, 4);
  EXPECT_EQ(rep.cells[3].iterations, rep.cells[2].iterations);
  EXPECT_EQ(rep.cells[3].final_norm, rep.cells[2].final_norm);

  // The tile column survives the JSON round trip.
  const SweepReport json_back =
      SweepReport::from_json_string(rep.to_json().dump(2));
  for (std::size_t i = 0; i < rep.cells.size(); ++i) {
    EXPECT_EQ(json_back.cells[i].config.tile_rows,
              rep.cells[i].config.tile_rows);
    EXPECT_EQ(json_back.cells[i].config.label(), rep.cells[i].config.label());
  }
}

// ---- deck knobs and diagnostics ------------------------------------------

TEST(TileDeck, TileRowsKnobParsesAndRoundTrips) {
  const InputDeck deck = InputDeck::parse_string(
      "*tea\nx_cells=16\ny_cells=16\nend_step=1\n"
      "tl_fuse_kernels\ntl_tile_rows=24\n"
      "sweep_solvers=cg\nsweep_tile_rows=0,16,64\n"
      "state 1 density=1.0 energy=1.0\n*endtea\n");
  EXPECT_EQ(deck.solver.tile_rows, 24);
  EXPECT_EQ(deck.sweep.tile_rows, (std::vector<int>{0, 16, 64}));
  const InputDeck back = InputDeck::parse_string(deck.to_string());
  EXPECT_EQ(back.solver.tile_rows, 24);
  EXPECT_EQ(back.sweep.tile_rows, deck.sweep.tile_rows);
}

TEST(TileDeck, AutoTileRowsRoundTrips) {
  const InputDeck deck = InputDeck::parse_string(
      "*tea\nx_cells=16\ny_cells=16\nend_step=1\n"
      "tl_tile_rows=auto\nstate 1 density=1.0 energy=1.0\n*endtea\n");
  EXPECT_EQ(deck.solver.tile_rows, -1);
  const InputDeck back = InputDeck::parse_string(deck.to_string());
  EXPECT_EQ(back.solver.tile_rows, -1);
}

TEST(TileDeck, MistypedKnobFailsWithSuggestion) {
  try {
    InputDeck::parse_string(
        "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
        "tl_tile_row=16\nstate 1 density=1 energy=1\n*endtea\n");
    FAIL() << "typo must not be silently ignored";
  } catch (const TeaError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown key 'tl_tile_row'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("did you mean 'tl_tile_rows'"), std::string::npos)
        << msg;
  }
  EXPECT_THROW(InputDeck::parse_string(
                   "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
                   "sweep_fuse=1\nstate 1 density=1 energy=1\n*endtea\n"),
               TeaError);
}

TEST(TileDeck, KnobOutsideTeaBlockIsRejected) {
  EXPECT_THROW(InputDeck::parse_string(
                   "tl_tile_rows=16\n*tea\nx_cells=8\ny_cells=8\n"
                   "end_step=1\nstate 1 density=1 energy=1\n*endtea\n"),
               TeaError);
  // A knob trailing the *endtea line must be rejected too, not dropped.
  EXPECT_THROW(InputDeck::parse_string(
                   "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
                   "state 1 density=1 energy=1\n*endtea\n"
                   "tl_tile_rows=16\n"),
               TeaError);
}

TEST(TileDeck, BooleanFlagsAcceptExplicitValues) {
  const InputDeck off = InputDeck::parse_string(
      "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
      "tl_cg_fuse_reductions=0\nstate 1 density=1 energy=1\n*endtea\n");
  EXPECT_FALSE(off.solver.fuse_cg_reductions);
  const InputDeck on = InputDeck::parse_string(
      "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
      "tl_cg_fuse_reductions=true\nstate 1 density=1 energy=1\n*endtea\n");
  EXPECT_TRUE(on.solver.fuse_cg_reductions);
  EXPECT_THROW(InputDeck::parse_string(
                   "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
                   "tl_cg_fuse_reductions=maybe\nstate 1 density=1 "
                   "energy=1\n*endtea\n"),
               TeaError);
}

// ---- scaling model: blocked-cache variant --------------------------------

TEST(TiledModel, BlockedBytesVariantSpeedsUpCacheFittingTiles) {
  // The untiled reference must say so: the default config (auto tiles)
  // would already price the blocked variant.
  SolverConfig cfg;
  cfg.type = SolverType::kJacobi;
  cfg.tile_rows = 0;
  SolverRunSummary run = with_outer_iters(fixed_iteration_run(cfg, 2), 200);
  run.mesh_n = 1024;
  const GlobalMesh2D mesh(1024, 1024);
  const ScalingModel model(machines::spruce_hybrid(), mesh, 1);

  const double untiled = model.run_seconds(run, 1);
  run.tile_rows = 4;  // 4 rows × 1024 cells × 6 fields × 8 B ≈ 192 KB < L2
  const double tiled_fit = model.run_seconds(run, 1);
  run.tile_rows = 4096;  // taller than L2: streaming bytes again
  const double tiled_spill = model.run_seconds(run, 1);

  EXPECT_LT(tiled_fit, untiled);
  EXPECT_EQ(tiled_spill, untiled);

  // A machine with no modelled L2 never takes the blocked variant.
  MachineSpec no_l2 = machines::spruce_hybrid();
  no_l2.l2_kb = 0.0;
  const ScalingModel flat(no_l2, mesh, 1);
  run.tile_rows = 4;
  EXPECT_EQ(flat.run_seconds(run, 1), flat.run_seconds([&] {
    SolverRunSummary u = run;
    u.tile_rows = 0;
    return u;
  }(), 1));
}

TEST(TiledModel, SummaryRecordsTileHeightAndResolvesAuto) {
  SolverConfig cfg;
  cfg.type = SolverType::kJacobi;
  cfg.tile_rows = 128;
  SolveStats stats;
  stats.outer_iters = 100;
  EXPECT_EQ(SolverRunSummary::from(cfg, stats, 256).tile_rows, 128);

  // `auto` stays symbolic in the summary and resolves inside the model
  // against the modelled chunk width, like the real engine does.
  cfg.tile_rows = -1;
  SolverRunSummary run = with_outer_iters(fixed_iteration_run(cfg, 2), 100);
  run.mesh_n = 1024;
  EXPECT_EQ(run.tile_rows, -1);
  const GlobalMesh2D mesh(1024, 1024);
  const ScalingModel model(machines::spruce_hybrid(), mesh, 1);
  SolverRunSummary untiled = run;
  untiled.tile_rows = 0;
  // spruce L2 fits the auto-derived block → the blocked variant applies.
  EXPECT_LT(model.run_seconds(run, 1), model.run_seconds(untiled, 1));
}

TEST(TiledModel, AutoResolvesAgainstTheMachineItPrices) {
  // Solves size `auto` for the host; the model keeps sizing it for the
  // machine it prices.  On 4 Spruce nodes the 1024² chunks are 512 wide,
  // where `auto` is 5 rows: the blocked variant, which a 42-row tile (the
  // height a 2 MiB L2 gives) spills out of Spruce's 256 KB.
  SolverConfig cfg;
  cfg.type = SolverType::kJacobi;
  cfg.tile_rows = -1;
  SolverRunSummary run = with_outer_iters(fixed_iteration_run(cfg, 2), 100);
  run.mesh_n = 1024;
  const ScalingModel model(machines::spruce_hybrid(),
                           GlobalMesh2D(1024, 1024), 1);
  const auto priced = [&](int tile_rows) {
    SolverRunSummary r = run;
    r.tile_rows = tile_rows;
    return model.run_seconds(r, 4);
  };
  MachineSpec two_mib = machines::spruce_hybrid();
  two_mib.l2_kb = 2048.0;
  ASSERT_EQ(auto_tile_rows(two_mib, 512, 2), 42);
  EXPECT_EQ(priced(-1), priced(5));
  EXPECT_NE(priced(-1), priced(42));
}

}  // namespace
}  // namespace tealeaf
