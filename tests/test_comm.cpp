#include <gtest/gtest.h>

#include <vector>

#include "comm/gather.hpp"
#include "comm/sim_comm.hpp"
#include "server/batch.hpp"
#include "solvers/solver.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace tealeaf {
namespace {

/// Fill a field on every chunk with a function of the *global* cell index
/// so halo correctness can be checked against the analytic value.
void fill_global(SimCluster2D& cl, FieldId id, double scale = 1.0) {
  cl.for_each_chunk([&](int, Chunk2D& c) {
    auto& f = c.field(id);
    f.fill(-999.0);  // poison halos so stale reads are caught
    for (int k = 0; k < c.ny(); ++k)
      for (int j = 0; j < c.nx(); ++j)
        f(j, k) = scale * (1000.0 * (c.extent().y0 + k) +
                           (c.extent().x0 + j));
  });
}

double expected_global(const Chunk2D& c, int j, int k, double scale = 1.0) {
  return scale *
         (1000.0 * (c.extent().y0 + k) + (c.extent().x0 + j));
}

class ExchangeTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ExchangeTest, HaloMatchesGlobalFunctionEverywhere) {
  const auto [nranks, depth] = GetParam();
  const GlobalMesh2D mesh(48, 48);
  SimCluster2D cl(mesh, nranks, depth);
  fill_global(cl, FieldId::kU);
  cl.exchange({FieldId::kU}, depth);

  for (int r = 0; r < cl.nranks(); ++r) {
    const Chunk2D& c = cl.chunk(r);
    const auto& f = c.field(FieldId::kU);
    // Every halo cell that lies inside the physical domain must hold the
    // neighbour's value, including corner cells (two-phase propagation).
    for (int k = -depth; k < c.ny() + depth; ++k) {
      for (int j = -depth; j < c.nx() + depth; ++j) {
        const int gj = c.extent().x0 + j;
        const int gk = c.extent().y0 + k;
        if (gj < 0 || gj >= mesh.nx || gk < 0 || gk >= mesh.ny) continue;
        EXPECT_DOUBLE_EQ(f(j, k), expected_global(c, j, k))
            << "rank " << r << " cell (" << j << "," << k << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DepthsAndDecompositions, ExchangeTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 6, 9, 16),
                       ::testing::Values(1, 2, 3, 8)),
    [](const auto& info) {
      return "ranks" + std::to_string(std::get<0>(info.param)) + "_depth" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Exchange, MultipleFieldsTravelTogether) {
  const GlobalMesh2D mesh(24, 24);
  SimCluster2D cl(mesh, 4, 2);
  cl.allocate({.fp64 = {FieldId::kP, FieldId::kSd}});
  fill_global(cl, FieldId::kP, 1.0);
  fill_global(cl, FieldId::kSd, 3.0);
  cl.exchange({FieldId::kP, FieldId::kSd}, 2);
  const Chunk2D& c = cl.chunk(0);  // bottom-left chunk; right halo valid
  EXPECT_DOUBLE_EQ(c.field(FieldId::kP)(c.nx(), 0),
                   expected_global(c, c.nx(), 0, 1.0));
  EXPECT_DOUBLE_EQ(c.field(FieldId::kSd)(c.nx(), 0),
                   expected_global(c, c.nx(), 0, 3.0));
  // One exchange call, messages count fields once (packed together).
  EXPECT_EQ(cl.stats().exchange_calls, 1);
}

TEST(Exchange, MessageAndByteAccounting2x2) {
  const GlobalMesh2D mesh(16, 16);
  SimCluster2D cl(mesh, 4, 2);  // 2x2 ranks, 8x8 chunks
  cl.exchange({FieldId::kU}, 2);
  // Each rank has exactly one x-neighbour and one y-neighbour.
  EXPECT_EQ(cl.stats().messages, 8);
  // x message: depth·ny·8 = 2*8*8 = 128 B.  y rows carry corner columns
  // only toward the single x-neighbour (the other side is the physical
  // boundary and holds no exchanged data): depth·(nx+d)·8 = 2*10*8 = 160.
  EXPECT_EQ(cl.stats().message_bytes, 4 * 128 + 4 * 160);
  EXPECT_EQ(cl.stats().exchange_calls, 1);
  ASSERT_EQ(cl.trace().exchanges.size(), 1u);
  EXPECT_EQ(cl.trace().exchanges[0].depth, 2);
}

TEST(Exchange, ColumnDecompositionChargesNoCornerColumns) {
  // N×1 process grid (tall mesh → 1-wide column of ranks): every rank is
  // at both physical x-boundaries, so y rows must be charged at exactly
  // nx cells — the pre-fix accounting overcounted 2·depth per row.
  const GlobalMesh2D mesh(8, 40);
  SimCluster2D cl(mesh, 4, 2);  // 1x4 grid, 8x10 chunks
  ASSERT_EQ(cl.decomposition().px(), 1);
  ASSERT_EQ(cl.decomposition().py(), 4);
  cl.exchange({FieldId::kU}, 2);
  // 2 end ranks × 1 message + 2 middle ranks × 2 messages, no x traffic.
  EXPECT_EQ(cl.stats().messages, 6);
  EXPECT_EQ(cl.stats().message_bytes, 6 * 2 * 8 * 8);  // depth·nx·8 each
}

TEST(Exchange, RowDecompositionHasNoYTraffic) {
  // 1×N process grid: only x messages, each depth·ny·8 bytes; physical
  // top/bottom boundaries generate no messages at all.
  const GlobalMesh2D mesh(40, 8);
  SimCluster2D cl(mesh, 4, 3);  // 4x1 grid, 10x8 chunks
  ASSERT_EQ(cl.decomposition().px(), 4);
  ASSERT_EQ(cl.decomposition().py(), 1);
  cl.exchange({FieldId::kU}, 3);
  EXPECT_EQ(cl.stats().messages, 6);
  EXPECT_EQ(cl.stats().message_bytes, 6 * 3 * 8 * 8);  // depth·ny·8 each
}

TEST(Exchange, InteriorRanksStillChargeBothCorners) {
  // 3×3 grid: the centre rank has all four neighbours; its y rows carry
  // both corner blocks, so the per-rank y payload is depth·(nx+2d)·8.
  const GlobalMesh2D mesh(12, 12);
  SimCluster2D cl(mesh, 9, 2);  // 3x3 grid, 4x4 chunks
  ASSERT_EQ(cl.decomposition().px(), 3);
  cl.exchange({FieldId::kU}, 1);
  // x: 12 messages of 1·4·8 = 32 B.  y: 12 messages; rows of the left and
  // right process columns carry one corner (4+1 cells), the centre column
  // carries two (4+2 cells).
  const std::int64_t x_bytes = 12 * 32;
  const std::int64_t y_bytes = 8 * (4 + 1) * 8 + 4 * (4 + 2) * 8;
  EXPECT_EQ(cl.stats().messages, 24);
  EXPECT_EQ(cl.stats().message_bytes, x_bytes + y_bytes);
}

TEST(Exchange, DepthGreaterThanAllocationThrows) {
  const GlobalMesh2D mesh(16, 16);
  SimCluster2D cl(mesh, 4, 2);
  EXPECT_THROW(cl.exchange({FieldId::kU}, 3), TeaError);
}

TEST(Reduce, SumOverChunksCountsOneReduction) {
  const GlobalMesh2D mesh(12, 12);
  SimCluster2D cl(mesh, 9, 1);
  const double total = cl.sum_over_chunks(
      [](int, const Chunk2D& c) { return 1.0 * c.nx() * c.ny(); });
  EXPECT_DOUBLE_EQ(total, 144.0);
  EXPECT_EQ(cl.stats().reductions, 1);
}

TEST(GatherScatter, RoundTripsThroughGlobalView) {
  const GlobalMesh2D mesh(20, 14);
  SimCluster2D cl(mesh, 6, 1);
  Field2D<double> global(20, 14, 0);
  for (int k = 0; k < 14; ++k)
    for (int j = 0; j < 20; ++j) global(j, k) = j * 0.5 + k * 7.0;
  scatter_field(cl, FieldId::kEnergy1, global);
  const Field2D<double> back = gather_field(cl, FieldId::kEnergy1);
  for (int k = 0; k < 14; ++k)
    for (int j = 0; j < 20; ++j)
      EXPECT_DOUBLE_EQ(back(j, k), global(j, k));
}

TEST(Stats, ResetClearsEverything) {
  const GlobalMesh2D mesh(16, 16);
  SimCluster2D cl(mesh, 4, 1);
  cl.exchange({FieldId::kU}, 1);
  EXPECT_EQ(cl.sum_over_chunks([](int, const Chunk2D&) { return 0.0; }), 0.0);
  EXPECT_EQ(cl.stats().reductions, 1);
  cl.reset_stats();
  EXPECT_EQ(cl.stats().messages, 0);
  EXPECT_EQ(cl.stats().reductions, 0);
  EXPECT_EQ(cl.stats().exchange_calls, 0);
}

TEST(SimCluster, StandaloneForEachChunkRethrowsAfterItsRegion) {
  // A standalone body's throw is caught per rank, so the other ranks run
  // and the caller gets the error instead of the process ending.
  SimCluster cl(GlobalMesh(32, 32), 4, 1);
  std::vector<int> ran(4, 0);
  EXPECT_THROW(cl.for_each_chunk([&](int r, Chunk&) {
    ran[static_cast<std::size_t>(r)] = 1;
    TEA_REQUIRE(r != 2, "rank 2 refuses");
  }),
               TeaError);
  EXPECT_EQ(ran, std::vector<int>(4, 1));
  // Activating an fp32 bank the chunks do not hold is such a throw.
  EXPECT_THROW(cl.for_each_chunk([](int, Chunk& c) {
    c.set_fp32_active(true);
  }),
               TeaError);
  EXPECT_FALSE(cl.chunk(0).fp32_active());
}

TEST(SimCluster, AllocationFailureIsATeaErrorNotTerminate) {
  // The chunks are built inside the first-touch region, and the fields a
  // solve adds in a region of their own; an allocation failure there must
  // reach the caller as a TeaError naming the mesh.
#if !TEALEAF_TEST_LIMITS_MEMORY
  GTEST_SKIP() << "needs RLIMIT_DATA, and ASan aborts oversize allocations "
                  "instead of throwing";
#else
  testing::run_in_own_process([] {
    parallel_region([](Team&) {});  // start the team before the limit
    std::string built;
    {
      const testing::MemoryLimit limit(std::size_t{4} << 30);
      try {
        SimCluster cl(GlobalMesh(40000, 40000), 1, 1);  // 12.8 GB a field
      } catch (const TeaError& e) {
        built = e.what();
      }
    }
    SimCluster cl(GlobalMesh(1000, 1000), 2, 1);  // 4 MB a field a rank
    std::string grown;
    {
      const testing::MemoryLimit limit(std::size_t{1} << 20);
      try {
        cl.allocate({.fp64 = {FieldId::kP}});
      } catch (const TeaError& e) {
        grown = e.what();
      }
    }
    // The fields the chunks held are untouched, and p stays unallocated.
    for (int r = 0; r < cl.nranks(); ++r) {
      EXPECT_EQ(cl.chunk(r).allocated().fp64, Chunk::base_fields(2));
      EXPECT_EQ(cl.chunk(r).field(FieldId::kP).size(), 0u);
    }
    EXPECT_NE(built.find("cannot allocate the 40000x40000 mesh on 1 rank"),
              std::string::npos)
        << built;
    EXPECT_NE(grown.find("cannot allocate the 1000x1000 mesh on 2 ranks"),
              std::string::npos)
        << grown;
  });
#endif
}

// ---- team width ----------------------------------------------------------

/// A 64² mesh has one thread's worth of cells: at a default of four
/// threads its solve runs on one, and the result is bitwise the solve
/// pinned to four.
TEST(TeamWidth, SmallSolveRunsOneThreadBitwiseEqualToPinned) {
#if defined(TEALEAF_HAVE_OPENMP)
  const testing::DefaultThreads four(4);
  SolverConfig cfg;
  cfg.type = SolverType::kCG;
  cfg.eps = 1e-10;
  auto sized = testing::make_test_problem(64, 2, 1);
  auto pinned = testing::make_test_problem(64, 2, 1);
  EXPECT_EQ(sized->team_width(), 1);
  const SolveStats one = run_solver(*sized, cfg);
  const SolveStats st = [&] {
    const ThreadScope pin(4);
    EXPECT_EQ(pinned->team_width(), 4);
    return run_solver(*pinned, cfg);
  }();
  ASSERT_TRUE(one.converged);
  EXPECT_EQ(one.threads, 1);
  EXPECT_EQ(st.threads, 4);
  EXPECT_EQ(one.outer_iters, st.outer_iters);
  EXPECT_EQ(one.final_norm, st.final_norm);
  EXPECT_EQ(testing::max_field_diff(*sized, *pinned, FieldId::kU), 0.0);
#else
  GTEST_SKIP() << "OpenMP disabled: every team has one thread";
#endif
}

/// The width is a function of the cells alone: a 1024² shape takes the
/// cap, and a shape just under two threads' cells takes one, with no mesh
/// allocated.
TEST(TeamWidth, FollowsTheCellsUpToTheCap) {
#if defined(TEALEAF_HAVE_OPENMP)
  const testing::DefaultThreads three(3);
  EXPECT_EQ(team_width(GlobalMesh(1024, 1024).cell_count()), 3);
  EXPECT_EQ(team_width(GlobalMesh(96, 96).cell_count()), 2);
  EXPECT_EQ(team_width(2 * kCellsPerThread - 1), 1);
  EXPECT_EQ(team_width(0), 1);
  const ThreadScope pin(5);
  EXPECT_EQ(team_width(GlobalMesh(16, 16).cell_count()), 5);
#else
  EXPECT_EQ(team_width(GlobalMesh(1024, 1024).cell_count()), 1);
#endif
}

/// A batch region runs the threads its items can use: two small items at a
/// default of four threads run as two one-thread sub-teams.
TEST(TeamWidth, BatchOfTwoSmallItemsRunsTwoOneThreadSubTeams) {
#if defined(TEALEAF_HAVE_OPENMP)
  const testing::DefaultThreads four(4);
  SolverConfig cfg;
  cfg.type = SolverType::kCG;
  cfg.eps = 1e-10;
  auto a = testing::make_test_problem(24, 2, 1);
  auto b = testing::make_test_problem(24, 2, 1, 4.0);
  std::vector<BatchItem> items = {{a.get(), cfg, {}}, {b.get(), cfg, {}}};
  solve_batched(items);
  for (const BatchItem& it : items) {
    EXPECT_TRUE(it.stats.converged);
    EXPECT_EQ(it.stats.threads, 1);
  }
#else
  GTEST_SKIP() << "OpenMP disabled: every team has one thread";
#endif
}

/// Barrier episodes per CG iteration at three pinned threads on two
/// ranks: the one split axis of the exchange and its exit (2), and one
/// barrier for each of the two reductions — plus, where a rank runs
/// several tiles on a team wider than the ranks, the barrier before each
/// fold.  Set-up adds the u exchange (2) and the first reduction (1).
TEST(TeamWidth, BarrierEpisodesPerCgIteration) {
#if defined(TEALEAF_HAVE_OPENMP)
  const ThreadScope three(3);
  SolverConfig cfg;
  cfg.type = SolverType::kCG;
  cfg.eps = 1e-10;
  cfg.tile_rows = 0;
  // 2-D: one tile a rank, so the folds need no barrier.
  auto flat = testing::make_test_problem(64, 2, 1);
  const SolveStats st2 = run_solver(*flat, cfg);
  ASSERT_TRUE(st2.converged);
  EXPECT_EQ(flat->stats().barriers, 4 * st2.spmv_applies - 1);
  // 3-D: a tile a plane, so each fold waits on a barrier.
  auto brick = testing::make_test_problem_3d(16, 2, 1);
  const SolveStats st3 = run_solver(*brick, cfg);
  ASSERT_TRUE(st3.converged);
  EXPECT_EQ(brick->stats().barriers, 6 * st3.spmv_applies - 3);
#else
  GTEST_SKIP() << "OpenMP disabled: the team never exceeds one thread";
#endif
}

}  // namespace
}  // namespace tealeaf
