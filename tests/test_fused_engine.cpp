#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "driver/decks.hpp"
#include "driver/tealeaf_app.hpp"
#include "ops/kernels.hpp"
#include "solvers/cg.hpp"
#include "solvers/solver.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace tealeaf {
namespace {

using testing::install_operator;
using testing::make_test_problem;
using testing::max_field_diff;

// ---- Team / parallel_region primitives ----------------------------------

TEST(Team, ForRangeCoversEveryIndexExactlyOnce) {
  const int n = 1237;
  std::vector<int> hits(n, 0);
  parallel_region([&](Team& t) {
    ASSERT_GE(t.num_threads(), 1);
    ASSERT_LT(t.thread_id(), t.num_threads());
    t.for_range(0, n, [&](std::int64_t i) { ++hits[i]; });
  });
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(Team, ForRangeMappingIsStableAcrossCalls) {
  // The same range must land on the same thread every call — the property
  // NUMA first-touch placement relies on.
  const int n = 57;
  std::vector<int> owner_a(n, -1), owner_b(n, -1);
  parallel_region([&](Team& t) {
    t.for_range(0, n, [&](std::int64_t i) { owner_a[i] = t.thread_id(); });
    t.barrier();
    t.for_range(0, n, [&](std::int64_t i) { owner_b[i] = t.thread_id(); });
  });
  EXPECT_EQ(owner_a, owner_b);
}

TEST(Team, BarrierOrdersPhases) {
  const int n = 512;
  std::vector<double> a(n, 0.0), b(n, 0.0);
  parallel_region([&](Team& t) {
    t.for_range(0, n, [&](std::int64_t i) { a[i] = 2.0 * i; });
    t.barrier();
    // Reversed read: almost always crosses thread-block boundaries.
    t.for_range(0, n, [&](std::int64_t i) { b[i] = a[n - 1 - i]; });
  });
  for (int i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(b[i], 2.0 * (n - 1 - i));
  }
}

TEST(Team, SingleRunsOnThreadZeroOnly) {
  int runs = 0;
  parallel_region([&](Team& t) {
    t.single([&] { ++runs; });
    t.barrier();
  });
  EXPECT_EQ(runs, 1);
}

TEST(TeamCluster, SumOverChunksMatchesStandaloneBitwise) {
  auto cl = make_test_problem(24, 5, 2);
  const double serial = cl->sum_over_chunks(
      [](int, const Chunk2D& c) { return kernels::norm2_sq(c, FieldId::kU); });
  cl->reset_stats();
  double team_total = 0.0;
  parallel_region([&](Team& t) {
    const double v = cl->sum_over_chunks(&t, [](int, const Chunk2D& c) {
      return kernels::norm2_sq(c, FieldId::kU);
    });
    t.single([&] { team_total = v; });
  });
  EXPECT_EQ(team_total, serial);  // rank-ordered partials: bitwise equal
  EXPECT_EQ(cl->stats().reductions, 1);
}

TEST(TeamCluster, TeamExchangeMatchesStandalone) {
  auto a = make_test_problem(32, 6, 3);
  auto b = make_test_problem(32, 6, 3);
  a->exchange({FieldId::kU, FieldId::kDensity}, 3);
  parallel_region([&](Team& t) {
    b->exchange(&t, {FieldId::kU, FieldId::kDensity}, 3);
  });
  for (int r = 0; r < a->nranks(); ++r) {
    const Chunk2D& ca = a->chunk(r);
    const Chunk2D& cb = b->chunk(r);
    for (int k = -3; k < ca.ny() + 3; ++k) {
      for (int j = -3; j < ca.nx() + 3; ++j) {
        ASSERT_EQ(ca.u()(j, k), cb.u()(j, k)) << r << " " << j << " " << k;
      }
    }
  }
  EXPECT_EQ(a->stats().messages, b->stats().messages);
  EXPECT_EQ(a->stats().message_bytes, b->stats().message_bytes);
  EXPECT_EQ(a->stats().exchange_calls, b->stats().exchange_calls);
}

// ---- fused kernels: single-pass vs composed sweeps ----------------------

TEST(FusedKernels, ChebyStepMatchesSmvpPlusUpdate) {
  for (const bool diag : {false, true}) {
    auto a = make_test_problem(28, 2, 3);
    auto b = make_test_problem(28, 2, 3);
    for (auto* cl : {a.get(), b.get()}) {
      cl->for_each_chunk([](int r, Chunk2D& c) {
        for (int k = -3; k < c.ny() + 3; ++k)
          for (int j = -3; j < c.nx() + 3; ++j) {
            c.sd()(j, k) = 0.01 * (j + 2 * k) + r;
            c.rtemp()(j, k) = 0.5 - 0.003 * j * k;
            c.z()(j, k) = 0.25 * j;
          }
      });
    }
    const double alpha = 0.37, beta = 1.21;
    a->for_each_chunk([&](int, Chunk2D& c) {
      const Bounds bb = extended_bounds(c, 2);
      kernels::smvp(c, FieldId::kSd, FieldId::kW, bb);
      kernels::cheby_fused_update(c, FieldId::kRtemp, FieldId::kSd,
                                  FieldId::kZ, alpha, beta, diag, bb);
    });
    b->for_each_chunk([&](int, Chunk2D& c) {
      kernels::cheby_step(c, FieldId::kRtemp, FieldId::kSd, FieldId::kZ,
                          alpha, beta, diag, extended_bounds(c, 2));
    });
    for (const FieldId f :
         {FieldId::kRtemp, FieldId::kSd, FieldId::kZ, FieldId::kW}) {
      EXPECT_EQ(max_field_diff(*a, *b, f), 0.0) << "diag=" << diag;
    }
  }
}

TEST(FusedKernels, CalcUrDotMatchesComposedSweeps) {
  for (const PreconType precon :
       {PreconType::kNone, PreconType::kJacobiDiag, PreconType::kJacobiBlock}) {
    auto a = make_test_problem(20, 2, 2);
    auto b = make_test_problem(20, 2, 2);
    for (auto* cl : {a.get(), b.get()}) {
      cg_setup(*cl, precon);
      cl->exchange({FieldId::kP}, 1);
      cl->for_each_chunk([](int, Chunk2D& c) {
        kernels::smvp(c, FieldId::kP, FieldId::kW, interior_bounds(c));
      });
    }
    const double alpha = 0.61;
    const double unfused = a->sum_over_chunks([&](int, Chunk2D& c) {
      kernels::cg_calc_ur(c, alpha);
      if (precon == PreconType::kNone) {
        return kernels::norm2_sq(c, FieldId::kR);
      }
      kernels::apply_preconditioner(c, precon, FieldId::kR, FieldId::kZ);
      return kernels::dot(c, FieldId::kR, FieldId::kZ);
    });
    const double fused = b->sum_over_chunks([&](int, Chunk2D& c) {
      return kernels::calc_ur_dot(c, alpha, precon);
    });
    EXPECT_EQ(fused, unfused) << to_string(precon);
    for (const FieldId f : {FieldId::kU, FieldId::kR}) {
      EXPECT_EQ(max_field_diff(*a, *b, f), 0.0) << to_string(precon);
    }
  }
}

// ---- fused vs unfused whole-solver property test ------------------------

struct EngineCase {
  SolverType type;
  PreconType precon;
  int halo_depth;
  bool chrono;  // fuse_cg_reductions (CG only)
  // Both configs share the operator kind, so assembled cases check the
  // fused ≡ unfused contract on the CSR / SELL-C-σ SpMV paths too.
  OperatorKind op = OperatorKind::kStencil;
};

class FusedEngineEquivalence : public ::testing::TestWithParam<EngineCase> {};

TEST_P(FusedEngineEquivalence, SameIterationsResidualsAndCommStats) {
  const EngineCase ec = GetParam();
  SolverConfig cfg;
  cfg.type = ec.type;
  cfg.precon = ec.precon;
  cfg.halo_depth = ec.halo_depth;
  cfg.fuse_cg_reductions = ec.chrono;
  cfg.op = ec.op;
  cfg.eps = (ec.type == SolverType::kJacobi) ? 1e-5 : 1e-10;
  cfg.max_iters = (ec.type == SolverType::kJacobi) ? 100000 : 10000;
  // The unfused, untiled baseline, named explicitly: the defaults are the
  // fused schedule with auto tiles.
  cfg.fuse_kernels = false;
  cfg.tile_rows = 0;

  auto a = make_test_problem(32, 4, std::max(2, ec.halo_depth), 8.0);
  auto b = make_test_problem(32, 4, std::max(2, ec.halo_depth), 8.0);
  install_operator(*a, ec.op);
  install_operator(*b, ec.op);
  SolverConfig fused_cfg = cfg;
  fused_cfg.fuse_kernels = true;
  const SolveStats su = run_solver(*a, cfg);
  const SolveStats sf = run_solver(*b, fused_cfg);

  ASSERT_TRUE(su.converged);
  ASSERT_TRUE(sf.converged);
  // The fused engine reorders nothing: per-rank kernels do the same
  // per-cell arithmetic in the same order and reductions sum the same
  // rank-ordered partials, so iteration counts must match exactly and
  // residuals to a tight ULP tolerance.
  EXPECT_EQ(sf.outer_iters, su.outer_iters);
  EXPECT_EQ(sf.inner_steps, su.inner_steps);
  EXPECT_EQ(sf.spmv_applies, su.spmv_applies);
  EXPECT_EQ(sf.eigen_cg_iters, su.eigen_cg_iters);
  EXPECT_NEAR(sf.final_norm, su.final_norm,
              4e-15 * std::max(1.0, su.final_norm));
  EXPECT_NEAR(sf.initial_norm, su.initial_norm, 4e-15 * su.initial_norm);
  const double uscale = std::fabs(a->chunk(0).u()(0, 0)) + 1.0;
  EXPECT_LT(max_field_diff(*a, *b, FieldId::kU), 1e-12 * uscale);

  // Same communication: the engine changes where the fork/join happens,
  // not what travels.
  EXPECT_EQ(a->stats().exchange_calls, b->stats().exchange_calls);
  EXPECT_EQ(a->stats().messages, b->stats().messages);
  EXPECT_EQ(a->stats().message_bytes, b->stats().message_bytes);
  EXPECT_EQ(a->stats().reductions, b->stats().reductions);
}

INSTANTIATE_TEST_SUITE_P(
    AllSolversAndPrecons, FusedEngineEquivalence,
    ::testing::Values(
        EngineCase{SolverType::kJacobi, PreconType::kNone, 1, false},
        EngineCase{SolverType::kCG, PreconType::kNone, 1, false},
        EngineCase{SolverType::kCG, PreconType::kJacobiDiag, 1, false},
        EngineCase{SolverType::kCG, PreconType::kJacobiBlock, 1, false},
        EngineCase{SolverType::kCG, PreconType::kNone, 1, true},
        EngineCase{SolverType::kCG, PreconType::kJacobiDiag, 1, true},
        EngineCase{SolverType::kCG, PreconType::kJacobiBlock, 1, true},
        EngineCase{SolverType::kChebyshev, PreconType::kNone, 1, false},
        EngineCase{SolverType::kChebyshev, PreconType::kJacobiDiag, 1, false},
        EngineCase{SolverType::kChebyshev, PreconType::kJacobiBlock, 1,
                   false},
        EngineCase{SolverType::kPPCG, PreconType::kNone, 1, false},
        EngineCase{SolverType::kPPCG, PreconType::kJacobiDiag, 1, false},
        EngineCase{SolverType::kPPCG, PreconType::kJacobiBlock, 1, false},
        EngineCase{SolverType::kPPCG, PreconType::kNone, 4, false},
        EngineCase{SolverType::kPPCG, PreconType::kJacobiDiag, 4, false},
        // Assembled operators (CSR / SELL-C-σ, halo depth 1 by contract):
        // the same fused ≡ unfused guarantee holds on the SpMV-from-matrix
        // paths for every solver family and preconditioner.
        EngineCase{SolverType::kJacobi, PreconType::kNone, 1, false,
                   OperatorKind::kCsr},
        EngineCase{SolverType::kCG, PreconType::kNone, 1, false,
                   OperatorKind::kCsr},
        EngineCase{SolverType::kCG, PreconType::kJacobiBlock, 1, false,
                   OperatorKind::kCsr},
        EngineCase{SolverType::kCG, PreconType::kJacobiDiag, 1, true,
                   OperatorKind::kCsr},
        EngineCase{SolverType::kChebyshev, PreconType::kJacobiDiag, 1, false,
                   OperatorKind::kCsr},
        EngineCase{SolverType::kPPCG, PreconType::kNone, 1, false,
                   OperatorKind::kCsr},
        EngineCase{SolverType::kCG, PreconType::kNone, 1, false,
                   OperatorKind::kSellCSigma},
        EngineCase{SolverType::kCG, PreconType::kJacobiBlock, 1, false,
                   OperatorKind::kSellCSigma},
        EngineCase{SolverType::kChebyshev, PreconType::kNone, 1, false,
                   OperatorKind::kSellCSigma},
        EngineCase{SolverType::kPPCG, PreconType::kJacobiDiag, 1, false,
                   OperatorKind::kSellCSigma}),
    [](const auto& info) {
      const EngineCase& ec = info.param;
      std::string name = std::string(to_string(ec.type)) + "_" +
                         to_string(ec.precon) + "_d" +
                         std::to_string(ec.halo_depth);
      if (ec.chrono) name += "_chrono";
      if (ec.op == OperatorKind::kCsr) name += "_csr";
      if (ec.op == OperatorKind::kSellCSigma) name += "_sell";
      return name;
    });

// ---- breakdown reporting ------------------------------------------------

TEST(Breakdown, CgIterationReportsInsteadOfThrowingWhenFlagged) {
  auto cl = make_test_problem(16, 2, 2);
  const double rro = cg_setup(*cl, PreconType::kNone);
  ASSERT_GT(rro, 0.0);
  // Doctor the state: p = 0 makes ⟨p, A·p⟩ = 0, the classic breakdown.
  cl->for_each_chunk([](int, Chunk2D& c) {
    c.p().fill(0.0);
  });
  bool broke = false;
  const double rrn =
      cg_iteration(*cl, PreconType::kNone, rro, nullptr, &broke);
  EXPECT_TRUE(broke);
  EXPECT_EQ(rrn, rro);  // state untouched, metric handed back

  // Without the flag the contract-violation behaviour is preserved.
  cl->for_each_chunk([](int, Chunk2D& c) { c.p().fill(0.0); });
  EXPECT_THROW(cg_iteration(*cl, PreconType::kNone, rro, nullptr), TeaError);
}

/// PPCG configuration that reliably breaks down: two eigenvalue presteps
/// grossly underestimate the spectrum of a stiff problem, and an odd
/// polynomial degree makes the Chebyshev preconditioner negative beyond
/// the estimated window, so ⟨r, M⁻¹r⟩ goes negative within a couple of
/// outer iterations.
InputDeck breakdown_deck() {
  InputDeck deck = decks::crooked_pipe(32, 1);
  deck.initial_timestep *= 1000.0;
  deck.solver.type = SolverType::kPPCG;
  deck.solver.eigen_cg_iters = 2;
  deck.solver.inner_steps = 11;
  deck.solver.eps = 1e-10;
  deck.solver.max_iters = 200;
  return deck;
}

TEST(Breakdown, PPCGReportsIndefinitePolynomialPreconditioner) {
  for (const bool fused : {false, true}) {
    InputDeck deck = breakdown_deck();
    deck.solver.fuse_kernels = fused;
    TeaLeafApp app(deck, 2);
    const SolveStats st = app.step();
    EXPECT_TRUE(st.breakdown) << "fused=" << fused;
    EXPECT_FALSE(st.converged) << "fused=" << fused;
    EXPECT_FALSE(st.breakdown_reason.empty()) << "fused=" << fused;
    // Breakdown is detected within a few outer iterations, not after
    // burning the whole iteration budget on a diverging solve.
    EXPECT_LT(st.outer_iters - st.eigen_cg_iters, 10) << "fused=" << fused;
  }
}

}  // namespace
}  // namespace tealeaf
