#include <gtest/gtest.h>

#include <vector>

#include "driver/decks.hpp"
#include "driver/tealeaf_app.hpp"
#include "ops/kernels.hpp"
#include "solvers/cg.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace tealeaf {
namespace {

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
    const double v = cl->sum_over_chunks(t, [](int, const Chunk2D& c) {
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
    b->exchange(t, {FieldId::kU, FieldId::kDensity}, 3);
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
      parallel_region([&](const Team& t) { (void)cg_setup(*cl, precon, t); });
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

// ---- breakdown reporting ------------------------------------------------

TEST(Breakdown, CgIterationReportsInsteadOfThrowing) {
  auto cl = make_test_problem(16, 2, 2);
  double rro = 0.0;
  parallel_region([&](const Team& t) {
    const double v = cg_setup(*cl, PreconType::kNone, t);
    t.single([&] { rro = v; });
  });
  ASSERT_GT(rro, 0.0);
  // Doctor the state: p = 0 makes ⟨p, A·p⟩ = 0, the classic breakdown.
  cl->for_each_chunk([](int, Chunk2D& c) {
    c.p().fill(0.0);
  });
  bool broke = false;
  double rrn = 0.0;
  parallel_region([&](const Team& t) {
    bool b = false;
    const double v = cg_iteration(*cl, PreconType::kNone, rro, nullptr, b, t);
    t.single([&] {
      broke = b;
      rrn = v;
    });
  });
  EXPECT_TRUE(broke);
  EXPECT_EQ(rrn, rro);  // state untouched, metric handed back
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
  TeaLeafApp app(breakdown_deck(), 2);
  const SolveStats st = app.step();
  EXPECT_TRUE(st.breakdown);
  EXPECT_FALSE(st.converged);
  EXPECT_FALSE(st.breakdown_reason.empty());
  // Breakdown is detected within a few outer iterations, not after
  // burning the whole iteration budget on a diverging solve.
  EXPECT_LT(st.outer_iters - st.eigen_cg_iters, 10);
}

}  // namespace
}  // namespace tealeaf
