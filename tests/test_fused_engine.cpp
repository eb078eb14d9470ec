#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
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
    const double v =
        cl->sum_over_chunks(t, {Kernel::kNorm2}, [](int, const Chunk2D& c) {
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

// ---- tile kernels vs the recurrences written out here --------------------
// The reference loops below are written from the matrix definition in
// ops/kernels.hpp and share no code with the kernels, so they check the
// arithmetic rather than agreement between two uses of one per-row core.
// Their sums associate differently, hence a rounding tolerance.

/// Diagonal of A at (j, k): 1 + the four face coefficients.
double ref_diag(const Chunk2D& c, int j, int k) {
  return 1.0 + c.kx()(j, k) + c.kx()(j + 1, k) + c.ky()(j, k) +
         c.ky()(j, k + 1);
}

/// (A·x)(j, k) on the 5-point stencil.
double ref_apply(const Chunk2D& c, const Field<double>& x, int j, int k) {
  return ref_diag(c, j, k) * x(j, k) - c.kx()(j, k) * x(j - 1, k) -
         c.kx()(j + 1, k) * x(j + 1, k) - c.ky()(j, k) * x(j, k - 1) -
         c.ky()(j, k + 1) * x(j, k + 1);
}

constexpr double kRefTol = 1e-11;

TEST(FusedKernels, ChebyStepMatchesSmvpPlusUpdate) {
  // One Chebyshev step through the tile kernels (one block per chunk, as
  // the engine runs tile_rows = 0) against
  //   w = A·sd;  rtemp −= w;  sd = α·sd + β·M⁻¹·rtemp;  z += sd.
  for (const bool diag : {false, true}) {
    auto a = make_test_problem(28, 2, 3);
    auto b = make_test_problem(28, 2, 3);
    for (auto* cl : {a.get(), b.get()}) {
      cl->allocate({.fp64 = {FieldId::kW, FieldId::kZ, FieldId::kSd,
                             FieldId::kRtemp}});
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
      for (int k = bb.klo; k < bb.khi; ++k)
        for (int j = bb.jlo; j < bb.jhi; ++j)
          c.w()(j, k) = ref_apply(c, c.sd(), j, k);
      for (int k = bb.klo; k < bb.khi; ++k)
        for (int j = bb.jlo; j < bb.jhi; ++j) {
          c.rtemp()(j, k) -= c.w()(j, k);
          const double m_inv = diag ? 1.0 / ref_diag(c, j, k) : 1.0;
          c.sd()(j, k) =
              alpha * c.sd()(j, k) + beta * m_inv * c.rtemp()(j, k);
          c.z()(j, k) += c.sd()(j, k);
        }
    });
    b->for_each_chunk([&](int, Chunk2D& c) {
      const Bounds bb = extended_bounds(c, 2);
      const PreconType precon =
          diag ? PreconType::kJacobiDiag : PreconType::kNone;
      kernels::cheby_step_tile(c, FieldId::kRtemp, FieldId::kSd, FieldId::kZ,
                               alpha, beta, precon, bb, bb);
      kernels::cheby_step_tile_edges(c, FieldId::kRtemp, FieldId::kSd,
                                     FieldId::kZ, alpha, beta, precon, bb, bb);
    });
    for (const FieldId f :
         {FieldId::kRtemp, FieldId::kSd, FieldId::kZ, FieldId::kW}) {
      EXPECT_LT(max_field_diff(*a, *b, f), kRefTol) << "diag=" << diag;
    }
  }
}

TEST(FusedKernels, CalcUrDotMatchesComposedSweeps) {
  // The CG update row kernels (one block per chunk) against
  //   u += α·p;  r −= α·w;  z = M⁻¹r;  Σ r·z
  // — calc_ur_dot_rows for the local preconditioners, and the pointwise
  // cg_calc_ur_rows that block-Jacobi composes with its strip solve.
  for (const PreconType precon :
       {PreconType::kNone, PreconType::kJacobiDiag, PreconType::kJacobiBlock}) {
    auto a = make_test_problem(20, 2, 2);
    auto b = make_test_problem(20, 2, 2);
    for (auto* cl : {a.get(), b.get()}) {
      cl->allocate({.fp64 = {FieldId::kP, FieldId::kR, FieldId::kW,
                             FieldId::kZ, FieldId::kCp, FieldId::kBfp}});
      parallel_region([&](const Team& t) { (void)cg_setup(*cl, precon, t); });
      cl->exchange({FieldId::kP}, 1);
      cl->for_each_chunk([](int, Chunk2D& c) {
        kernels::smvp(c, FieldId::kP, FieldId::kW, interior_bounds(c));
      });
    }
    const double alpha = 0.61;
    const bool block = precon == PreconType::kJacobiBlock;
    double ref = 0.0;
    for (int r = 0; r < a->nranks(); ++r) {
      Chunk2D& c = a->chunk(r);
      for (int k = 0; k < c.ny(); ++k)
        for (int j = 0; j < c.nx(); ++j) {
          c.u()(j, k) += alpha * c.p()(j, k);
          c.r()(j, k) -= alpha * c.w()(j, k);
          if (block) continue;
          if (precon == PreconType::kJacobiDiag) {
            c.z()(j, k) = c.r()(j, k) / ref_diag(c, j, k);
          }
          const double z = precon == PreconType::kNone ? c.r()(j, k)
                                                       : c.z()(j, k);
          ref += c.r()(j, k) * z;
        }
    }
    double got = 0.0;
    parallel_region([&](const Team& t) {
      if (block) {
        b->for_each_tile(
            t, 0, [](int, Chunk2D& c) { return interior_bounds(c); },
            {Kernel::kCalcUr}, [&](int, Chunk2D& c, const Bounds& tb) {
              kernels::cg_calc_ur_rows(c, alpha, tb);
            });
        return;
      }
      const double v = b->sum_rows_over_chunks(
          t, 0, {Kernel::kCalcUrDot}, [&](int, Chunk2D& c, const Bounds& tb) {
            kernels::calc_ur_dot_rows(c, alpha, precon, tb, c.row_scratch());
          });
      t.single([&] { got = v; });
    });
    if (!block) {
      EXPECT_NEAR(got, ref, kRefTol * std::fabs(ref)) << to_string(precon);
      EXPECT_LT(max_field_diff(*a, *b, FieldId::kZ), kRefTol)
          << to_string(precon);
    }
    for (const FieldId f : {FieldId::kU, FieldId::kR}) {
      EXPECT_LT(max_field_diff(*a, *b, f), kRefTol) << to_string(precon);
    }
  }
}

// ---- breakdown reporting ------------------------------------------------

TEST(Breakdown, CgIterationReportsInsteadOfThrowing) {
  auto cl = make_test_problem(16, 2, 2);
  cl->allocate({.fp64 = {FieldId::kP, FieldId::kR, FieldId::kW}});
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

/// After a breakdown u is garbage, so the session's step changes nothing:
/// the energy field stays bit for bit, and the clock and step count stay
/// put — a retry replays the same step.
TEST(Breakdown, BrokenSessionStepLeavesTheSessionAsItWas) {
  SolveSession session(breakdown_deck(), 2);
  const Field<double> before =
      gather_field(session.cluster(), FieldId::kEnergy1);
  const SolveStats st = session.solve();
  ASSERT_TRUE(st.breakdown);
  EXPECT_EQ(session.sim_time(), 0.0);
  EXPECT_EQ(session.solves_taken(), 0);
  const Field<double> after =
      gather_field(session.cluster(), FieldId::kEnergy1);
  long long changed = 0;
  for (int l = 0; l < before.nz(); ++l)
    for (int k = 0; k < before.ny(); ++k)
      for (int j = 0; j < before.nx(); ++j)
        changed += std::bit_cast<std::uint64_t>(before(j, k, l)) !=
                   std::bit_cast<std::uint64_t>(after(j, k, l));
  EXPECT_EQ(changed, 0);
}

}  // namespace
}  // namespace tealeaf
