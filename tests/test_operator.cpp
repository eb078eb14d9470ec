// The OperatorView contract: the assembled CSR / SELL-C-σ operators are
// alternative representations of the SAME linear operator the matrix-free
// stencil applies, and a matrix assembled from the stencil must reproduce
// the matrix-free solve bit for bit — same iteration counts, same residual
// norms, identical solution fields — in 2-D and 3-D, for every solver
// family and preconditioner.  Plus: the Matrix Market entry path (reader
// validation, round trip, triplet→CSR layout), the deck/sweep/server
// surface of the ninth design-space axis, and the scaling model's
// nnz-priced SpMV traffic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>
#include <string>
#include <vector>

#include "api/solve_api.hpp"
#include "driver/deck.hpp"
#include "driver/decks.hpp"
#include "driver/sweep.hpp"
#include "io/matrix_market.hpp"
#include "model/machine.hpp"
#include "model/scaling.hpp"
#include "model/trace.hpp"
#include "ops/sparse_matrix.hpp"
#include "server/routing.hpp"
#include "server/solve_server.hpp"
#include "solvers/solver.hpp"
#include "test_helpers.hpp"

namespace tealeaf {
namespace {

using testing::install_operator;
using testing::make_test_problem;
using testing::make_test_problem_3d;
using testing::max_field_diff;

// ---- assembled ≡ matrix-free, whole-solver, both dimensions --------------

struct OpCase {
  SolverType type;
  PreconType precon;
  int dims;
};

class AssembledEquivalence : public ::testing::TestWithParam<OpCase> {};

TEST_P(AssembledEquivalence, BitwiseIdenticalToStencilSolve) {
  const OpCase oc = GetParam();
  SolverConfig cfg;
  cfg.type = oc.type;
  cfg.precon = oc.precon;
  cfg.eps = (oc.type == SolverType::kJacobi) ? 1e-5 : 1e-10;
  cfg.max_iters = (oc.type == SolverType::kJacobi) ? 100000 : 10000;

  const auto make = [&] {
    return oc.dims == 3 ? make_test_problem_3d(12, 2, 2, 4.0)
                        : make_test_problem(32, 4, 2, 8.0);
  };
  auto ref = make();
  const SolveStats ss = run_solver(*ref, cfg);
  ASSERT_TRUE(ss.converged);
  EXPECT_EQ(ss.nnz_per_row, 0.0);  // stencil runs carry no fill

  for (const OperatorKind op :
       {OperatorKind::kCsr, OperatorKind::kSellCSigma}) {
    auto cl = make();
    install_operator(*cl, op);
    SolverConfig acfg = cfg;
    acfg.op = op;
    const SolveStats sa = run_solver(*cl, acfg);
    ASSERT_TRUE(sa.converged) << to_string(op);
    // The assembled matrix stores the stencil's own values in the
    // stencil's own accumulation order (signed off-diagonals, boundary
    // zeros kept, pairwise grouping) — nothing may differ, not even ULPs.
    EXPECT_EQ(sa.outer_iters, ss.outer_iters) << to_string(op);
    EXPECT_EQ(sa.inner_steps, ss.inner_steps) << to_string(op);
    EXPECT_EQ(sa.eigen_cg_iters, ss.eigen_cg_iters) << to_string(op);
    EXPECT_EQ(sa.initial_norm, ss.initial_norm) << to_string(op);
    EXPECT_EQ(sa.final_norm, ss.final_norm) << to_string(op);
    EXPECT_EQ(max_field_diff(*ref, *cl, FieldId::kU), 0.0) << to_string(op);
    // Fill of the kept-zero stencil assembly is exactly the stencil arity.
    EXPECT_EQ(sa.nnz_per_row, oc.dims == 3 ? 7.0 : 5.0) << to_string(op);
    // Identical data motion: SpMV gathers through the same halo cells.
    EXPECT_EQ(cl->stats().message_bytes, ref->stats().message_bytes)
        << to_string(op);
    EXPECT_EQ(cl->stats().reductions, ref->stats().reductions)
        << to_string(op);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSolversPreconsAndDims, AssembledEquivalence,
    ::testing::Values(
        OpCase{SolverType::kJacobi, PreconType::kNone, 2},
        OpCase{SolverType::kCG, PreconType::kNone, 2},
        OpCase{SolverType::kCG, PreconType::kJacobiDiag, 2},
        OpCase{SolverType::kCG, PreconType::kJacobiBlock, 2},
        OpCase{SolverType::kChebyshev, PreconType::kNone, 2},
        OpCase{SolverType::kChebyshev, PreconType::kJacobiDiag, 2},
        OpCase{SolverType::kChebyshev, PreconType::kJacobiBlock, 2},
        OpCase{SolverType::kPPCG, PreconType::kNone, 2},
        OpCase{SolverType::kPPCG, PreconType::kJacobiDiag, 2},
        OpCase{SolverType::kPPCG, PreconType::kJacobiBlock, 2},
        OpCase{SolverType::kJacobi, PreconType::kNone, 3},
        OpCase{SolverType::kCG, PreconType::kNone, 3},
        OpCase{SolverType::kCG, PreconType::kJacobiDiag, 3},
        OpCase{SolverType::kCG, PreconType::kJacobiBlock, 3},
        OpCase{SolverType::kChebyshev, PreconType::kJacobiDiag, 3},
        OpCase{SolverType::kPPCG, PreconType::kNone, 3},
        OpCase{SolverType::kPPCG, PreconType::kJacobiBlock, 3}),
    [](const auto& info) {
      const OpCase& oc = info.param;
      return std::string(to_string(oc.type)) + "_" + to_string(oc.precon) +
             "_" + std::to_string(oc.dims) + "d";
    });

// ---- assembled matrix structure ------------------------------------------

TEST(AssembleFromStencil, LayoutMatchesTheBitwiseContract) {
  auto cl = make_test_problem(8, 1, 2, 4.0);
  const Chunk& c = cl->chunk(0);
  const CsrMatrix m = assemble_from_stencil(c);
  ASSERT_EQ(m.nrows, 64);
  EXPECT_EQ(m.nnz(), 64 * 5);  // boundary zeros kept: full arity everywhere
  EXPECT_EQ(m.nnz_per_row(), 5.0);

  const Field<double>& geom = c.u();
  for (int k = 0; k < 8; ++k) {
    for (int j = 0; j < 8; ++j) {
      const std::int64_t r = k * 8 + j;
      ASSERT_EQ(m.row_len(r), 5);
      const std::int64_t e = m.row_ptr[r];
      // Entry 0 is the (positive) diagonal at the row's own cell.
      EXPECT_EQ(m.cols[e], static_cast<std::int64_t>(geom.index(j, k, 0)));
      EXPECT_GT(m.vals[e], 0.0);
      // Off-diagonals are stored signed (≤ 0), zero exactly on the faces
      // that touch the physical boundary.
      for (int i = 1; i < 5; ++i) EXPECT_LE(m.vals[e + i], 0.0);
      EXPECT_EQ(m.vals[e + 1] == 0.0, k == 7);  // ky(k+1)
      EXPECT_EQ(m.vals[e + 2] == 0.0, k == 0);  // ky(k−1)
      EXPECT_EQ(m.vals[e + 3] == 0.0, j == 7);  // kx(j+1)
      EXPECT_EQ(m.vals[e + 4] == 0.0, j == 0);  // kx(j−1)
    }
  }
}

TEST(AssembleFromStencil, ThreeDRowsCarrySevenEntries) {
  auto cl = make_test_problem_3d(6, 1, 2, 4.0);
  const CsrMatrix m = assemble_from_stencil(cl->chunk(0));
  EXPECT_EQ(m.nrows, 216);
  EXPECT_EQ(m.nnz_per_row(), 7.0);
}

TEST(SellFromCsr, StoragePermutationPreservesEveryRowExactly) {
  auto cl = make_test_problem(12, 1, 2, 4.0);
  const CsrMatrix csr = assemble_from_stencil(cl->chunk(0));
  const SellMatrix s = sell_from_csr(csr, 8, 64);

  ASSERT_EQ(s.nrows, csr.nrows);
  EXPECT_EQ(s.chunk_c, 8);
  EXPECT_EQ(s.sigma, 64);
  // Uniform row lengths: the σ sort is the identity and padding only
  // covers the ragged final slice (144 rows → 18 full slices, no pad).
  EXPECT_EQ(s.fill_ratio(), 1.0);

  std::vector<int> seen(static_cast<std::size_t>(s.nrows), 0);
  for (std::int64_t r = 0; r < s.nrows; ++r) {
    ASSERT_EQ(s.row_len[r], csr.row_len(r));
    const std::int64_t p = s.slot[r];
    ASSERT_GE(p, 0);
    ASSERT_LT(p, s.nrows);
    ++seen[static_cast<std::size_t>(p)];
    const std::int64_t base = s.slice_ptr[p / s.chunk_c] + p % s.chunk_c;
    for (int i = 0; i < s.row_len[r]; ++i) {
      const std::int64_t q = base + static_cast<std::int64_t>(i) * s.chunk_c;
      EXPECT_EQ(s.cols[q], csr.cols[csr.row_ptr[r] + i]);
      EXPECT_EQ(s.vals[q], csr.vals[csr.row_ptr[r] + i]);
    }
  }
  for (const int n : seen) EXPECT_EQ(n, 1);  // slot is a permutation
}

TEST(SellFromCsr, VariableRowLengthsSortWithinSigmaWindows) {
  // Ragged rows (FEM-like): row lengths 1..n within one σ window must be
  // stored descending so slice widths track the longest member, while the
  // slot map still finds every row's entries.
  CsrMatrix csr;
  csr.nrows = 10;
  csr.row_ptr.push_back(0);
  for (std::int64_t r = 0; r < csr.nrows; ++r) {
    const int len = static_cast<int>(r % 5) + 1;
    for (int i = 0; i < len; ++i) {
      csr.cols.push_back(r);  // columns don't matter for the layout
      csr.vals.push_back(100.0 * static_cast<double>(r) + i);
    }
    csr.row_ptr.push_back(static_cast<std::int64_t>(csr.vals.size()));
  }
  const SellMatrix s = sell_from_csr(csr, 4, 8);
  EXPECT_GT(s.fill_ratio(), 1.0);  // ragged rows genuinely pad now
  for (std::int64_t r = 0; r < csr.nrows; ++r) {
    const std::int64_t base = s.slice_ptr[s.slot[r] / 4] + s.slot[r] % 4;
    for (int i = 0; i < s.row_len[r]; ++i) {
      EXPECT_EQ(s.vals[base + static_cast<std::int64_t>(i) * 4],
                csr.vals[csr.row_ptr[r] + i]);
    }
  }
}

// ---- Matrix Market reader / writer ---------------------------------------

io::TripletMatrix laplacian5(int n, double diag = 5.0) {
  io::TripletMatrix m;
  m.n = static_cast<std::int64_t>(n) * n;
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      const std::int64_t row = static_cast<std::int64_t>(k) * n + j;
      m.entries.push_back({row, row, diag});
      if (j > 0) m.entries.push_back({row, row - 1, -1.0});
      if (j < n - 1) m.entries.push_back({row, row + 1, -1.0});
      if (k > 0) m.entries.push_back({row, row - n, -1.0});
      if (k < n - 1) m.entries.push_back({row, row + n, -1.0});
    }
  }
  return m;
}

TEST(MatrixMarket, WriteReadRoundTripIsExact) {
  const io::TripletMatrix m = laplacian5(4, 4.0 + 1.0 / 3.0);
  std::ostringstream os;
  io::write_matrix_market(os, m);
  std::istringstream is(os.str());
  const io::TripletMatrix back = io::read_matrix_market(is);
  ASSERT_EQ(back.n, m.n);
  ASSERT_EQ(back.entries.size(), m.entries.size());
  // Entry order is a representation detail; the matrix — each (row, col)
  // and its value, to the last bit (%.17g) — must survive unchanged.
  const auto canonical = [](io::TripletMatrix t) {
    std::sort(t.entries.begin(), t.entries.end(),
              [](const auto& a, const auto& b) {
                return std::pair(a.row, a.col) < std::pair(b.row, b.col);
              });
    return t;
  };
  const io::TripletMatrix ms = canonical(m), bs = canonical(back);
  for (std::size_t i = 0; i < ms.entries.size(); ++i) {
    EXPECT_EQ(bs.entries[i].row, ms.entries[i].row);
    EXPECT_EQ(bs.entries[i].col, ms.entries[i].col);
    EXPECT_EQ(bs.entries[i].val, ms.entries[i].val);
  }
}

TEST(MatrixMarket, SymmetricFilesExpandTheStoredTriangle) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "% lower triangle of a 2x2 SPD system\n"
      "2 2 3\n"
      "1 1 4.0\n"
      "2 1 -1.0\n"
      "2 2 4.0\n");
  const io::TripletMatrix m = io::read_matrix_market(is);
  EXPECT_EQ(m.n, 2);
  ASSERT_EQ(m.entries.size(), 4u);  // mirror of (2,1) added
  double a01 = 0.0, a10 = 0.0;
  for (const auto& e : m.entries) {
    if (e.row == 0 && e.col == 1) a01 = e.val;
    if (e.row == 1 && e.col == 0) a10 = e.val;
  }
  EXPECT_EQ(a01, -1.0);
  EXPECT_EQ(a10, -1.0);
}

TEST(MatrixMarket, MalformedInputsAreRejectedNotGuessed) {
  const auto reject = [](const char* text) {
    std::istringstream is(text);
    EXPECT_THROW(io::read_matrix_market(is), TeaError) << text;
  };
  // Wrong banner: array format, complex field, missing header entirely.
  reject("%%MatrixMarket matrix array real general\n2 2\n1.0\n0.0\n");
  reject("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n");
  reject("1 1 1\n1 1 1.0\n");
  // Non-square size.
  reject("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n");
  // Out-of-range and duplicate indices.
  reject("%%MatrixMarket matrix coordinate real general\n2 2 2\n"
         "1 1 1.0\n3 1 1.0\n");
  reject("%%MatrixMarket matrix coordinate real general\n2 2 3\n"
         "1 1 1.0\n1 1 2.0\n2 2 1.0\n");
  // Fewer entries than the size line declares.
  reject("%%MatrixMarket matrix coordinate real general\n2 2 3\n"
         "1 1 1.0\n2 2 1.0\n");
  // 'general' that is not numerically symmetric: CG would silently
  // mis-converge, so the reader refuses.
  reject("%%MatrixMarket matrix coordinate real general\n2 2 4\n"
         "1 1 4.0\n1 2 -1.0\n2 1 -2.0\n2 2 4.0\n");
  // A row with no stored diagonal (the preconditioners divide by it).
  reject("%%MatrixMarket matrix coordinate real general\n2 2 2\n"
         "1 1 1.0\n1 2 0.5\n");
  // Unreadable path.
  EXPECT_THROW(io::load_matrix_market("/nonexistent/no_such.mtx"), TeaError);
}

TEST(MatrixMarket, CsrFromTripletsMapsRowsOntoTheGridDiagFirst) {
  auto cl = make_test_problem(4, 1, 2, 4.0);
  const Chunk& c = cl->chunk(0);
  const io::TripletMatrix trips = laplacian5(4);
  const CsrMatrix m = io::csr_from_triplets(trips, c);

  ASSERT_EQ(m.nrows, 16);
  const Field<double>& geom = c.u();
  for (std::int64_t r = 0; r < m.nrows; ++r) {
    const int j = static_cast<int>(r % 4), k = static_cast<int>(r / 4);
    const std::int64_t e = m.row_ptr[r];
    ASSERT_GT(m.row_len(r), 0);
    // Diagonal first (kernels and preconditioners rely on the slot)...
    EXPECT_EQ(m.cols[e], static_cast<std::int64_t>(geom.index(j, k, 0)));
    EXPECT_EQ(m.vals[e], 5.0);
    // ...then the off-diagonals in ascending column order.
    for (int i = 2; i < m.row_len(r); ++i) {
      EXPECT_LT(m.cols[e + i - 1], m.cols[e + i]);
    }
  }
  // Corner rows have 3 entries, edges 4, interior 5: no phantom zeros.
  EXPECT_EQ(m.row_len(0), 3);
  EXPECT_EQ(m.row_len(1), 4);
  EXPECT_EQ(m.row_len(5), 5);

  // The grid must match the matrix exactly.
  auto wrong = make_test_problem(5, 1, 2, 4.0);
  EXPECT_THROW(io::csr_from_triplets(trips, wrong->chunk(0)), TeaError);
}

// ---- deck surface --------------------------------------------------------

TEST(OperatorDeck, KeysParseAndRoundTrip) {
  const InputDeck deck = InputDeck::parse_string(
      "*tea\nx_cells=16\ny_cells=16\nend_step=1\n"
      "tl_operator=csr\nmatrix_file=system.mtx\n"
      "sweep_solvers=cg\nsweep_operator=stencil,csr,sell-c-sigma\n"
      "state 1 density=1.0 energy=1.0\n*endtea\n");
  EXPECT_EQ(deck.solver.op, OperatorKind::kCsr);
  EXPECT_EQ(deck.matrix_file, "system.mtx");
  EXPECT_EQ(deck.sweep.operators,
            (std::vector<std::string>{"stencil", "csr", "sell-c-sigma"}));
  const InputDeck back = InputDeck::parse_string(deck.to_string());
  EXPECT_EQ(back.solver.op, OperatorKind::kCsr);
  EXPECT_EQ(back.matrix_file, "system.mtx");
  EXPECT_EQ(back.sweep.operators, deck.sweep.operators);

  // The stencil default stays silent in to_string: legacy decks unchanged.
  const InputDeck plain = decks::hot_block(16, 1);
  EXPECT_EQ(plain.to_string().find("tl_operator"), std::string::npos);
  EXPECT_EQ(plain.to_string().find("matrix_file"), std::string::npos);
}

TEST(OperatorDeck, MistypedKeyAndBadValueFailLoudly) {
  try {
    InputDeck::parse_string(
        "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
        "tl_operater=csr\nstate 1 density=1 energy=1\n*endtea\n");
    FAIL() << "typo must not be silently ignored";
  } catch (const TeaError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown key 'tl_operater'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean 'tl_operator'"), std::string::npos)
        << msg;
  }
  EXPECT_THROW(InputDeck::parse_string(
                   "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
                   "tl_operator=coo\nstate 1 density=1 energy=1\n*endtea\n"),
               TeaError);
  EXPECT_THROW(InputDeck::parse_string(
                   "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
                   "sweep_solvers=cg\nsweep_operator=stencil,ellpack\n"
                   "state 1 density=1 energy=1\n*endtea\n"),
               TeaError);
}

TEST(OperatorDeck, MatrixFileValidationRejectsImpossibleCombinations) {
  // matrix_file without an assembled operator: nowhere to put the matrix.
  try {
    InputDeck deck = decks::hot_block(8, 1);
    deck.matrix_file = "system.mtx";
    deck.validate();
    FAIL() << "matrix_file on the stencil path must be rejected";
  } catch (const TeaError& e) {
    EXPECT_NE(std::string(e.what()).find("tl_operator = csr"),
              std::string::npos)
        << e.what();
  }
  // matrix_file on a 3-D deck: the rows map onto the 2-D grid only.
  InputDeck deck3 = decks::hot_block(8, 1);
  deck3.dims = 3;
  deck3.z_cells = 8;
  deck3.matrix_file = "system.mtx";
  deck3.solver.op = OperatorKind::kCsr;
  EXPECT_THROW(deck3.validate(), TeaError);
  // Assembled operators store interior rows only: no matrix-powers depth.
  SolverConfig cfg;
  cfg.type = SolverType::kPPCG;
  cfg.halo_depth = 4;
  cfg.op = OperatorKind::kCsr;
  EXPECT_THROW(cfg.validate(), TeaError);
}

// ---- session / cache shape key -------------------------------------------

TEST(OperatorShape, KeyAppendsTheKindAndLegacyKeysAreUnchanged) {
  InputDeck deck = decks::hot_block(16, 1);
  EXPECT_EQ(ProblemShape::of(deck, 4, 2).key(), "2d/16x16x1/r4/h2");
  deck.solver.op = OperatorKind::kCsr;
  EXPECT_EQ(ProblemShape::of(deck, 4, 2).key(), "2d/16x16x1/r4/h2/csr");
  deck.solver.op = OperatorKind::kSellCSigma;
  EXPECT_EQ(ProblemShape::of(deck, 4, 2).key(),
            "2d/16x16x1/r4/h2/sell-c-sigma");
}

TEST(OperatorSession, PrepareInstallsAndClearsAssembledOperators) {
  InputDeck deck = decks::hot_block(16, 1);
  deck.solver.op = OperatorKind::kCsr;
  SolveSession session(deck, 2);
  const SolveStats sa = session.solve();
  ASSERT_TRUE(sa.converged);
  EXPECT_EQ(sa.nnz_per_row, 5.0);
  session.cluster().for_each_chunk([](int, Chunk& c) {
    EXPECT_EQ(c.op_kind(), OperatorKind::kCsr);
    EXPECT_NE(c.csr(), nullptr);
  });

  // A stencil solve on the same session drops the assembled matrices.
  InputDeck plain = decks::hot_block(16, 1);
  SolveSession stencil_session(plain, 2);
  const SolveStats ss = stencil_session.solve();
  ASSERT_TRUE(ss.converged);
  EXPECT_EQ(ss.nnz_per_row, 0.0);
  EXPECT_EQ(sa.outer_iters, ss.outer_iters);
  EXPECT_EQ(sa.final_norm, ss.final_norm);
  SolverConfig back = deck.solver;
  back.op = OperatorKind::kStencil;
  const SolveStats s2 = session.solve(back);
  ASSERT_TRUE(s2.converged);
  session.cluster().for_each_chunk([](int, Chunk& c) {
    EXPECT_EQ(c.op_kind(), OperatorKind::kStencil);
    EXPECT_EQ(c.csr(), nullptr);
  });
}

// ---- sweep ninth axis ----------------------------------------------------

TEST(SweepOperatorAxis, EnumeratesInnermostAndLabels) {
  SweepSpec spec;
  spec.solvers = {"cg"};
  spec.operators = {"stencil", "csr", "sell-c-sigma"};
  const std::vector<SweepCase> cases = enumerate_cases(spec, 16);
  ASSERT_EQ(cases.size(), 3u);
  ASSERT_EQ(spec.num_cases(), 3u);
  EXPECT_EQ(cases[0].label(), "cg/none/d1/n16/t0/fused");
  EXPECT_EQ(cases[1].label(), "cg/none/d1/n16/t0/fused/csr");
  EXPECT_EQ(cases[2].label(), "cg/none/d1/n16/t0/fused/sell-c-sigma");
  spec.operators = {"csc"};
  EXPECT_THROW(spec.validate(), TeaError);
}

TEST(SweepOperatorAxis, AssembledCellsMatchStencilAndRoundTrip) {
  InputDeck base = decks::hot_block(16, 1);
  base.solver.eps = 1e-8;
  SweepSpec spec;
  spec.solvers = {"cg", "mg-pcg"};
  spec.operators = {"stencil", "csr", "sell-c-sigma"};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);
  ASSERT_EQ(rep.cells.size(), 6u);

  // cg: all three representations run and agree bit for bit.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(rep.cells[i].skipped) << rep.cells[i].config.label();
    EXPECT_TRUE(rep.cells[i].converged) << rep.cells[i].config.label();
  }
  EXPECT_EQ(rep.cells[1].config.op, "csr");
  EXPECT_EQ(rep.cells[1].iterations, rep.cells[0].iterations);
  EXPECT_EQ(rep.cells[1].final_norm, rep.cells[0].final_norm);
  EXPECT_EQ(rep.cells[2].final_norm, rep.cells[0].final_norm);
  EXPECT_EQ(rep.cells[1].message_bytes, rep.cells[0].message_bytes);

  // mg-pcg rebuilds its hierarchy from the face coefficients: only the
  // stencil cell runs, the assembled cells are skipped with a reason.
  EXPECT_FALSE(rep.cells[3].skipped);
  EXPECT_TRUE(rep.cells[4].skipped);
  EXPECT_TRUE(rep.cells[5].skipped);
  EXPECT_NE(rep.cells[4].skip_reason.find("assembled"), std::string::npos);

  // Converged assembled cells take part in the ranking.
  const std::vector<int> ranked = rep.ranking();
  EXPECT_EQ(ranked.size(), 4u);

  // The operator column survives both serialisation round trips.
  EXPECT_NE(rep.to_csv_lines()[0].find("operator"), std::string::npos);
  const SweepReport csv_back = SweepReport::from_csv_lines(rep.to_csv_lines());
  const SweepReport json_back =
      SweepReport::from_json_string(rep.to_json().dump(2));
  for (std::size_t i = 0; i < rep.cells.size(); ++i) {
    EXPECT_EQ(csv_back.cells[i].config.op, rep.cells[i].config.op);
    EXPECT_EQ(json_back.cells[i].config.op, rep.cells[i].config.op);
    EXPECT_EQ(csv_back.cells[i].config.label(), rep.cells[i].config.label());
  }
}

// ---- routing and the solve server ----------------------------------------

TEST(OperatorRouting, LabelsCarryTheKindAndMgPcgRejectsAssembled) {
  RouteEntry e;
  e.solver = "cg";
  e.config.type = SolverType::kCG;
  e.config.op = OperatorKind::kCsr;
  e.mesh_n = 16;
  EXPECT_NE(e.label().find("/csr"), std::string::npos);
  (void)e.validated();  // a native assembled entry is routable

  RouteEntry mg;
  mg.solver = "mg-pcg";
  mg.config.op = OperatorKind::kCsr;
  mg.mesh_n = 16;
  try {
    (void)mg.validated();
    FAIL() << "mg-pcg has no assembled-operator form";
  } catch (const TeaError& err) {
    EXPECT_NE(std::string(err.what()).find("stencil"), std::string::npos)
        << err.what();
  }

  // The default `auto` tile height means untiled on mg-pcg; only an
  // explicit height contradicts its untiled fused path.
  mg.config.op = OperatorKind::kStencil;
  EXPECT_NO_THROW((void)mg.validated());
  mg.config.tile_rows = 8;
  try {
    (void)mg.validated();
    FAIL() << "mg-pcg's fused path does not row-tile";
  } catch (const TeaError& err) {
    EXPECT_NE(std::string(err.what()).find("row-tile"), std::string::npos)
        << err.what();
  }
}

TEST(OperatorServer, MatrixMarketDeckSolvesEndToEnd) {
  const std::string path = ::testing::TempDir() + "operator_server.mtx";
  io::save_matrix_market(path, laplacian5(8));

  SolveServer server;
  double csr_norm = 0.0;
  for (const OperatorKind op :
       {OperatorKind::kCsr, OperatorKind::kSellCSigma}) {
    SolveRequest req;
    req.deck.x_cells = 8;
    req.deck.y_cells = 8;
    req.deck.end_step = 1;
    req.deck.matrix_file = path;
    req.deck.solver.type = SolverType::kCG;
    req.deck.solver.op = op;
    req.deck.states.push_back({});
    req.deck.validate();
    req.nranks = 1;
    req.tag = to_string(op);
    const SolveResult res = server.solve_one(std::move(req));
    ASSERT_TRUE(res.ok()) << to_string(op);
    // Loaded Laplacian: 5·64 − 4·8 = 288 entries over 64 rows (true row
    // lengths — no kept zeros on the file path).
    EXPECT_EQ(res.stats.nnz_per_row, 288.0 / 64.0) << to_string(op);
    if (op == OperatorKind::kCsr) {
      csr_norm = res.stats.final_norm;
    } else {
      EXPECT_EQ(res.stats.final_norm, csr_norm);  // storage permutation
    }
  }
  std::remove(path.c_str());
}

// ---- scaling model: nnz-priced SpMV --------------------------------------

TEST(OperatorModel, AssembledFillPricesSpmvFromMeasuredNnz) {
  SolverConfig cfg;
  cfg.type = SolverType::kCG;
  SolveStats stats;
  stats.outer_iters = 200;
  stats.nnz_per_row = 5.0;
  SolverRunSummary run = SolverRunSummary::from(cfg, stats, 1024);
  EXPECT_EQ(run.nnz_per_row, 5.0);

  const GlobalMesh2D mesh(1024, 1024);
  const ScalingModel model(machines::spruce_hybrid(), mesh, 1);
  SolverRunSummary stencil = run;
  stencil.nnz_per_row = 0.0;
  // 5 nnz/row streams 16·5 + 16 = 96 B/cell per SpMV against the
  // stencil's 32: the assembled prediction must be strictly slower, and
  // monotone in the fill.
  EXPECT_GT(model.run_seconds(run, 1), model.run_seconds(stencil, 1));
  SolverRunSummary denser = run;
  denser.nnz_per_row = 9.0;
  EXPECT_GT(model.run_seconds(denser, 1), model.run_seconds(run, 1));
}

}  // namespace
}  // namespace tealeaf
