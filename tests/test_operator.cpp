// The OperatorView contract: the assembled CSR operator is an alternative
// representation of the SAME linear operator the matrix-free stencil
// applies, and a matrix assembled from the stencil must reproduce the
// matrix-free solve bit for bit — same iteration counts, same residual
// norms, identical solution fields — in 2-D and 3-D, for every solver
// family and preconditioner.  Plus: the Matrix Market entry path (reader
// validation, round trip, triplet→CSR layout), a kernel-independent
// residual oracle for a loaded matrix, the deck/sweep/server surface of
// the ninth design-space axis, and the scaling model's nnz-priced SpMV
// traffic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
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

  auto cl = make();
  install_operator(*cl, OperatorKind::kCsr);
  SolverConfig acfg = cfg;
  acfg.op = OperatorKind::kCsr;
  const SolveStats sa = run_solver(*cl, acfg);
  ASSERT_TRUE(sa.converged);
  // The assembled matrix stores the stencil's own values in the stencil's
  // own accumulation order (signed off-diagonals, boundary zeros kept,
  // pairwise grouping) — nothing may differ, not even ULPs.
  EXPECT_EQ(sa.outer_iters, ss.outer_iters);
  EXPECT_EQ(sa.inner_steps, ss.inner_steps);
  EXPECT_EQ(sa.eigen_cg_iters, ss.eigen_cg_iters);
  EXPECT_EQ(sa.initial_norm, ss.initial_norm);
  EXPECT_EQ(sa.final_norm, ss.final_norm);
  EXPECT_EQ(max_field_diff(*ref, *cl, FieldId::kU), 0.0);
  // Fill of the kept-zero stencil assembly is exactly the stencil arity.
  EXPECT_EQ(sa.nnz_per_row, oc.dims == 3 ? 7.0 : 5.0);
  // Identical data motion: SpMV gathers through the same halo cells.
  EXPECT_EQ(cl->stats().message_bytes, ref->stats().message_bytes);
  EXPECT_EQ(cl->stats().reductions, ref->stats().reductions);
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
  // A size line claiming more entries than any host could hold: the
  // reader sizes from what it reads, so both end as truncated files
  // rather than allocation failures (a general count of 10^12, and a
  // symmetric count whose mirrored total 2·nnz overflows int64).
  reject("%%MatrixMarket matrix coordinate real general\n4 4 1000000000000\n"
         "1 1 1.0\n");
  reject("%%MatrixMarket matrix coordinate real symmetric\n"
         "4 4 4611686018427387904\n1 1 1.0\n");
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
      "sweep_solvers=cg\nsweep_operator=stencil,csr\n"
      "state 1 density=1.0 energy=1.0\n*endtea\n");
  EXPECT_EQ(deck.solver.op, OperatorKind::kCsr);
  EXPECT_EQ(deck.matrix_file, "system.mtx");
  EXPECT_EQ(deck.sweep.operators,
            (std::vector<std::string>{"stencil", "csr"}));
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
  // Unknown formats are errors, retired ones included.
  for (const char* op : {"coo", "sell-c-sigma", "sell"}) {
    EXPECT_THROW(InputDeck::parse_string(
                     std::string("*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
                                 "tl_operator=") +
                     op + "\nstate 1 density=1 energy=1\n*endtea\n"),
                 TeaError)
        << op;
  }
  for (const char* axis : {"stencil,ellpack", "stencil,sell-c-sigma"}) {
    EXPECT_THROW(InputDeck::parse_string(
                     std::string("*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
                                 "sweep_solvers=cg\nsweep_operator=") +
                     axis + "\nstate 1 density=1 energy=1\n*endtea\n"),
                 TeaError)
        << axis;
  }
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
  spec.operators = {"stencil", "csr"};
  const std::vector<SweepCase> cases = enumerate_cases(spec, 16);
  ASSERT_EQ(cases.size(), 2u);
  ASSERT_EQ(spec.num_cases(), 2u);
  EXPECT_EQ(cases[0].label(), "cg/none/d1/n16/t0/fused");
  EXPECT_EQ(cases[1].label(), "cg/none/d1/n16/t0/fused/csr");
  spec.operators = {"csc"};
  EXPECT_THROW(spec.validate(), TeaError);
}

TEST(SweepOperatorAxis, AssembledCellsMatchStencilAndRoundTrip) {
  InputDeck base = decks::hot_block(16, 1);
  base.solver.eps = 1e-8;
  SweepSpec spec;
  spec.solvers = {"cg", "mg-pcg"};
  spec.operators = {"stencil", "csr"};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);
  ASSERT_EQ(rep.cells.size(), 4u);

  // cg: both representations run and agree bit for bit.
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(rep.cells[i].skipped) << rep.cells[i].config.label();
    EXPECT_TRUE(rep.cells[i].converged) << rep.cells[i].config.label();
  }
  EXPECT_EQ(rep.cells[1].config.op, "csr");
  EXPECT_EQ(rep.cells[1].iterations, rep.cells[0].iterations);
  EXPECT_EQ(rep.cells[1].final_norm, rep.cells[0].final_norm);
  EXPECT_EQ(rep.cells[1].message_bytes, rep.cells[0].message_bytes);

  // mg-pcg rebuilds its hierarchy from the face coefficients: only the
  // stencil cell runs, the assembled cell is skipped with a reason.
  EXPECT_FALSE(rep.cells[2].skipped);
  EXPECT_TRUE(rep.cells[3].skipped);
  EXPECT_NE(rep.cells[3].skip_reason.find("assembled"), std::string::npos);

  // Converged assembled cells take part in the ranking.
  const std::vector<int> ranked = rep.ranking();
  EXPECT_EQ(ranked.size(), 3u);

  // The operator column is written, and survives the JSON round trip.
  EXPECT_NE(rep.to_csv_lines()[0].find("operator"), std::string::npos);
  const SweepReport json_back =
      SweepReport::from_json_string(rep.to_json().dump(2));
  for (std::size_t i = 0; i < rep.cells.size(); ++i) {
    EXPECT_EQ(json_back.cells[i].config.op, rep.cells[i].config.op);
    EXPECT_EQ(json_back.cells[i].config.label(), rep.cells[i].config.label());
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

  // mg-pcg tiles like CG: a tiled stencil route is routable, runs as CG
  // with the multigrid preconditioner, and matches its untiled twin.
  mg.config.op = OperatorKind::kStencil;
  const InputDeck deck = decks::hot_block(16, 1);
  std::vector<SolveStats> runs;
  for (const int tile : {0, 8}) {
    mg.config.tile_rows = tile;
    const SolverConfig cfg = mg.validated().overlay(deck.solver);
    EXPECT_EQ(cfg.type, SolverType::kCG);
    EXPECT_EQ(cfg.precon, PreconType::kMultigrid);
    SolveSession session(deck, 1);
    runs.push_back(session.solve(cfg));
    EXPECT_TRUE(runs.back().converged) << mg.label();
  }
  EXPECT_EQ(runs[1].outer_iters, runs[0].outer_iters);
  EXPECT_EQ(runs[1].final_norm, runs[0].final_norm);
}

TEST(OperatorServer, MatrixMarketDeckSolvesEndToEnd) {
  const std::string path = ::testing::TempDir() + "operator_server.mtx";
  io::save_matrix_market(path, laplacian5(8));

  SolveServer server;
  SolveRequest req;
  req.deck.x_cells = 8;
  req.deck.y_cells = 8;
  req.deck.end_step = 1;
  req.deck.matrix_file = path;
  req.deck.solver.type = SolverType::kCG;
  req.deck.solver.op = OperatorKind::kCsr;
  req.deck.states.push_back({});
  req.deck.validate();
  req.nranks = 1;
  req.tag = "csr";
  const SolveResult res = server.solve_one(std::move(req));
  ASSERT_TRUE(res.ok());
  // Loaded Laplacian: 5·64 − 4·8 = 288 entries over 64 rows (true row
  // lengths — no kept zeros on the file path).
  EXPECT_EQ(res.stats.nnz_per_row, 288.0 / 64.0);
  std::remove(path.c_str());
}

// ---- kernel-independent oracle on a loaded matrix ------------------------

/// The Q1 Galerkin heat step A = M + dt·K of examples/fem_assembly over an
/// elems × elems grid of the unit square: corner, edge and interior rows
/// carry 4, 6 and 9 entries.
io::TripletMatrix q1_heat_step(int elems, double dt) {
  const int nodes = elems + 1;
  const double h = 1.0 / elems;
  const double K[4][4] = {
      {4, -1, -1, -2}, {-1, 4, -2, -1}, {-1, -2, 4, -1}, {-2, -1, -1, 4}};
  const double M[4][4] = {
      {4, 2, 2, 1}, {2, 4, 1, 2}, {2, 1, 4, 2}, {1, 2, 2, 4}};
  std::map<std::pair<std::int64_t, std::int64_t>, double> acc;
  for (int ey = 0; ey < elems; ++ey) {
    for (int ex = 0; ex < elems; ++ex) {
      const std::int64_t base = static_cast<std::int64_t>(ey) * nodes + ex;
      const std::int64_t local[4] = {base, base + 1, base + nodes,
                                     base + nodes + 1};
      for (int a = 0; a < 4; ++a)
        for (int b = 0; b < 4; ++b)
          acc[{local[a], local[b]}] +=
              h * h / 36.0 * M[a][b] + dt / 6.0 * K[a][b];
    }
  }
  io::TripletMatrix m;
  m.n = static_cast<std::int64_t>(nodes) * nodes;
  for (const auto& [rc, v] : acc) m.entries.push_back({rc.first, rc.second, v});
  return m;
}

TEST(LoadedMatrixOracle, CsrSolveMeetsToleranceOnTheTrueResidual) {
  // The CSR path checks itself only through the solver's recursive
  // residual, which ops/kernels computes.  Here b − A·u is recomputed from
  // the triplets in a plain loop that shares no code with the kernels.
  const int elems = 15, n = elems + 1;
  const io::TripletMatrix a = q1_heat_step(elems, 0.05);
  std::vector<int> row_len(static_cast<std::size_t>(a.n), 0);
  for (const auto& e : a.entries) ++row_len[static_cast<std::size_t>(e.row)];
  ASSERT_EQ(*std::min_element(row_len.begin(), row_len.end()), 4);
  ASSERT_EQ(*std::max_element(row_len.begin(), row_len.end()), 9);

  const std::string path = ::testing::TempDir() + "oracle_q1.mtx";
  io::save_matrix_market(path, a);
  InputDeck deck;
  deck.x_cells = n;
  deck.y_cells = n;
  deck.end_step = 1;
  deck.matrix_file = path;
  deck.solver.type = SolverType::kCG;
  deck.solver.op = OperatorKind::kCsr;
  deck.solver.eps = 1e-10;
  deck.states.push_back({});
  StateDef hot;
  hot.geometry = StateDef::Geometry::kRectangle;
  hot.energy = 10.0;
  hot.xmin = 2.0;
  hot.xmax = 6.0;
  hot.ymin = 2.0;
  hot.ymax = 6.0;
  deck.states.push_back(hot);
  deck.validate();
  SolveSession session(deck, 1);
  const SolveStats st = session.solve();
  std::remove(path.c_str());
  ASSERT_TRUE(st.converged);
  ASSERT_GT(st.outer_iters, 1);

  // Grid cell (j, k) is matrix row k·n + j; b = u0 = ρ·e is the RHS, and
  // the solve starts from u = b, so the initial residual is b − A·b.
  const Chunk& c = session.cluster().chunk(0);
  const auto at = [n](const Field<double>& f, std::int64_t r) {
    return f(static_cast<int>(r % n), static_cast<int>(r / n), 0);
  };
  const auto residual_norm = [&](const Field<double>& x) {
    std::vector<double> res(static_cast<std::size_t>(a.n));
    for (std::int64_t r = 0; r < a.n; ++r)
      res[static_cast<std::size_t>(r)] = at(c.u0(), r);
    for (const auto& e : a.entries)
      res[static_cast<std::size_t>(e.row)] -= e.val * at(x, e.col);
    double rr = 0.0;
    for (const double v : res) rr += v * v;
    return std::sqrt(rr);
  };
  const double true_norm = residual_norm(c.u());
  const double initial_norm = residual_norm(c.u0());
  // The solver's initial norm is the same quantity summed in another
  // order: equal to rounding.
  EXPECT_NEAR(st.initial_norm, initial_norm, 1e-12 * initial_norm);
  // CG stops once its recursive residual is ≤ tl_eps·‖b − A·b‖; the true
  // residual may drift from the recursive one by rounding only.  Bound:
  // ‖b − A·u‖ ≤ 2·tl_eps·‖b − A·b‖.
  EXPECT_LE(true_norm, 2.0 * deck.solver.eps * initial_norm)
      << "true " << true_norm << ", recursive " << st.final_norm;
}

// ---- scaling model: nnz-priced SpMV --------------------------------------

TEST(OperatorModel, AssembledFillPricesSpmvFromMeasuredNnz) {
  SolverConfig cfg;
  cfg.type = SolverType::kCG;
  cfg.op = OperatorKind::kCsr;
  SolverRunSummary run = with_outer_iters(fixed_iteration_run(cfg, 2), 200);
  run.mesh_n = 1024;
  EXPECT_EQ(run.trace.nnz_per_row, 5.0);

  const GlobalMesh2D mesh(1024, 1024);
  const ScalingModel model(machines::spruce_hybrid(), mesh, 1);
  SolverRunSummary stencil = run;
  stencil.trace.nnz_per_row = 0.0;
  // 5 nnz/row streams 16·5 + 16 = 96 B/cell per SpMV against the
  // stencil's 32: the assembled prediction must be strictly slower, and
  // monotone in the fill.
  EXPECT_GT(model.run_seconds(run, 1), model.run_seconds(stencil, 1));
  SolverRunSummary denser = run;
  denser.trace.nnz_per_row = 9.0;
  EXPECT_GT(model.run_seconds(denser, 1), model.run_seconds(run, 1));
}

}  // namespace
}  // namespace tealeaf
