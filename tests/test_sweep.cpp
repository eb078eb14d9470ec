#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "driver/decks.hpp"
#include "driver/sweep.hpp"
#include "model/scaling.hpp"

namespace tealeaf {
namespace {

SweepSpec small_spec() {
  SweepSpec spec;
  spec.solvers = {"cg", "ppcg"};
  spec.precons = {PreconType::kNone, PreconType::kJacobiDiag};
  spec.halo_depths = {1, 4};
  spec.mesh_sizes = {16, 24};
  spec.ranks = 2;
  return spec;
}

TEST(SweepEnumeration, FullCrossProductInDeclaredOrder) {
  const SweepSpec spec = small_spec();
  const std::vector<SweepCase> cases = enumerate_cases(spec, 48);
  ASSERT_EQ(cases.size(), spec.num_cases());
  ASSERT_EQ(cases.size(), 2u * 2u * 2u * 2u * 1u);

  // Axis nesting: solver outermost, threads innermost.
  EXPECT_EQ(cases[0].label(), "cg/none/d1/n16/t0/fused");
  EXPECT_EQ(cases[1].label(), "cg/none/d1/n24/t0/fused");
  EXPECT_EQ(cases[2].label(), "cg/none/d4/n16/t0/fused");
  EXPECT_EQ(cases[4].label(), "cg/jac_diag/d1/n16/t0/fused");
  EXPECT_EQ(cases[8].label(), "ppcg/none/d1/n16/t0/fused");
  EXPECT_EQ(cases.back().label(), "ppcg/jac_diag/d4/n24/t0/fused");

  // Enumeration is deterministic: a second call yields identical cells.
  const std::vector<SweepCase> again = enumerate_cases(spec, 48);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(cases[i].label(), again[i].label());
  }
}

TEST(SweepEnumeration, EmptyMeshAxisUsesBaseMesh) {
  SweepSpec spec;
  spec.solvers = {"jacobi"};
  const std::vector<SweepCase> cases = enumerate_cases(spec, 40);
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_EQ(cases[0].mesh_n, 40);
}

TEST(SweepEnumeration, RejectsBadAxes) {
  SweepSpec spec;
  spec.solvers = {"warp-drive"};
  EXPECT_THROW(enumerate_cases(spec, 32), TeaError);
  spec = small_spec();
  spec.halo_depths = {0};
  EXPECT_THROW(spec.validate(), TeaError);
  spec = small_spec();
  spec.ranks = 0;
  EXPECT_THROW(spec.validate(), TeaError);
}

TEST(SweepDeck, ParsesAndRoundTripsSweepSection) {
  const InputDeck deck = InputDeck::parse_string(
      "*tea\n"
      "x_cells=32\ny_cells=32\nend_step=1\n"
      "sweep_solvers=cg,ppcg,mg-pcg\n"
      "sweep_precons=none,jac_diag\n"
      "sweep_halo_depths=1,4,8\n"
      "sweep_mesh_sizes=16,32\n"
      "sweep_threads=0,2\n"
      "sweep_ranks=2\n"
      "state 1 density=1.0 energy=1.0\n"
      "*endtea\n");
  ASSERT_TRUE(deck.sweep.requested());
  EXPECT_EQ(deck.sweep.solvers,
            (std::vector<std::string>{"cg", "ppcg", "mg-pcg"}));
  EXPECT_EQ(deck.sweep.precons,
            (std::vector<PreconType>{PreconType::kNone,
                                     PreconType::kJacobiDiag}));
  EXPECT_EQ(deck.sweep.halo_depths, (std::vector<int>{1, 4, 8}));
  EXPECT_EQ(deck.sweep.mesh_sizes, (std::vector<int>{16, 32}));
  EXPECT_EQ(deck.sweep.thread_counts, (std::vector<int>{0, 2}));
  EXPECT_EQ(deck.sweep.ranks, 2);
  EXPECT_EQ(deck.sweep.num_cases(), 3u * 2u * 3u * 2u * 2u);

  const InputDeck back = InputDeck::parse_string(deck.to_string());
  EXPECT_EQ(back.sweep.solvers, deck.sweep.solvers);
  EXPECT_EQ(back.sweep.precons, deck.sweep.precons);
  EXPECT_EQ(back.sweep.halo_depths, deck.sweep.halo_depths);
  EXPECT_EQ(back.sweep.mesh_sizes, deck.sweep.mesh_sizes);
  EXPECT_EQ(back.sweep.thread_counts, deck.sweep.thread_counts);
  EXPECT_EQ(back.sweep.ranks, deck.sweep.ranks);
}

TEST(SweepDeck, NonSweepDecksStayNonSweep) {
  const InputDeck deck = decks::hot_block(16, 1);
  EXPECT_FALSE(deck.sweep.requested());
  const InputDeck back = InputDeck::parse_string(deck.to_string());
  EXPECT_FALSE(back.sweep.requested());
}

TEST(SweepDeck, RejectsUnknownSweepValues) {
  EXPECT_THROW(InputDeck::parse_string(
                   "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
                   "sweep_solvers=cg\nsweep_precons=ilu\n"
                   "state 1 density=1 energy=1\n*endtea\n"),
               TeaError);
}

/// Shared fixture: one executed 2-solver × 2-mesh sweep (plus one invalid
/// combination) reused by the end-to-end and round-trip tests.
class SweepRun : public ::testing::Test {
 protected:
  static const SweepReport& report() {
    static const SweepReport rep = [] {
      InputDeck base = decks::hot_block(16, 1);
      base.solver.eps = 1e-8;
      SweepSpec spec;
      spec.solvers = {"cg", "ppcg"};
      spec.precons = {PreconType::kNone, PreconType::kJacobiBlock};
      spec.halo_depths = {1, 4};
      spec.mesh_sizes = {16, 24};
      spec.ranks = 2;
      return run_sweep(base, spec);
    }();
    return rep;
  }
};

TEST_F(SweepRun, EndToEndAllValidCellsConverge) {
  const SweepReport& rep = report();
  ASSERT_EQ(rep.cells.size(), 16u);
  EXPECT_EQ(rep.ranks, 2);
  EXPECT_EQ(rep.steps, 1);

  int converged = 0, skipped = 0;
  for (const SweepOutcome& c : rep.cells) {
    if (c.skipped) {
      ++skipped;
      EXPECT_FALSE(c.skip_reason.empty());
      continue;
    }
    EXPECT_TRUE(c.converged) << c.config.label();
    ++converged;
    EXPECT_GT(c.iterations, 0) << c.config.label();
    EXPECT_GT(c.spmv, 0) << c.config.label();
    EXPECT_GT(c.reductions, 0) << c.config.label();
    EXPECT_GT(c.solve_seconds, 0.0) << c.config.label();
    EXPECT_GT(c.comm_seconds, 0.0) << c.config.label();
    EXPECT_LT(c.final_norm, 1e-8 * 1e3) << c.config.label();
  }
  // Skipped: cg × d4 (2 precons × 2 meshes) and ppcg × jac_block × d4
  // (2 meshes) — the matrix-powers contract of SolverConfig::validate.
  EXPECT_EQ(skipped, 6);
  EXPECT_EQ(converged, 10);

  // Ranking covers exactly the converged cells, fastest first.
  const std::vector<int> order = rep.ranking();
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(rep.cells[order[i - 1]].solve_seconds,
              rep.cells[order[i]].solve_seconds);
  }
  EXPECT_EQ(rep.best(), order.front());

  // Speedups: exactly one cell at 1.0 (the best), the rest in (0, 1].
  const std::vector<double> speedup = rep.speedups();
  EXPECT_DOUBLE_EQ(speedup[rep.best()], 1.0);
  for (std::size_t i = 0; i < speedup.size(); ++i) {
    if (rep.cells[i].skipped) {
      EXPECT_DOUBLE_EQ(speedup[i], 0.0);
    } else {
      EXPECT_GT(speedup[i], 0.0);
      EXPECT_LE(speedup[i], 1.0);
    }
  }
}

TEST(SweepDesignQuestions, PPCGCutsReductionsAndDepthCutsExchanges) {
  // The design questions the sweep exists to answer (paper §II): PPCG
  // trades global reductions for inner Chebyshev steps, and matrix-powers
  // halo depth trades exchange rounds for deeper halos.  Use a problem
  // hard enough that the iteration counts are not prestep-dominated.
  InputDeck base = decks::layered_material(32, 1);
  SweepSpec spec;
  spec.solvers = {"cg", "ppcg"};
  spec.halo_depths = {1, 4};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);

  const auto cell = [&](const std::string& label) -> const SweepOutcome& {
    for (const SweepOutcome& c : rep.cells) {
      if (c.config.label() == label) return c;
    }
    throw TeaError("no cell " + label);
  };
  const SweepOutcome& cg = cell("cg/none/d1/n32/t0/fused");
  const SweepOutcome& ppcg1 = cell("ppcg/none/d1/n32/t0/fused");
  const SweepOutcome& ppcg4 = cell("ppcg/none/d4/n32/t0/fused");
  ASSERT_TRUE(cg.converged && ppcg1.converged && ppcg4.converged);
  EXPECT_LT(ppcg1.reductions, cg.reductions);
  EXPECT_LT(ppcg4.exchanges, ppcg1.exchanges);
}

TEST_F(SweepRun, CsvWritesOneRowPerCell) {
  // The CSV is write-only (programs read the JSON): a header naming the
  // columns, then one row per cell in enumeration order.
  const SweepReport& rep = report();
  const std::vector<std::string> lines = rep.to_csv_lines();
  ASSERT_EQ(lines.size(), rep.cells.size() + 1);
  const auto split = [](const std::string& line) {
    std::vector<std::string> cells;
    std::size_t lo = 0;
    for (std::size_t hi; (hi = line.find(',', lo)) != std::string::npos;
         lo = hi + 1) {
      cells.push_back(line.substr(lo, hi - lo));
    }
    cells.push_back(line.substr(lo));
    return cells;
  };
  const std::vector<std::string> header = split(lines.front());
  const std::vector<std::string> columns = {
      "solver",      "precon",        "halo_depth",   "mesh",
      "threads",     "tile_rows",     "geometry",     "operator",
      "precision",   "sweep_ranks",   "sweep_steps",  "status",
      "converged",   "iterations",    "inner_steps",  "spmv",
      "reductions",  "exchanges",     "messages",     "message_bytes",
      "final_norm",  "solve_seconds", "comm_seconds", "speedup",
      "rank"};
  ASSERT_EQ(header, columns);
  const auto column = [&](const char* name) {
    return static_cast<std::size_t>(
        std::find(columns.begin(), columns.end(), name) - columns.begin());
  };

  // Each row carries its cell's solver, status, iteration count and tile
  // height; the sweep has converged cells and skipped ones (the d4 cells
  // that validate() refuses).
  for (std::size_t i = 0; i < rep.cells.size(); ++i) {
    const SweepOutcome& c = rep.cells[i];
    const std::vector<std::string> row = split(lines[i + 1]);
    ASSERT_EQ(row.size(), columns.size()) << lines[i + 1];
    EXPECT_EQ(row[column("solver")], c.config.solver);
    EXPECT_EQ(row[column("status")], c.skipped ? "skipped" : "ok");
    EXPECT_EQ(row[column("iterations")], std::to_string(c.iterations));
    EXPECT_EQ(row[column("tile_rows")], std::to_string(c.config.tile_rows));
  }
  const SweepOutcome& first = rep.cells.front();
  ASSERT_FALSE(first.skipped);
  ASSERT_GT(first.iterations, 0);
  EXPECT_EQ(split(lines[1])[column("converged")], "1");
}

TEST_F(SweepRun, JsonRoundTrips) {
  const SweepReport& rep = report();
  const std::string text = rep.to_json().dump(2);
  const SweepReport back = SweepReport::from_json_string(text);
  ASSERT_EQ(back.cells.size(), rep.cells.size());
  EXPECT_EQ(back.ranks, rep.ranks);
  EXPECT_EQ(back.steps, rep.steps);
  for (std::size_t i = 0; i < rep.cells.size(); ++i) {
    const SweepOutcome& a = rep.cells[i];
    const SweepOutcome& b = back.cells[i];
    EXPECT_EQ(a.config.label(), b.config.label());
    EXPECT_EQ(a.skipped, b.skipped);
    EXPECT_EQ(a.skip_reason, b.skip_reason);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.message_bytes, b.message_bytes);
    EXPECT_DOUBLE_EQ(a.final_norm, b.final_norm);
    EXPECT_DOUBLE_EQ(a.solve_seconds, b.solve_seconds);
    EXPECT_DOUBLE_EQ(a.comm_seconds, b.comm_seconds);
  }
  EXPECT_EQ(back.ranking(), rep.ranking());

  // The document also carries the ranking and best-cell identification
  // for consumers that read the JSON directly.
  const io::JsonValue doc = io::JsonValue::parse(text);
  ASSERT_TRUE(doc.contains("ranking"));
  EXPECT_EQ(static_cast<int>(doc.at("best").as_number()), rep.best());
  EXPECT_EQ(doc.at("best_label").as_string(),
            rep.cells[rep.best()].config.label());
}

TEST(SweepJson, IntegerKeysRejectNonIntegralNumbers) {
  // JSON numbers are doubles: integer keys must hold whole, in-range
  // values, never a truncating (2.5) or out-of-range (1e30) cast.  The
  // geometry is one of the two names the sweep writes.
  SweepReport rep;
  rep.ranks = 2;
  rep.steps = 1;
  SweepOutcome cell;
  cell.config.solver = "cg";
  cell.config.mesh_n = 16;
  cell.converged = true;
  cell.iterations = 12;
  cell.solve_seconds = 0.01;
  rep.cells.push_back(cell);
  const std::string text = rep.to_json().dump(2);
  EXPECT_EQ(SweepReport::from_json_string(text).cells.at(0).iterations, 12);
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string doc = text;
    const std::size_t at = doc.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return doc.replace(at, from.size(), to);
  };
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"\"ranks\": 2", "\"ranks\": 1e30"},
           {"\"iterations\": 12", "\"iterations\": 2.5"},
           {"\"mesh\": 16", "\"mesh\": -1e19"},
           {"\"messages\": 0", "\"messages\": 1e300"},
           {"\"spmv\": 0", "\"spmv\": 0.5"},
           {"\"geometry\": \"2d\"", "\"geometry\": \"4d\""}}) {
    EXPECT_THROW((void)SweepReport::from_json_string(with(from, to)),
                 TeaError)
        << to;
  }
}

TEST(SweepMgPcg, RunsAsFifthSolverAxis) {
  InputDeck base = decks::hot_block(16, 1);
  base.solver.eps = 1e-8;
  SweepSpec spec;
  spec.solvers = {"cg", "mg-pcg"};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);
  ASSERT_EQ(rep.cells.size(), 2u);
  for (const SweepOutcome& c : rep.cells) {
    EXPECT_FALSE(c.skipped) << c.config.label();
    EXPECT_TRUE(c.converged) << c.config.label();
  }
  // MG-PCG converges in far fewer (mesh-independent) iterations.
  EXPECT_LT(rep.cells[1].iterations, rep.cells[0].iterations);
}

/// A one-rank reduction crosses no network: every cell of a one-rank
/// sweep, mg-pcg included, sends no messages and prices no communication.
TEST(SweepCommPricing, OneRankCellsPriceNoNetwork) {
  InputDeck base = decks::hot_block(16, 1);
  base.solver.eps = 1e-8;
  SweepSpec spec;
  spec.solvers = {"cg", "ppcg", "mg-pcg"};
  spec.ranks = 1;
  const SweepReport rep = run_sweep(base, spec);
  ASSERT_EQ(rep.cells.size(), 3u);
  for (const SweepOutcome& c : rep.cells) {
    ASSERT_TRUE(c.converged) << c.config.label();
    EXPECT_GT(c.reductions, 0) << c.config.label();
    EXPECT_EQ(c.messages, 0) << c.config.label();
    EXPECT_EQ(c.comm_seconds, 0.0) << c.config.label();
  }
}

TEST(SweepDeckDriven, DeckSweepSectionDrivesRun) {
  InputDeck base = decks::hot_block(16, 1);
  base.solver.eps = 1e-8;
  base.sweep.solvers = {"cg", "jacobi"};
  base.sweep.mesh_sizes = {12, 16};
  base.sweep.ranks = 2;
  const SweepReport rep = run_sweep(base);
  ASSERT_EQ(rep.cells.size(), 4u);
  for (const SweepOutcome& c : rep.cells) {
    EXPECT_TRUE(c.converged) << c.config.label();
  }
}

TEST(SweepEngineAxis, TiledAndUntiledCellsConvergeIdentically) {
  InputDeck base = decks::hot_block(16, 1);
  base.solver.eps = 1e-8;
  SweepSpec spec;
  spec.solvers = {"cg", "ppcg", "mg-pcg"};
  spec.tile_rows = {0, 6};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);
  ASSERT_EQ(rep.cells.size(), 6u);

  // Every solver, mg-pcg included: the tile height is a pure-speed axis
  // — identical iteration counts, norms and communication per
  // untiled/tiled pair.
  ASSERT_EQ(rep.cells[4].config.solver, "mg-pcg");
  for (const std::size_t i : {0u, 2u, 4u}) {
    const SweepOutcome& untiled = rep.cells[i];
    const SweepOutcome& tiled = rep.cells[i + 1];
    ASSERT_EQ(untiled.config.tile_rows, 0);
    ASSERT_EQ(tiled.config.tile_rows, 6);
    EXPECT_FALSE(tiled.skipped) << tiled.skip_reason;
    EXPECT_TRUE(untiled.converged) << untiled.config.label();
    EXPECT_TRUE(tiled.converged) << tiled.config.label();
    EXPECT_EQ(tiled.iterations, untiled.iterations);
    EXPECT_EQ(tiled.final_norm, untiled.final_norm);
    EXPECT_EQ(tiled.inner_steps, untiled.inner_steps);
    EXPECT_EQ(tiled.reductions, untiled.reductions);
    EXPECT_EQ(tiled.message_bytes, untiled.message_bytes);
  }

  // Labels survive the JSON round trip.
  const SweepReport json_back =
      SweepReport::from_json_string(rep.to_json().dump(2));
  for (std::size_t i = 0; i < rep.cells.size(); ++i) {
    EXPECT_EQ(json_back.cells[i].config.label(), rep.cells[i].config.label());
  }
}

TEST(SweepBreakdown, BreakdownRowFailsWithoutAbortingTheSweep) {
  // A deck whose PPCG cells reliably break down (two presteps grossly
  // underestimate the spectrum; the odd-degree Chebyshev polynomial goes
  // negative beyond the estimated window → ⟨r, M⁻¹r⟩ <= 0).  The sweep
  // must record those rows as failed and still run the CG cells.
  InputDeck base = decks::crooked_pipe(32, 1);
  base.initial_timestep *= 1000.0;
  base.solver.eigen_cg_iters = 2;
  base.solver.inner_steps = 11;
  base.solver.eps = 1e-8;
  base.solver.max_iters = 20000;
  base.sweep.solvers = {"cg", "ppcg"};
  base.sweep.tile_rows = {0, 6};
  base.sweep.ranks = 2;

  const SweepReport rep = run_sweep(base);
  ASSERT_EQ(rep.cells.size(), 4u);
  int failed = 0, ok = 0;
  for (const SweepOutcome& c : rep.cells) {
    ASSERT_FALSE(c.skipped);
    if (c.config.solver == "ppcg") {
      EXPECT_FALSE(c.converged) << c.config.label();
      EXPECT_FALSE(c.fail_reason.empty()) << c.config.label();
      EXPECT_NE(c.fail_reason.find("breakdown"), std::string::npos);
      ++failed;
    } else {
      EXPECT_TRUE(c.converged) << c.config.label();
      EXPECT_TRUE(c.fail_reason.empty()) << c.config.label();
      ++ok;
    }
  }
  EXPECT_EQ(failed, 2);
  EXPECT_EQ(ok, 2);

  // Failed rows are excluded from the ranking but present in the table;
  // the JSON form carries the reason, the CSV status says "failed".
  EXPECT_EQ(rep.ranking().size(), 2u);
  const SweepReport json_back =
      SweepReport::from_json_string(rep.to_json().dump(2));
  EXPECT_EQ(json_back.cells[1].fail_reason, rep.cells[1].fail_reason);
  const std::vector<std::string> lines = rep.to_csv_lines();
  int failed_rows = 0;
  for (const std::string& line : lines) {
    if (line.find(",failed,") != std::string::npos) ++failed_rows;
  }
  EXPECT_EQ(failed_rows, 2);
}

TEST(SweepBreakdown, DivergingChebyshevIsABreakdownAndItsJsonIsWritten) {
  // The nightly 3-D cell: fp64 unpreconditioned Chebyshev on the 24³
  // layered material diverges on the interval its presteps estimate.  The
  // solve must stop as a breakdown with a finite norm, so the sweep JSON,
  // which refuses non-finite numbers, is still written.
  InputDeck base = decks::layered_material(24, 1);
  base.solver.eps = 1e-8;
  base.sweep.solvers = {"chebyshev"};
  base.sweep.geometries = {3};
  base.sweep.ranks = 4;
  const SweepReport rep = run_sweep(base);
  ASSERT_EQ(rep.cells.size(), 1u);
  const SweepOutcome& c = rep.cells[0];
  EXPECT_FALSE(c.converged);
  EXPECT_NE(c.fail_reason.find("Chebyshev diverged"), std::string::npos)
      << c.fail_reason;
  EXPECT_NE(c.fail_reason.find("eigenvalue interval ["), std::string::npos)
      << c.fail_reason;
  EXPECT_TRUE(std::isfinite(c.final_norm)) << c.final_norm;
  const std::string path = testing::TempDir() + "sweep_diverge.json";
  rep.write_json(path);
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(SweepReport::from_json_string(text).cells[0].fail_reason,
            c.fail_reason);
}

TEST(SweepScalingBridge, SpeedupsComeFromScalingModelHelper) {
  EXPECT_EQ(relative_speedups({}).size(), 0u);
  const std::vector<double> s = relative_speedups({2.0, 1.0, 0.0, 4.0});
  ASSERT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s[0], 0.5);
  EXPECT_DOUBLE_EQ(s[1], 1.0);
  EXPECT_DOUBLE_EQ(s[2], 0.0);  // failed run
  EXPECT_DOUBLE_EQ(s[3], 0.25);

  const ScalingSeries series =
      measured_series("threads", {{1, 8.0}, {2, 4.0}, {4, 4.0}});
  const std::vector<double> eff = scaling_efficiency(series);
  ASSERT_EQ(eff.size(), 3u);
  EXPECT_DOUBLE_EQ(eff[0], 1.0);
  EXPECT_DOUBLE_EQ(eff[1], 1.0);
  EXPECT_DOUBLE_EQ(eff[2], 0.5);
}

// ---- eighth axis: geometry (2d | 3d) -------------------------------------

TEST(SweepGeometryAxis, EnumeratesInsideTheTileAxis) {
  SweepSpec spec;
  spec.solvers = {"cg"};
  spec.tile_rows = {0, 8};
  spec.geometries = {2, 3};
  const std::vector<SweepCase> cases = enumerate_cases(spec, 16);
  ASSERT_EQ(cases.size(), 4u);
  ASSERT_EQ(spec.num_cases(), 4u);
  EXPECT_EQ(cases[0].label(), "cg/none/d1/n16/t0/fused");
  EXPECT_EQ(cases[1].label(), "cg/none/d1/n16/t0/fused/3d");
  EXPECT_EQ(cases[2].label(), "cg/none/d1/n16/t0/fused/b8");
  EXPECT_EQ(cases[3].label(), "cg/none/d1/n16/t0/fused/b8/3d");
  spec.geometries = {4};
  EXPECT_THROW(spec.validate(), TeaError);
}

TEST(SweepGeometryAxis, RanksConverged2DAnd3DRowsAndRoundTrips) {
  InputDeck base = decks::hot_block(12, 1);
  base.solver.eps = 1e-8;
  SweepSpec spec;
  spec.solvers = {"cg", "jacobi", "chebyshev", "ppcg", "mg-pcg"};
  spec.geometries = {2, 3};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);
  ASSERT_EQ(rep.cells.size(), 10u);

  // EVERY solver — the four natives AND the mg-pcg baseline — converges
  // in BOTH geometries now that the multigrid hierarchy is
  // dimension-generic; no cell of the cross-product is skipped.
  int converged_3d = 0;
  for (const SweepOutcome& c : rep.cells) {
    EXPECT_FALSE(c.skipped) << c.config.label() << ": " << c.skip_reason;
    EXPECT_TRUE(c.converged) << c.config.label();
    EXPECT_TRUE(c.fail_reason.empty()) << c.config.label();
    if (c.config.dims == 3) ++converged_3d;
  }
  EXPECT_EQ(converged_3d, 5);  // one per solver, mg-pcg included

  // 3-D cells move more halo bytes than their 2-D siblings (face-area
  // payloads) and the ranking mixes both geometries.
  EXPECT_GT(rep.cells[1].message_bytes, rep.cells[0].message_bytes);
  bool ranked_3d = false;
  for (const int i : rep.ranking()) {
    if (rep.cells[i].config.dims == 3) ranked_3d = true;
  }
  EXPECT_TRUE(ranked_3d);

  // The geometry column is written, and survives the JSON round trip.
  const std::vector<std::string> lines = rep.to_csv_lines();
  EXPECT_NE(lines.front().find(",geometry,"), std::string::npos);
  const SweepReport json_back =
      SweepReport::from_json_string(rep.to_json().dump(2));
  for (std::size_t i = 0; i < rep.cells.size(); ++i) {
    EXPECT_EQ(json_back.cells[i].config.dims, rep.cells[i].config.dims);
    EXPECT_EQ(json_back.cells[i].config.label(), rep.cells[i].config.label());
  }
}

TEST(SweepGeometryAxis, NoMgPcg3DCellIsEverSkipped) {
  // The last hole of the design-space matrix (ROADMAP "3-D mg-pcg"): the
  // mg-pcg × 3d cross-product contributes zero skipped cells across the
  // thread and mesh axes, and each cell ranks as a converged row.
  InputDeck base = decks::hot_block(12, 1);
  base.solver.eps = 1e-8;
  SweepSpec spec;
  spec.solvers = {"mg-pcg"};
  spec.mesh_sizes = {8, 12};
  spec.thread_counts = {1, 2};
  spec.geometries = {3};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);
  ASSERT_EQ(rep.cells.size(), 4u);
  for (const SweepOutcome& c : rep.cells) {
    EXPECT_FALSE(c.skipped) << c.config.label() << ": " << c.skip_reason;
    EXPECT_TRUE(c.converged) << c.config.label();
    EXPECT_GT(c.iterations, 0) << c.config.label();
  }
  EXPECT_EQ(rep.ranking().size(), 4u);

  // The thread axis stays pure speed in 3-D: mg-pcg cells at one and two
  // threads run identical iteration counts and final norms.
  for (const std::size_t i : {0u, 2u}) {
    EXPECT_EQ(rep.cells[i + 1].iterations, rep.cells[i].iterations);
    EXPECT_EQ(rep.cells[i + 1].final_norm, rep.cells[i].final_norm);
  }
}

TEST(SweepGeometryAxis, SkipPlumbingStillFiresForInvalidCombos) {
  // Retiring the mg-pcg × 3d and mg-pcg × tiles skips must not have
  // loosened the genuinely invalid combinations: mg-pcg's tiled cells run
  // in both geometries and match their untiled twins, while its
  // preconditioner contract still records a reasoned skip.
  InputDeck base = decks::hot_block(12, 1);
  base.solver.eps = 1e-8;
  SweepSpec spec;
  spec.solvers = {"mg-pcg"};
  spec.tile_rows = {0, 4};
  spec.geometries = {2, 3};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);
  ASSERT_EQ(rep.cells.size(), 4u);
  for (const SweepOutcome& c : rep.cells) {
    EXPECT_FALSE(c.skipped) << c.config.label() << ": " << c.skip_reason;
    EXPECT_TRUE(c.converged) << c.config.label();
  }
  for (const std::size_t i : {0u, 1u}) {  // (b0, b4) per geometry
    EXPECT_EQ(rep.cells[i + 2].config.tile_rows, 4);
    EXPECT_EQ(rep.cells[i + 2].iterations, rep.cells[i].iterations);
    EXPECT_EQ(rep.cells[i + 2].final_norm, rep.cells[i].final_norm);
  }

  SweepSpec mg;
  mg.solvers = {"mg-pcg"};
  mg.precons = {PreconType::kJacobiDiag};
  mg.geometries = {3};
  mg.ranks = 2;
  const SweepReport rep2 = run_sweep(base, mg);
  ASSERT_EQ(rep2.cells.size(), 1u);
  EXPECT_TRUE(rep2.cells[0].skipped);
  EXPECT_NE(rep2.cells[0].skip_reason.find("embeds multigrid"),
            std::string::npos)
      << rep2.cells[0].skip_reason;
}

TEST(SweepGeometryAxis, SlabCellMatches2DIterationCounts) {
  // The cross-dimension consistency contract surfaces in the sweep too:
  // with z extents mirroring x, a 3-D hot-block cell is the extruded 2-D
  // problem, and its iteration counts track the 2-D cell's closely (the
  // solve is plane-wise identical up to the z coupling of the extruded
  // states' edges).  Exact equality is covered by test_geometry3d; here
  // we assert the sweep wiring produced a genuinely comparable problem.
  InputDeck base = decks::hot_block(12, 1);
  base.solver.eps = 1e-8;
  SweepSpec spec;
  spec.solvers = {"cg"};
  spec.geometries = {2, 3};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);
  ASSERT_EQ(rep.cells.size(), 2u);
  ASSERT_TRUE(rep.cells[0].converged);
  ASSERT_TRUE(rep.cells[1].converged);
  EXPECT_GT(rep.cells[1].iterations, 0);
  EXPECT_LT(std::abs(rep.cells[1].iterations - rep.cells[0].iterations),
            rep.cells[0].iterations);  // same order of magnitude
}


TEST(SweepPrecisionAxis, EnumeratesAsTenthInnermostAxis) {
  SweepSpec spec;
  spec.solvers = {"cg"};
  spec.tile_rows = {0, 8};
  spec.precisions = {"double", "fp32", "mixed"};  // alias canonicalises
  const std::vector<SweepCase> cases = enumerate_cases(spec, 16);
  ASSERT_EQ(cases.size(), 6u);
  ASSERT_EQ(spec.num_cases(), 6u);
  // Precision is the innermost axis and its label suffix comes last.
  EXPECT_EQ(cases[0].label(), "cg/none/d1/n16/t0/fused");
  EXPECT_EQ(cases[1].label(), "cg/none/d1/n16/t0/fused/f32");
  EXPECT_EQ(cases[2].label(), "cg/none/d1/n16/t0/fused/mixed");
  EXPECT_EQ(cases[3].label(), "cg/none/d1/n16/t0/fused/b8");
  EXPECT_EQ(cases[4].label(), "cg/none/d1/n16/t0/fused/b8/f32");
  EXPECT_EQ(cases[5].label(), "cg/none/d1/n16/t0/fused/b8/mixed");
  EXPECT_EQ(cases[1].precision, "single");  // canonical name, not the alias
  spec.precisions = {"half"};
  EXPECT_THROW(spec.validate(), TeaError);
}

TEST(SweepPrecisionAxis, RanksConvergedCellsAndRoundTrips) {
  InputDeck base = decks::hot_block(16, 1);
  base.solver.eps = 1e-8;
  SweepSpec spec;
  spec.solvers = {"cg", "mg-pcg"};
  spec.precisions = {"double", "mixed"};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);
  ASSERT_EQ(rep.cells.size(), 4u);

  // cg runs in both precisions and both converge to the deck's tl_eps;
  // the double and mixed rows agree on the physics (same operator, same
  // target) while taking their own iteration counts.
  EXPECT_FALSE(rep.cells[0].skipped);
  EXPECT_FALSE(rep.cells[1].skipped);
  EXPECT_TRUE(rep.cells[0].converged) << rep.cells[0].config.label();
  EXPECT_TRUE(rep.cells[1].converged) << rep.cells[1].config.label();
  EXPECT_EQ(rep.cells[1].config.label(), "cg/none/d1/n16/t0/fused/mixed");

  // mg-pcg stays double-only: the mixed cell is a reasoned skip, the
  // double cell runs.
  EXPECT_FALSE(rep.cells[2].skipped);
  EXPECT_TRUE(rep.cells[3].skipped);
  EXPECT_NE(rep.cells[3].skip_reason.find("double-only"), std::string::npos);

  // The precision column is written, and survives the JSON round trip.
  const std::vector<std::string> lines = rep.to_csv_lines();
  EXPECT_NE(lines.front().find(",precision,"), std::string::npos);
  const SweepReport json_back =
      SweepReport::from_json_string(rep.to_json().dump(2));
  for (std::size_t i = 0; i < rep.cells.size(); ++i) {
    EXPECT_EQ(json_back.cells[i].config.precision,
              rep.cells[i].config.precision);
    EXPECT_EQ(json_back.cells[i].config.label(), rep.cells[i].config.label());
  }
}

}  // namespace
}  // namespace tealeaf
