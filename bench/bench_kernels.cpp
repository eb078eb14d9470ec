// Kernel and execution-engine benchmarks — the C++ analogue of Listing 1
// and the other per-iteration sweeps.
//
// Modes:
//  * An execution-engine timing of whole untiled solves per solver,
//    each paired with the same solve at tile height 8 (untimed; the
//    engine is bitwise-equivalent, so the iteration counts must agree),
//    written as BENCH_PR2.json, the first point of the repo's recorded
//    perf trajectory.  Always available; needs no external library.
//       ./bench/bench_kernels [--mesh 48] [--ranks 8] [--reps 5]
//                             [--steps 1] [--out BENCH_PR2.json]
//  * A tile-size scan of the tiled execution engine: fixed-iteration
//    solves per solver untiled and tiled for a ladder of row-block
//    heights (plus the auto-derived one), emitting BENCH_PR3.json.
//       ./bench/bench_kernels --tile-scan [--mesh 1024] [--ranks 4]
//                             [--reps 3] [--out BENCH_PR3.json]
//  * A dimension comparison of the unified core (the tea3d fork is
//    retired; 3-D runs the same engine): per solver, fixed-iteration
//    2-D (n²) vs 3-D (m³, similar cell count) solves untiled and tiled,
//    reporting the tiled speedup and the 3-D-vs-2-D cost per
//    cell·iteration.  The mg-pcg baseline rides along (its
//    dimension-generic multigrid hierarchy covers both geometries),
//    paired with the same solve at one thread.  Emits BENCH_PR4.json.
//       ./bench/bench_kernels --dim 3 [--mesh 64] [--mesh3d 16]
//                             [--ranks 4] [--reps 3] [--tile 8]
//                             [--out BENCH_PR4.json]
//  * A solve-server batching comparison: the same fixed-iteration request
//    stream drained at max_batch = 1 (solo: whole-team solves, one after
//    another) vs coalesced into one sub-team batch, checking the batched
//    results stay bitwise identical.  Emits BENCH_PR6.json.
//       ./bench/bench_kernels --server [--mesh 96] [--ranks 2] [--reps 3]
//                             [--requests 8] [--out BENCH_PR6.json]
//  * An assembled-operator comparison: the same w = A·p sweep through the
//    matrix-free stencil and assembled CSR views (bitwise identical by the
//    OperatorView contract), plus fixed-iteration solves per operator
//    representation.  Emits BENCH_PR7.json.
//       ./bench/bench_kernels --spmv [--mesh 96] [--spmv-mesh 512]
//                             [--ranks 2] [--reps 3] [--sweeps 50]
//                             [--out BENCH_PR7.json]
//  * A mixed-precision comparison: fp64 vs fp32 storage at fixed
//    iteration counts (pure element-size streaming, identical schedules)
//    plus a convergent mixed (fp32 inner + fp64 refinement guard) rider
//    per solver, reporting cost per cell·iteration and the iteration/
//    refinement counts.  Emits BENCH_PR9.json.
//       ./bench/bench_kernels --precision [--mesh 256] [--conv-mesh 96]
//                             [--ranks 4] [--reps 3] [--out BENCH_PR9.json]
//  * Google-benchmark microbenchmarks of the individual kernels whose
//    bytes/cell constants feed the performance model (model/scaling.cpp).
//    Built only where the library exists; run with --gbench (extra
//    --benchmark_* flags pass through).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "comm/sim_comm.hpp"
#include "driver/decks.hpp"
#include "driver/sweep.hpp"
#include "driver/tealeaf_app.hpp"
#include "io/json.hpp"
#include "model/machine.hpp"
#include "ops/kernels.hpp"
#include "ops/sparse_matrix.hpp"
#include "precon/preconditioner.hpp"
#include "server/solve_server.hpp"
#include "solvers/solver.hpp"
#include "util/timer.hpp"
#include "util/args.hpp"
#include "util/log.hpp"
#include "util/numeric.hpp"
#include "util/parallel.hpp"

#if defined(TEALEAF_HAVE_BENCHMARK)
#include <benchmark/benchmark.h>
#endif

namespace {

using namespace tealeaf;

#if defined(TEALEAF_HAVE_BENCHMARK)

std::unique_ptr<SimCluster2D> make_chunk(int n) {
  auto cl = std::make_unique<SimCluster2D>(
      GlobalMesh2D(n, n, 0.0, 10.0, 0.0, 10.0), 1, 2);
  // The microbenchmarks below run every work field's kernels.
  cl->allocate({.fp64 = {FieldId::kP, FieldId::kR, FieldId::kW, FieldId::kZ,
                         FieldId::kSd, FieldId::kRtemp, FieldId::kCp,
                         FieldId::kBfp}});
  Chunk2D& c = cl->chunk(0);
  SplitMix64 rng(42);
  c.density().fill(1.0);
  for (int k = -2; k < n + 2; ++k)
    for (int j = -2; j < n + 2; ++j)
      c.density()(j, k) = rng.next_double(0.5, 4.0);
  c.energy().fill(1.0);
  kernels::init_u_u0(c);
  kernels::init_conduction(c, kernels::Coefficient::kConductivity, 4.0, 4.0);
  kernels::block_jacobi_init(c);
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j) {
      c.p()(j, k) = rng.next_double(-1.0, 1.0);
      c.r()(j, k) = rng.next_double(-1.0, 1.0);
    }
  return cl;
}

void BM_Smvp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto cl = make_chunk(n);
  Chunk2D& c = cl->chunk(0);
  for (auto _ : state) {
    kernels::smvp(c, FieldId::kP, FieldId::kW, interior_bounds(c));
    benchmark::DoNotOptimize(c.w()(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
  state.SetBytesProcessed(state.iterations() * n * n * 32);
}
BENCHMARK(BM_Smvp)->Arg(64)->Arg(256)->Arg(512);

void BM_SmvpDotFused(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto cl = make_chunk(n);
  Chunk2D& c = cl->chunk(0);
  for (auto _ : state) {
    const double pw =
        kernels::smvp_dot(c, FieldId::kP, FieldId::kW, interior_bounds(c));
    benchmark::DoNotOptimize(pw);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_SmvpDotFused)->Arg(64)->Arg(256)->Arg(512);

void BM_SmvpExtendedBounds(benchmark::State& state) {
  // The matrix-powers redundant-compute sweep: same kernel, bigger range.
  const int n = static_cast<int>(state.range(0));
  const int ext = static_cast<int>(state.range(1));
  auto cl = std::make_unique<SimCluster2D>(GlobalMesh2D(2 * n, n), 2,
                                           std::max(2, ext + 1));
  cl->allocate({.fp64 = {FieldId::kP, FieldId::kW}});
  Chunk2D& c = cl->chunk(0);
  c.density().fill(1.0);
  cl->exchange({FieldId::kDensity}, std::max(2, ext + 1));
  kernels::init_conduction(c, kernels::Coefficient::kConductivity, 4.0, 4.0);
  for (auto _ : state) {
    kernels::smvp(c, FieldId::kP, FieldId::kW, extended_bounds(c, ext));
    benchmark::DoNotOptimize(c.w()(0, 0));
  }
  state.SetItemsProcessed(state.iterations() *
                          extended_bounds(c, ext).cells());
}
BENCHMARK(BM_SmvpExtendedBounds)
    ->Args({256, 0})
    ->Args({256, 4})
    ->Args({256, 8})
    ->Args({256, 16});

void BM_ChebyStepTile(benchmark::State& state) {
  // One Chebyshev step as the solvers run it at one block per chunk: the
  // tile pass (stencil sweep + inner-row update), then the edge rows.
  const int n = static_cast<int>(state.range(0));
  auto cl = make_chunk(n);
  Chunk2D& c = cl->chunk(0);
  const Bounds in = interior_bounds(c);
  for (auto _ : state) {
    kernels::cheby_step_tile(c, FieldId::kRtemp, FieldId::kSd, FieldId::kZ,
                             0.5, 0.1, PreconType::kJacobiDiag, in, in);
    kernels::cheby_step_tile_edges(c, FieldId::kRtemp, FieldId::kSd,
                                   FieldId::kZ, 0.5, 0.1,
                                   PreconType::kJacobiDiag, in, in);
    benchmark::DoNotOptimize(c.z()(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_ChebyStepTile)->Arg(64)->Arg(256)->Arg(512);

void BM_CalcUrDotFused(benchmark::State& state) {
  // Fused u/r update + diag preconditioner + ⟨r,z⟩: one pass vs three.
  const int n = static_cast<int>(state.range(0));
  auto cl = make_chunk(n);
  Chunk2D& c = cl->chunk(0);
  const Bounds in = interior_bounds(c);
  kernels::smvp(c, FieldId::kP, FieldId::kW, in);
  for (auto _ : state) {
    kernels::calc_ur_dot_rows(c, 1e-3, PreconType::kJacobiDiag, in,
                              c.row_scratch());
    benchmark::DoNotOptimize(c.row_scratch()[0]);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_CalcUrDotFused)->Arg(64)->Arg(256)->Arg(512);

void BM_CalcUrDotUnfusedTriple(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto cl = make_chunk(n);
  Chunk2D& c = cl->chunk(0);
  const Bounds in = interior_bounds(c);
  kernels::smvp(c, FieldId::kP, FieldId::kW, in);
  for (auto _ : state) {
    kernels::cg_calc_ur_rows(c, 1e-3, in);
    kernels::diag_solve(c, FieldId::kR, FieldId::kZ, in);
    benchmark::DoNotOptimize(kernels::dot(c, FieldId::kR, FieldId::kZ));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_CalcUrDotUnfusedTriple)->Arg(64)->Arg(256)->Arg(512);

void BM_BlockJacobiSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto cl = make_chunk(n);
  Chunk2D& c = cl->chunk(0);
  const Bounds in = interior_bounds(c);
  for (auto _ : state) {
    kernels::block_jacobi_solve(c, FieldId::kR, FieldId::kZ, in);
    benchmark::DoNotOptimize(c.z()(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_BlockJacobiSolve)->Arg(64)->Arg(256)->Arg(512);

void BM_DiagSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto cl = make_chunk(n);
  Chunk2D& c = cl->chunk(0);
  for (auto _ : state) {
    kernels::diag_solve(c, FieldId::kR, FieldId::kZ, interior_bounds(c));
    benchmark::DoNotOptimize(c.z()(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_DiagSolve)->Arg(64)->Arg(256)->Arg(512);

void BM_HaloExchange(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int depth = static_cast<int>(state.range(1));
  SimCluster2D cl(GlobalMesh2D(n, n), 4, std::max(2, depth));
  cl.allocate({.fp64 = {FieldId::kSd}});
  for (auto _ : state) {
    cl.exchange({FieldId::kSd}, depth);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HaloExchange)
    ->Args({256, 1})
    ->Args({256, 4})
    ->Args({256, 8})
    ->Args({256, 16});

void BM_JacobiSweep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto cl = make_chunk(n);
  Chunk2D& c = cl->chunk(0);
  const Bounds in = interior_bounds(c);
  for (auto _ : state) {
    kernels::jacobi_tile(c, in, c.row_scratch());
    kernels::jacobi_tile_edges(c, in, c.row_scratch());
    benchmark::DoNotOptimize(c.row_scratch()[0]);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_JacobiSweep)->Arg(64)->Arg(256);

#endif  // TEALEAF_HAVE_BENCHMARK

// ---- execution-engine timing (BENCH_PR2) --------------------------------

struct EngineCase {
  std::string name;
  SolverConfig cfg;
};

std::vector<EngineCase> engine_cases() {
  std::vector<EngineCase> cases;
  SolverConfig cg;
  cg.type = SolverType::kCG;
  cg.eps = 1e-8;
  cases.push_back({"cg", cg});
  SolverConfig chrono = cg;
  chrono.fuse_cg_reductions = true;
  cases.push_back({"cg-chrono", chrono});
  SolverConfig cheby;
  cheby.type = SolverType::kChebyshev;
  cheby.eps = 1e-8;
  cases.push_back({"chebyshev", cheby});
  SolverConfig ppcg;
  ppcg.type = SolverType::kPPCG;
  ppcg.eps = 1e-8;
  cases.push_back({"ppcg", ppcg});
  SolverConfig jacobi;
  jacobi.type = SolverType::kJacobi;
  jacobi.eps = 1e-4;
  cases.push_back({"jacobi", jacobi});
  return cases;
}

/// Best-of-`reps` timing of `steps` driver timesteps with one engine.
/// A fresh app per repetition keeps every run solving the same problem.
double time_solves(const InputDeck& deck, int ranks, int reps, int steps,
                   int* iters) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    TeaLeafApp app(deck, ranks);
    double seconds = 0.0;
    int it = 0;
    for (int s = 0; s < steps; ++s) {
      const SolveStats st = app.step();
      if (!st.converged) {
        std::fprintf(stderr, "warning: %s did not converge\n",
                     to_string(deck.solver.type));
      }
      seconds += st.solve_seconds;
      it += st.outer_iters;
    }
    if (rep == 0 || seconds < best) best = seconds;
    *iters = it;
  }
  return best;
}

int run_engine_comparison(const Args& args) {
  const int mesh = args.get_int("mesh", 48);
  const int ranks = args.get_int("ranks", 8);
  const int reps = args.get_int("reps", 5);
  const int steps = args.get_int("steps", 1);
  const std::string out_path = args.get("out", "BENCH_PR2.json");

  io::JsonValue doc = io::JsonValue::object();
  doc.set("benchmark", "fused execution engine (PR2)");
  doc.set("mesh", mesh);
  doc.set("ranks", ranks);
  doc.set("threads", num_threads());
  doc.set("reps", reps);
  doc.set("steps", steps);
  io::JsonValue arr = io::JsonValue::array();
  for (const EngineCase& ec : engine_cases()) {
    InputDeck deck = decks::hot_block(mesh, steps);
    deck.solver = ec.cfg;
    deck.solver.tile_rows = 0;  // the committed baseline times untiled solves
    int fused_iters = 0;
    const double fused_seconds =
        time_solves(deck, ranks, reps, steps, &fused_iters);
    // Bitwise partner (not timed into the record): the same solve tiled.
    deck.solver.tile_rows = 8;
    int tiled_iters = 0;
    (void)time_solves(deck, ranks, 1, steps, &tiled_iters);
    std::printf("%-10s fused %.6fs  iters %d (tiled b8: %d)%s\n",
                ec.name.c_str(), fused_seconds, fused_iters, tiled_iters,
                fused_iters == tiled_iters ? "" : "  MISMATCH");
    io::JsonValue cell = io::JsonValue::object();
    cell.set("solver", ec.name);
    cell.set("fused_seconds", fused_seconds);
    cell.set("fused_iters", fused_iters);
    cell.set("identical_iterations", fused_iters == tiled_iters);
    arr.push_back(std::move(cell));
  }
  doc.set("solvers", std::move(arr));

  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << doc.dump(2) << "\n";
  std::printf("engine timing at %d threads -> %s\n", num_threads(),
              out_path.c_str());
  return 0;
}

// ---- tile-size scan (BENCH_PR3) -----------------------------------------

/// Fixed-iteration solver configurations for the scan: eps is set far out
/// of reach so every engine runs exactly the same, capped iteration count
/// (the engines are bitwise identical, so the trajectories agree) and the
/// comparison is pure execution speed over identical work.
std::vector<EngineCase> tile_scan_cases() {
  std::vector<EngineCase> cases;
  SolverConfig cg;
  cg.type = SolverType::kCG;
  cg.eps = 1e-300;
  cg.max_iters = 30;
  cases.push_back({"cg", cg});
  SolverConfig chrono = cg;
  chrono.fuse_cg_reductions = true;
  cases.push_back({"cg-chrono", chrono});
  SolverConfig cheby;
  cheby.type = SolverType::kChebyshev;
  cheby.eps = 1e-300;
  cheby.eigen_cg_iters = 10;
  cheby.max_iters = 40;
  cases.push_back({"chebyshev", cheby});
  SolverConfig ppcg;
  ppcg.type = SolverType::kPPCG;
  ppcg.eps = 1e-300;
  ppcg.eigen_cg_iters = 8;
  ppcg.max_iters = 16;
  cases.push_back({"ppcg", ppcg});
  SolverConfig jacobi;
  jacobi.type = SolverType::kJacobi;
  jacobi.eps = 1e-300;
  jacobi.max_iters = 200;
  cases.push_back({"jacobi", jacobi});
  return cases;
}

/// One timed fixed-iteration step (convergence is not expected — eps is
/// unreachable by design).
double time_fixed_once(const InputDeck& deck, int ranks, int* iters) {
  TeaLeafApp app(deck, ranks);
  const SolveStats st = app.step();
  *iters = st.outer_iters;
  return st.solve_seconds;
}

int run_tile_scan(const Args& args) {
  // Fixed-iteration runs hit max_iters by design; the per-run warnings
  // are noise here.
  log::set_level(log::Level::kError);
  const int mesh = args.get_int("mesh", 1024);
  const int ranks = args.get_int("ranks", 4);
  const int reps = args.get_int("reps", 3);
  const std::string out_path = args.get("out", "BENCH_PR3.json");

  const int chunk_n = mesh / std::max(1, static_cast<int>(
                                             std::lround(std::sqrt(ranks))));
  // `auto` sized for Spruce's 256 KB L2 (the rung the committed baseline
  // holds) and for this host's, the height a solve here runs at.
  const int auto_rows =
      auto_tile_rows(machines::spruce_hybrid(), chunk_n, 2);
  const int host_rows = auto_tile_rows(machines::host(), chunk_n, 2);
  // Ladder: small blocks (L2-sized and below), the two auto heights, and
  // the whole chunk (one block per rank — the pure 2-D-scheduling point,
  // no blocking overhead).
  std::vector<int> tiles = {8, 32, 128};
  for (const int extra : {auto_rows, host_rows, chunk_n}) {
    if (std::find(tiles.begin(), tiles.end(), extra) == tiles.end()) {
      tiles.push_back(extra);
    }
  }

  io::JsonValue doc = io::JsonValue::object();
  doc.set("benchmark", "tiled execution engine tile-size scan (PR3)");
  doc.set("mesh", mesh);
  doc.set("ranks", ranks);
  doc.set("threads", num_threads());
  doc.set("reps", reps);
  doc.set("auto_tile_rows", auto_rows);
  doc.set("host_auto_tile_rows", host_rows);
  io::JsonValue arr = io::JsonValue::array();

  double worst_tiled_vs_fused = 0.0;
  for (const EngineCase& ec : tile_scan_cases()) {
    InputDeck deck = decks::hot_block(mesh, 1);
    deck.solver = ec.cfg;

    // Configurations of this solver: untiled, then the tile ladder.
    // Repetitions interleave round-robin so slow drift of the machine
    // (thermals, co-tenants) biases no configuration.
    struct Config {
      int tile_rows;
      double best = 0.0;
      int iters = 0;
    };
    std::vector<Config> configs;
    configs.push_back({0});
    for (const int rows : tiles) configs.push_back({rows});
    // One untimed warmup round, then best-of-reps.  Round-robin with the
    // starting position rotated every rep, so neither slow machine drift
    // nor any position-in-cycle effect biases one configuration.
    for (int rep = -1; rep < reps; ++rep) {
      for (std::size_t i = 0; i < configs.size(); ++i) {
        Config& c = configs[(i + static_cast<std::size_t>(rep + 1)) %
                            configs.size()];
        deck.solver.tile_rows = c.tile_rows;
        const double seconds = time_fixed_once(deck, ranks, &c.iters);
        if (rep <= 0 || seconds < c.best) c.best = seconds;
      }
    }
    const double fused = configs[0].best;
    const int fused_iters = configs[0].iters;

    io::JsonValue tile_arr = io::JsonValue::array();
    double best_tiled = 0.0;
    int best_tile = 0;
    bool identical = true;
    for (std::size_t ci = 1; ci < configs.size(); ++ci) {
      const Config& c = configs[ci];
      io::JsonValue cell = io::JsonValue::object();
      cell.set("tile_rows", c.tile_rows);
      cell.set("seconds", c.best);
      cell.set("speedup_vs_fused", c.best > 0.0 ? fused / c.best : 0.0);
      cell.set("identical_iterations", c.iters == fused_iters);
      identical = identical && c.iters == fused_iters;
      tile_arr.push_back(std::move(cell));
      if (best_tile == 0 || c.best < best_tiled) {
        best_tiled = c.best;
        best_tile = c.tile_rows;
      }
    }

    io::JsonValue entry = io::JsonValue::object();
    entry.set("solver", ec.name);
    entry.set("iters", fused_iters);
    entry.set("fused_untiled_seconds", fused);
    entry.set("tiles", std::move(tile_arr));
    entry.set("best_tile_rows", best_tile);
    entry.set("best_tiled_seconds", best_tiled);
    entry.set("tiled_speedup_vs_fused",
              best_tiled > 0.0 ? fused / best_tiled : 0.0);
    entry.set("identical_iterations", identical);
    arr.push_back(std::move(entry));

    const double ratio = best_tiled > 0.0 ? fused / best_tiled : 0.0;
    if (worst_tiled_vs_fused == 0.0 || ratio < worst_tiled_vs_fused) {
      worst_tiled_vs_fused = ratio;
    }
    std::printf(
        "%-10s fused %.4fs  best tile b%-4d %.4fs  "
        "(tiled/fused %.2fx, iters %d)\n",
        ec.name.c_str(), fused, best_tile, best_tiled, ratio, fused_iters);
  }
  doc.set("solvers", std::move(arr));
  doc.set("min_tiled_speedup_vs_fused", worst_tiled_vs_fused);

  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << doc.dump(2) << "\n";
  std::printf("worst best-tiled vs untiled %.2fx -> %s\n",
              worst_tiled_vs_fused, out_path.c_str());
  return 0;
}

// ---- 2-D vs 3-D unified-core comparison (BENCH_PR4) ----------------------

/// Fixed-iteration configurations shared by both dimensions, so every
/// engine and geometry runs exactly the same capped iteration count.
std::vector<EngineCase> dim_compare_cases() {
  std::vector<EngineCase> cases;
  SolverConfig cg;
  cg.type = SolverType::kCG;
  cg.eps = 1e-300;
  cg.max_iters = 30;
  cases.push_back({"cg", cg});
  SolverConfig chrono = cg;
  chrono.fuse_cg_reductions = true;
  cases.push_back({"cg-chrono", chrono});
  SolverConfig cheby;
  cheby.type = SolverType::kChebyshev;
  cheby.eps = 1e-300;
  cheby.eigen_cg_iters = 10;
  cheby.max_iters = 40;
  cases.push_back({"chebyshev", cheby});
  SolverConfig ppcg;
  ppcg.type = SolverType::kPPCG;
  ppcg.eps = 1e-300;
  ppcg.eigen_cg_iters = 8;
  ppcg.max_iters = 16;
  cases.push_back({"ppcg", ppcg});
  SolverConfig jacobi;
  jacobi.type = SolverType::kJacobi;
  jacobi.eps = 1e-300;
  jacobi.max_iters = 200;
  cases.push_back({"jacobi", jacobi});
  return cases;
}

/// One fixed-iteration mg-pcg solve (CG preconditioned by one multigrid
/// V-cycle; either dimension) on the deck's undecomposed grid, through
/// the session path the sweep and the server run, so the bench measures
/// exactly the configuration the sweep ranks.  Its solve seconds exclude
/// the hierarchy's set-up (SolveStats::setup_seconds).
SolveStats mg_pcg_fixed_once(const InputDeck& base, int max_iters) {
  InputDeck deck = base;
  deck.solver = with_solver_name(deck.solver, "mg-pcg");
  deck.solver.eps = 1e-300;  // unreachable: every run takes max_iters exactly
  deck.solver.max_iters = max_iters;
  SolveSession session(deck, /*nranks=*/1);
  return session.solve();
}

int run_dim_compare(const Args& args) {
  log::set_level(log::Level::kError);  // fixed-iteration runs hit max_iters
  const int mesh2d = args.get_int("mesh", 64);
  const int mesh3d = args.get_int("mesh3d", 16);
  const int ranks = args.get_int("ranks", 4);
  const int reps = args.get_int("reps", 3);
  const int tile = args.get_int("tile", 8);
  const std::string out_path = args.get("out", "BENCH_PR4.json");

  io::JsonValue doc = io::JsonValue::object();
  doc.set("benchmark",
          "dimension-generic core: 2-D vs 3-D fused/tiled engines (PR4)");
  doc.set("mesh_2d", mesh2d);
  doc.set("mesh_3d", mesh3d);
  doc.set("ranks", ranks);
  doc.set("threads", num_threads());
  doc.set("reps", reps);
  doc.set("tile_rows", tile);
  io::JsonValue arr = io::JsonValue::array();

  bool all_identical = true;
  for (const EngineCase& ec : dim_compare_cases()) {
    io::JsonValue entry = io::JsonValue::object();
    entry.set("solver", ec.name);
    for (const int dims : {2, 3}) {
      InputDeck deck = decks::hot_block(mesh2d, 1);
      if (dims == 3) {
        deck.dims = 3;
        deck.x_cells = deck.y_cells = deck.z_cells = mesh3d;
        deck.zmin = deck.xmin;
        deck.zmax = deck.xmax;
      }
      deck.solver = ec.cfg;

      struct Config {
        int tile_rows;
        double best = 0.0;
        int iters = 0;
      };
      std::vector<Config> configs = {{0}, {tile}};
      for (int rep = -1; rep < reps; ++rep) {  // first round is warmup
        for (Config& c : configs) {
          deck.solver.tile_rows = c.tile_rows;
          const double s = time_fixed_once(deck, ranks, &c.iters);
          if (rep <= 0 || s < c.best) c.best = s;
        }
      }
      const bool identical = configs[0].iters == configs[1].iters;
      all_identical = all_identical && identical;
      const long long cells = dims == 3
                                  ? 1LL * mesh3d * mesh3d * mesh3d
                                  : 1LL * mesh2d * mesh2d;
      io::JsonValue d = io::JsonValue::object();
      d.set("cells", cells);
      d.set("iters", configs[0].iters);
      d.set("fused_seconds", configs[0].best);
      d.set("tiled_seconds", configs[1].best);
      d.set("tiled_speedup_vs_fused",
            configs[1].best > 0.0 ? configs[0].best / configs[1].best : 0.0);
      const double per_cell_iter =
          configs[0].iters > 0
              ? configs[0].best /
                    (static_cast<double>(cells) * configs[0].iters)
              : 0.0;
      d.set("fused_seconds_per_cell_iter", per_cell_iter);
      d.set("identical_iterations", identical);
      entry.set(dims == 3 ? "3d" : "2d", std::move(d));
      std::printf("%-10s %dD fused %.4fs tiled(b%d) %.4fs (iters %d%s)\n",
                  ec.name.c_str(), dims, configs[0].best, tile,
                  configs[1].best, configs[0].iters,
                  identical ? "" : " MISMATCH");
    }
    const double s2 = entry.at("2d").at("fused_seconds_per_cell_iter")
                          .as_number();
    const double s3 = entry.at("3d").at("fused_seconds_per_cell_iter")
                          .as_number();
    entry.set("cost_ratio_3d_vs_2d_per_cell_iter",
              s2 > 0.0 ? s3 / s2 : 0.0);
    arr.push_back(std::move(entry));
  }

  // The mg-pcg baseline rides the same comparison now that the multigrid
  // hierarchy is dimension-generic: fixed-iteration solves per geometry
  // at the deck's tile height, each paired with the same solve at one
  // thread — untimed, and bitwise equal by the row-ordered reductions.
  {
    const int mg_iters = 8;
    io::JsonValue entry = io::JsonValue::object();
    entry.set("solver", "mg-pcg");
    for (const int dims : {2, 3}) {
      InputDeck deck = decks::hot_block(mesh2d, 1);
      if (dims == 3) {
        deck.dims = 3;
        deck.x_cells = deck.y_cells = deck.z_cells = mesh3d;
        deck.zmin = deck.xmin;
        deck.zmax = deck.xmax;
      }
      SolveStats team;
      double best = 0.0;
      for (int rep = -1; rep < reps; ++rep) {  // first round is warmup
        team = mg_pcg_fixed_once(deck, mg_iters);
        if (rep <= 0 || team.solve_seconds < best) best = team.solve_seconds;
      }
      SolveStats one;
      {
        const ThreadScope one_thread(1);
        one = mg_pcg_fixed_once(deck, mg_iters);
      }
      const bool identical = team.outer_iters == one.outer_iters &&
                             team.final_norm == one.final_norm;
      all_identical = all_identical && identical;
      const long long cells = dims == 3
                                  ? 1LL * mesh3d * mesh3d * mesh3d
                                  : 1LL * mesh2d * mesh2d;
      io::JsonValue d = io::JsonValue::object();
      d.set("cells", cells);
      d.set("iters", team.outer_iters);
      d.set("fused_seconds", best);
      const double per_cell_iter =
          team.outer_iters > 0
              ? best / (static_cast<double>(cells) * team.outer_iters)
              : 0.0;
      d.set("fused_seconds_per_cell_iter", per_cell_iter);
      d.set("identical_iterations", identical);
      entry.set(dims == 3 ? "3d" : "2d", std::move(d));
      std::printf("%-10s %dD fused %.4fs (iters %d%s)\n", "mg-pcg", dims,
                  best, team.outer_iters, identical ? "" : " MISMATCH");
    }
    const double s2 = entry.at("2d").at("fused_seconds_per_cell_iter")
                          .as_number();
    const double s3 = entry.at("3d").at("fused_seconds_per_cell_iter")
                          .as_number();
    entry.set("cost_ratio_3d_vs_2d_per_cell_iter",
              s2 > 0.0 ? s3 / s2 : 0.0);
    arr.push_back(std::move(entry));
  }
  doc.set("solvers", std::move(arr));
  doc.set("identical_iterations", all_identical);

  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << doc.dump(2) << "\n";
  std::printf("2-D vs 3-D comparison -> %s\n", out_path.c_str());
  return 0;
}

// ---- solve-server batching (BENCH_PR6) ----------------------------------

/// Fixed-iteration fused configurations for the server stream: eps is out
/// of reach so every request runs the same capped iteration count and the
/// solo-vs-batched comparison is pure scheduling, not convergence luck.
std::vector<EngineCase> server_bench_cases() {
  std::vector<EngineCase> cases;
  SolverConfig cg;
  cg.type = SolverType::kCG;
  cg.eps = 1e-300;
  cg.max_iters = 30;
  cg.tile_rows = 0;  // untiled, like the committed baseline
  cases.push_back({"cg", cg});
  SolverConfig cheby = cg;
  cheby.type = SolverType::kChebyshev;
  cheby.eigen_cg_iters = 10;
  cheby.max_iters = 40;
  cases.push_back({"chebyshev", cheby});
  SolverConfig ppcg = cg;
  ppcg.type = SolverType::kPPCG;
  ppcg.eigen_cg_iters = 8;
  ppcg.max_iters = 16;
  cases.push_back({"ppcg", ppcg});
  SolverConfig jacobi = cg;
  jacobi.type = SolverType::kJacobi;
  jacobi.max_iters = 200;
  cases.push_back({"jacobi", jacobi});
  return cases;
}

/// Wall seconds to drain `nreq` identical requests at one coalescing
/// width.  max_batch = 1 is the solo baseline (every request solves with
/// the full thread team, sequentially); max_batch = nreq coalesces the
/// whole stream into one sub-team batch.
double time_server_stream(const InputDeck& deck, int ranks, int nreq,
                          int max_batch, int* iters, double* norm) {
  ServerOptions opts;
  opts.max_batch = max_batch;
  opts.max_sessions = static_cast<std::size_t>(nreq);
  SolveServer server(std::move(opts));
  for (int i = 0; i < nreq; ++i) {
    SolveRequest req;
    req.deck = deck;
    req.nranks = ranks;
    server.submit(std::move(req));
  }
  Timer timer;
  const std::vector<SolveResult> results = server.drain();
  const double seconds = timer.elapsed_s();
  *iters = results.front().stats.outer_iters;
  *norm = results.front().stats.final_norm;
  for (const SolveResult& r : results) {
    if (r.stats.outer_iters != *iters || r.stats.final_norm != *norm) {
      std::fprintf(stderr, "warning: %s stream results diverged\n",
                   to_string(deck.solver.type));
    }
  }
  return seconds;
}

int run_server_bench(const Args& args) {
  log::set_level(log::Level::kError);  // fixed-iteration runs hit max_iters
  const int mesh = args.get_int("mesh", 96);
  const int ranks = args.get_int("ranks", 2);
  const int reps = args.get_int("reps", 3);
  const int nreq = args.get_int("requests", 8);
  const std::string out_path = args.get("out", "BENCH_PR6.json");

  io::JsonValue doc = io::JsonValue::object();
  doc.set("benchmark", "solve-server batched many-solve engine (PR6)");
  doc.set("mesh", mesh);
  doc.set("ranks", ranks);
  doc.set("threads", num_threads());
  doc.set("reps", reps);
  doc.set("requests", nreq);
  io::JsonValue arr = io::JsonValue::array();

  bool all_identical = true;
  for (const EngineCase& ec : server_bench_cases()) {
    InputDeck deck = decks::hot_block(mesh, 1);
    deck.solver = ec.cfg;
    double solo = 0.0, batched = 0.0;
    int solo_iters = 0, batched_iters = 0;
    double solo_norm = 0.0, batched_norm = 0.0;
    for (int rep = -1; rep < reps; ++rep) {  // first round is warmup
      const double s =
          time_server_stream(deck, ranks, nreq, 1, &solo_iters, &solo_norm);
      const double b = time_server_stream(deck, ranks, nreq, nreq,
                                          &batched_iters, &batched_norm);
      if (rep <= 0 || s < solo) solo = s;
      if (rep <= 0 || b < batched) batched = b;
    }
    // The batch ≡ solo invariant, observed where it is load-bearing.
    const bool identical =
        solo_iters == batched_iters && solo_norm == batched_norm;
    all_identical = all_identical && identical;
    io::JsonValue cell = io::JsonValue::object();
    cell.set("solver", ec.name);
    cell.set("cells", 1LL * mesh * mesh);
    cell.set("iters", solo_iters);
    cell.set("solo_seconds", solo);
    cell.set("batched_seconds", batched);
    cell.set("batch_speedup", batched > 0.0 ? solo / batched : 0.0);
    cell.set("identical_results", identical);
    arr.push_back(std::move(cell));
    std::printf("%-10s %d requests: solo %.4fs batched %.4fs  "
                "speedup %.2fx  iters %d%s\n",
                ec.name.c_str(), nreq, solo, batched,
                batched > 0.0 ? solo / batched : 0.0, solo_iters,
                identical ? "" : "  MISMATCH");
  }
  doc.set("solvers", std::move(arr));
  doc.set("identical_results", all_identical);

  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << doc.dump(2) << "\n";
  std::printf("solve-server batching -> %s\n", out_path.c_str());
  return all_identical ? 0 : 1;
}

// ---- mixed-precision execution layer (BENCH_PR9) -------------------------

/// Fixed-iteration configurations for the fp64-vs-fp32 bandwidth A/B: eps
/// is unreachable so both precisions run exactly the same capped
/// iteration count and the comparison is pure element-size streaming.
std::vector<EngineCase> precision_bench_cases() {
  std::vector<EngineCase> cases;
  SolverConfig cg;
  cg.type = SolverType::kCG;
  cg.eps = 1e-300;
  cg.max_iters = 30;
  cg.tile_rows = 0;  // untiled, like the committed baseline
  cases.push_back({"cg", cg});
  SolverConfig cheby = cg;
  cheby.type = SolverType::kChebyshev;
  cheby.eigen_cg_iters = 10;
  cheby.max_iters = 40;
  cases.push_back({"chebyshev", cheby});
  SolverConfig ppcg = cg;
  ppcg.type = SolverType::kPPCG;
  ppcg.eigen_cg_iters = 8;
  ppcg.max_iters = 16;
  cases.push_back({"ppcg", ppcg});
  SolverConfig jacobi = cg;
  jacobi.type = SolverType::kJacobi;
  jacobi.max_iters = 200;
  cases.push_back({"jacobi", jacobi});
  return cases;
}

/// One driver timestep, returning the full stats (the mixed rider needs
/// refine_steps and convergence, not just the iteration count).
SolveStats step_once(const InputDeck& deck, int ranks) {
  TeaLeafApp app(deck, ranks);
  return app.step();
}

int run_precision_bench(const Args& args) {
  log::set_level(log::Level::kError);  // fixed-iteration runs hit max_iters
  // 512² is firmly bandwidth-bound in this container; smaller meshes sit
  // in cache where fp64's fused loops can out-run fp32's convert-heavy
  // reductions on some solvers.
  const int mesh = args.get_int("mesh", 512);
  const int conv_mesh = args.get_int("conv-mesh", 96);
  const int ranks = args.get_int("ranks", 4);
  const int reps = args.get_int("reps", 3);
  const std::string out_path = args.get("out", "BENCH_PR9.json");

  io::JsonValue doc = io::JsonValue::object();
  doc.set("benchmark",
          "mixed-precision execution layer: fp64 vs fp32 vs mixed (PR9)");
  doc.set("mesh", mesh);
  doc.set("conv_mesh", conv_mesh);
  doc.set("ranks", ranks);
  doc.set("threads", num_threads());
  doc.set("reps", reps);
  io::JsonValue arr = io::JsonValue::array();

  bool all_identical = true;
  double min_gate_speedup = 0.0;  // worst of {jacobi, chebyshev}
  for (const EngineCase& ec : precision_bench_cases()) {
    // fp64 vs fp32 at fixed iterations: same solver, same capped count,
    // only the storage element size differs.
    InputDeck deck = decks::hot_block(mesh, 1);
    deck.solver = ec.cfg;
    struct Config {
      Precision precision;
      double best = 0.0;
      int iters = 0;
    };
    std::vector<Config> configs = {{Precision::kDouble},
                                   {Precision::kSingle}};
    for (int rep = -1; rep < reps; ++rep) {  // first round is warmup
      for (std::size_t i = 0; i < configs.size(); ++i) {
        Config& c = configs[(i + static_cast<std::size_t>(rep + 1)) %
                            configs.size()];
        deck.solver.precision = c.precision;
        const double s = time_fixed_once(deck, ranks, &c.iters);
        if (rep <= 0 || s < c.best) c.best = s;
      }
    }
    const bool identical = configs[0].iters == configs[1].iters;
    all_identical = all_identical && identical;
    const long long cells = 1LL * mesh * mesh;
    const auto per_cell_iter = [&](double seconds, int iters) {
      return iters > 0 ? seconds / (static_cast<double>(cells) * iters)
                       : 0.0;
    };
    const double fp64_pci = per_cell_iter(configs[0].best, configs[0].iters);
    const double fp32_pci = per_cell_iter(configs[1].best, configs[1].iters);
    const double fp32_speedup = fp32_pci > 0.0 ? fp64_pci / fp32_pci : 0.0;

    // The mixed rider: a real convergent solve (fp32 inner solves under
    // the fp64 refinement guard) against the fp64 solve of the same
    // problem, normalised per cell and per aggregate iteration.
    InputDeck conv = decks::hot_block(conv_mesh, 1);
    conv.solver = ec.cfg;
    conv.solver.eps = ec.cfg.type == SolverType::kJacobi ? 1e-4 : 1e-8;
    conv.solver.max_iters = 200000;
    SolveStats mixed_st, fp64_st;
    double mixed_best = 0.0, fp64_best = 0.0;
    for (int rep = -1; rep < reps; ++rep) {
      conv.solver.precision = Precision::kMixed;
      mixed_st = step_once(conv, ranks);
      conv.solver.precision = Precision::kDouble;
      fp64_st = step_once(conv, ranks);
      if (rep <= 0 || mixed_st.solve_seconds < mixed_best) {
        mixed_best = mixed_st.solve_seconds;
      }
      if (rep <= 0 || fp64_st.solve_seconds < fp64_best) {
        fp64_best = fp64_st.solve_seconds;
      }
    }
    const long long conv_cells = 1LL * conv_mesh * conv_mesh;
    const double mixed_pci =
        mixed_st.outer_iters > 0
            ? mixed_best /
                  (static_cast<double>(conv_cells) * mixed_st.outer_iters)
            : 0.0;
    const double conv_fp64_pci =
        fp64_st.outer_iters > 0
            ? fp64_best /
                  (static_cast<double>(conv_cells) * fp64_st.outer_iters)
            : 0.0;

    io::JsonValue cell = io::JsonValue::object();
    cell.set("solver", ec.name);
    cell.set("cells", cells);
    cell.set("iters", configs[0].iters);
    cell.set("fp64_seconds", configs[0].best);
    cell.set("fp32_seconds", configs[1].best);
    cell.set("fp64_seconds_per_cell_iter", fp64_pci);
    cell.set("fp32_seconds_per_cell_iter", fp32_pci);
    cell.set("fp32_speedup_per_cell_iter", fp32_speedup);
    cell.set("identical_iterations", identical);
    cell.set("mixed_converged", mixed_st.converged);
    cell.set("mixed_iters", mixed_st.outer_iters);
    cell.set("mixed_refine_steps", mixed_st.refine_steps);
    cell.set("mixed_seconds", mixed_best);
    cell.set("mixed_seconds_per_cell_iter", mixed_pci);
    cell.set("fp64_conv_iters", fp64_st.outer_iters);
    cell.set("fp64_conv_seconds", fp64_best);
    cell.set("fp64_conv_seconds_per_cell_iter", conv_fp64_pci);
    cell.set("mixed_cost_vs_fp64_per_cell_iter",
             conv_fp64_pci > 0.0 ? mixed_pci / conv_fp64_pci : 0.0);
    arr.push_back(std::move(cell));

    if (ec.name == "jacobi" || ec.name == "chebyshev") {
      if (min_gate_speedup == 0.0 || fp32_speedup < min_gate_speedup) {
        min_gate_speedup = fp32_speedup;
      }
    }
    std::printf(
        "%-10s fp64 %.4fs  fp32 %.4fs  (fp32 %.2fx per cell-iter, "
        "iters %d%s)  mixed: %d iters, %d refines%s\n",
        ec.name.c_str(), configs[0].best, configs[1].best, fp32_speedup,
        configs[0].iters, identical ? "" : " MISMATCH",
        mixed_st.outer_iters, mixed_st.refine_steps,
        mixed_st.converged ? "" : " NOT CONVERGED");
  }
  doc.set("solvers", std::move(arr));
  doc.set("identical_iterations", all_identical);
  doc.set("min_fp32_speedup_jacobi_cheby", min_gate_speedup);

  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << doc.dump(2) << "\n";
  std::printf("mixed-precision comparison (gate %.2fx) -> %s\n",
              min_gate_speedup, out_path.c_str());
  return 0;
}

// ---- assembled-operator comparison (BENCH_PR7) ---------------------------

/// Single-rank, single-chunk conduction problem with a deterministic p —
/// the operand of the raw SpMV sweep.  Halo p stays zero, which the kept
/// boundary-face zeros of the assembled matrices multiply away exactly
/// like the stencil does.
std::unique_ptr<SimCluster2D> make_spmv_problem(int n) {
  auto cl = std::make_unique<SimCluster2D>(
      GlobalMesh2D(n, n, 0.0, 10.0, 0.0, 10.0), 1, 2);
  cl->allocate({.fp64 = {FieldId::kP, FieldId::kW}});
  Chunk2D& c = cl->chunk(0);
  SplitMix64 rng(7);
  c.density().fill(1.0);
  c.energy().fill(1.0);
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j) c.density()(j, k) = rng.next_double(0.5, 4.0);
  cl->exchange({FieldId::kDensity, FieldId::kEnergy1}, 2);
  kernels::init_u_u0(c);
  kernels::init_conduction(c, kernels::Coefficient::kConductivity, 4.0, 4.0);
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j) c.p()(j, k) = rng.next_double(-1.0, 1.0);
  return cl;
}

int run_spmv_bench(const Args& args) {
  log::set_level(log::Level::kError);  // fixed-iteration runs hit max_iters
  const int mesh = args.get_int("mesh", 96);
  const int spmv_mesh = args.get_int("spmv-mesh", 512);
  const int ranks = args.get_int("ranks", 2);
  const int reps = args.get_int("reps", 3);
  const int sweeps = args.get_int("sweeps", 50);
  const std::string out_path = args.get("out", "BENCH_PR7.json");

  io::JsonValue doc = io::JsonValue::object();
  doc.set("benchmark", "assembled operators: stencil vs CSR (PR7)");
  doc.set("mesh", mesh);
  doc.set("spmv_mesh", spmv_mesh);
  doc.set("ranks", ranks);
  doc.set("threads", num_threads());
  doc.set("reps", reps);
  doc.set("sweeps", sweeps);
  io::JsonValue arr = io::JsonValue::array();
  bool all_identical = true;

  // Raw SpMV: the same w = A·p sweep through each operator view on one
  // chunk, bitwise-compared against the stencil result.
  {
    auto cl = make_spmv_problem(spmv_mesh);
    Chunk2D& c = cl->chunk(0);
    const Bounds bounds = interior_bounds(c);
    auto csr = std::make_shared<const CsrMatrix>(assemble_from_stencil(c));

    struct OpResult {
      OperatorKind kind;
      double best = 0.0;
      bool identical = true;
    };
    std::vector<OpResult> ops = {{OperatorKind::kStencil},
                                 {OperatorKind::kCsr}};
    std::vector<double> w_ref;
    for (OpResult& op : ops) {
      if (op.kind == OperatorKind::kCsr) {
        c.set_assembled_operator(csr);
      } else {
        c.clear_assembled_operator();
      }
      kernels::smvp(c, FieldId::kP, FieldId::kW, bounds);  // warmup
      std::vector<double> w;
      w.reserve(static_cast<std::size_t>(spmv_mesh) * spmv_mesh);
      for (int k = 0; k < spmv_mesh; ++k)
        for (int j = 0; j < spmv_mesh; ++j) w.push_back(c.w()(j, k));
      if (w_ref.empty()) {
        w_ref = std::move(w);
      } else {
        op.identical = w == w_ref;  // exact doubles: bitwise on finite data
      }
      all_identical = all_identical && op.identical;
      for (int rep = 0; rep < reps; ++rep) {
        Timer timer;
        for (int s = 0; s < sweeps; ++s)
          kernels::smvp(c, FieldId::kP, FieldId::kW, bounds);
        const double seconds = timer.elapsed_s();
        if (rep == 0 || seconds < op.best) op.best = seconds;
      }
      std::printf("spmv       %-12s %d sweeps %.4fs%s\n",
                  to_string(op.kind), sweeps, op.best,
                  op.identical ? "" : "  MISMATCH");
    }
    io::JsonValue entry = io::JsonValue::object();
    entry.set("solver", "spmv");
    entry.set("cells", 1LL * spmv_mesh * spmv_mesh);
    entry.set("iters", sweeps);
    entry.set("nnz_per_row", csr->nnz_per_row());
    entry.set("stencil_seconds", ops[0].best);
    entry.set("csr_seconds", ops[1].best);
    entry.set("csr_cost_vs_stencil",
              ops[0].best > 0.0 ? ops[1].best / ops[0].best : 0.0);
    entry.set("identical_results", ops[1].identical);
    arr.push_back(std::move(entry));
  }

  // Whole fixed-iteration solves per operator representation: same capped
  // iteration counts, so any iteration drift between representations is a
  // bitwise-equivalence bug, and the timings compare pure SpMV cost in
  // its solver context.
  for (const EngineCase& ec : tile_scan_cases()) {
    InputDeck deck = decks::hot_block(mesh, 1);
    deck.solver = ec.cfg;
    deck.solver.tile_rows = 0;  // untiled, like the committed baseline

    struct Config {
      OperatorKind op;
      double best = 0.0;
      int iters = 0;
    };
    std::vector<Config> configs = {{OperatorKind::kStencil},
                                   {OperatorKind::kCsr}};
    for (int rep = -1; rep < reps; ++rep) {  // first round is warmup
      for (Config& c : configs) {
        deck.solver.op = c.op;
        const double s = time_fixed_once(deck, ranks, &c.iters);
        if (rep <= 0 || s < c.best) c.best = s;
      }
    }
    const bool identical = configs[0].iters == configs[1].iters;
    all_identical = all_identical && identical;
    io::JsonValue entry = io::JsonValue::object();
    entry.set("solver", ec.name);
    entry.set("cells", 1LL * mesh * mesh);
    entry.set("iters", configs[0].iters);
    entry.set("stencil_seconds", configs[0].best);
    entry.set("csr_seconds", configs[1].best);
    entry.set("csr_cost_vs_stencil",
              configs[0].best > 0.0 ? configs[1].best / configs[0].best : 0.0);
    entry.set("identical_iterations", identical);
    arr.push_back(std::move(entry));
    std::printf("%-10s stencil %.4fs  csr %.4fs  iters %d%s\n",
                ec.name.c_str(), configs[0].best, configs[1].best,
                configs[0].iters, identical ? "" : "  MISMATCH");
  }
  doc.set("solvers", std::move(arr));
  doc.set("identical_results", all_identical);

  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << doc.dump(2) << "\n";
  std::printf("assembled-operator comparison -> %s\n", out_path.c_str());
  return all_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Every series runs at the thread count its record states,
  // num_threads(): unpinned, a small mesh's solves would run on the
  // narrower team_width of its cells.
  const ThreadScope recorded(num_threads());
#if defined(TEALEAF_HAVE_BENCHMARK)
  if (Args(argc, argv).has("gbench")) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
  }
#endif
  // Every mode's flags; each mode reads its own, at its own defaults.
  const std::vector<Flag> flags = {
      {"precision", Flag::kBool}, {"spmv", Flag::kBool},
      {"server", Flag::kBool},    {"tile-scan", Flag::kBool},
      {"dim", Flag::kInt},        {"mesh", Flag::kInt},
      {"mesh3d", Flag::kInt},     {"conv-mesh", Flag::kInt},
      {"spmv-mesh", Flag::kInt},  {"ranks", Flag::kInt},
      {"reps", Flag::kInt},       {"steps", Flag::kInt},
      {"tile", Flag::kInt},       {"requests", Flag::kInt},
      {"sweeps", Flag::kInt},     {"out"}};
  return run_main(argc, argv, flags, [](const Args& args) {
    if (args.enabled("precision")) return run_precision_bench(args);
    if (args.enabled("spmv")) return run_spmv_bench(args);
    if (args.enabled("server")) return run_server_bench(args);
    if (args.enabled("tile-scan")) return run_tile_scan(args);
    if (args.get_int("dim", 2) == 3) return run_dim_compare(args);
    return run_engine_comparison(args);
  });
}
