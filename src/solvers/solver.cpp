#include "solvers/solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "amg/multigrid.hpp"
#include "model/machine.hpp"
#include "ops/kernels.hpp"
#include "ops/sparse_matrix.hpp"
#include "solvers/cg.hpp"
#include "solvers/chebyshev.hpp"
#include "solvers/jacobi.hpp"
#include "solvers/ppcg.hpp"
#include "solvers/schedule.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"
#include "util/timer.hpp"

namespace tealeaf {

namespace {

/// Record the tile height the solve ran at and the measured fill of an
/// assembled operator, and hand the solve its trace: what the cluster
/// counted since the solve began, with the preconditioner and fill its
/// kernels' traffic depends on.
void finish_stats(const SimCluster2D& cl, const SolverConfig& resolved,
                  SolveStats& stats) {
  const Chunk& c = cl.chunk(0);
  if (c.op_kind() != OperatorKind::kStencil && c.csr() != nullptr) {
    stats.nnz_per_row = c.csr()->nnz_per_row();
  }
  stats.tile_rows = resolved.tile_rows;
  stats.trace = cl.trace();
  stats.trace.precon = resolved.precon;
  stats.trace.nnz_per_row = stats.nnz_per_row;
}

/// The solver body of `resolved.type` on `team`: the one type switch
/// behind run_solver and run_solver_team.  `mg` is the hierarchy of a
/// multigrid config (see dispatch_native).  Records the team's size in
/// the stats and its barrier episodes in the cluster's CommStats.
SolveStats solve_body(SimCluster2D& cl, const SolverConfig& resolved,
                      const Team& team, Multigrid* mg) {
  cl.set_phase(team, Phase::kSetup);
  const std::int64_t barriers_before = team.barriers();
  const auto solve = [&]() -> SolveStats {
    switch (resolved.type) {
      case SolverType::kJacobi:
        return JacobiSolver::solve_team(cl, resolved, team);
      case SolverType::kCG:
        return CGSolver::solve_team(cl, resolved, team, mg);
      case SolverType::kChebyshev:
        return ChebyshevSolver::solve_team(cl, resolved, team);
      case SolverType::kPPCG:
        return PPCGSolver::solve_team(cl, resolved, team);
    }
    TEA_ASSERT(false, "invalid solver type");
  };
  SolveStats st = solve();
  st.threads = team.num_threads();
  team.single(
      [&] { cl.stats().barriers += team.barriers() - barriers_before; });
  return st;
}

/// Build the multigrid hierarchy from the one chunk's coefficients.
std::unique_ptr<Multigrid> hierarchy_of(const Chunk2D& c) {
  if (c.dims() == 3) {
    return std::make_unique<Multigrid>(c.kx(), c.ky(), c.kz(), c.nx(),
                                       c.ny(), c.nz());
  }
  return std::make_unique<Multigrid>(c.kx(), c.ky(), c.nx(), c.ny());
}

/// Run one native solve in one parallel region at the chunks' CURRENT
/// precision activation (the solvers are precision-oblivious: every field
/// access and every operator traversal goes through the kernels' scalar
/// dispatch).  A multigrid config first builds its hierarchy from the
/// chunk's coefficients — its constructors check their inputs and may
/// throw, so before the solve's region, on the one rank's owner thread,
/// where running out of memory is a TeaError — and reports the build
/// time as SolveStats::setup_seconds.
SolveStats dispatch_native(SimCluster2D& cl, const SolverConfig& resolved) {
  std::unique_ptr<Multigrid> mg;
  double setup_seconds = 0.0;
  if (resolved.precon == PreconType::kMultigrid) {
    const Timer setup;
    cl.for_each_chunk([&](int, Chunk2D& c) { mg = hierarchy_of(c); });
    setup_seconds = setup.elapsed_s();
  }
  SolveStats st = solve_in_region(cl, [&](const Team& t) {
    return solve_body(cl, resolved, t, mg.get());
  });
  st.setup_seconds = setup_seconds;
  return st;
}

// ---- mixed-precision execution layer ------------------------------------
// Storage orchestration for Precision::kSingle / kMixed.  The fp32 bank is
// a per-chunk twin of the fp64 fields, allocated by run_solver from
// solve_fields; activation flips Chunk::fp32_active(), which routes
// op_dispatch, the scalar kernels and the halo exchanges over the fp32
// bank.  The fp64 fields are never touched by an active-fp32 solve, so
// the outer refinement loop can read them back untouched.

void downcast_field(Chunk& c, FieldId dst32, FieldId src64) {
  const Field<double>& s = c.field(src64);
  Field<float>& d = c.field32(dst32);
  const double* sp = s.data();
  float* dp = d.data();
  const std::size_t n = s.size();
  for (std::size_t i = 0; i < n; ++i) dp[i] = static_cast<float>(sp[i]);
}

/// Build the fp32 operator: coefficient fields by storage downcast of the
/// freshly built fp64 Kx/Ky/Kz (the direct analogue of downcasting the
/// solve's inputs), assembled CSR by re-assembling from those fp32
/// coefficients IN fp32 arithmetic — never by downcasting fp64-assembled
/// values — so the fp32 stencil and the fp32 CSR stay bitwise equal to
/// each other.  The old twin goes before the new one is assembled, and an
/// assembly that runs out of memory is a TeaError after the region.
void build_fp32_operator(SimCluster2D& cl) {
  const int h = cl.halo_depth();
  const Kernels downcasts =
      cl.mesh().dims == 3
          ? Kernels({Kernel::kDowncast, Kernel::kDowncast, Kernel::kDowncast},
                    h)
          : Kernels({Kernel::kDowncast, Kernel::kDowncast}, h);
  cl.for_each_chunk(downcasts, [&](int, Chunk& c) {
    downcast_field(c, FieldId::kKx, FieldId::kKx);
    downcast_field(c, FieldId::kKy, FieldId::kKy);
    if (c.dims() == 3) downcast_field(c, FieldId::kKz, FieldId::kKz);
    if (c.op_kind() != OperatorKind::kStencil) {
      c.set_assembled_operator32(nullptr);
      c.set_assembled_operator32(
          std::make_shared<CsrMatrix32>(assemble_from_stencil_t<float>(c)));
    }
  });
}

/// Zero the fp32 iterate and work vectors ahead of an inner solve (the
/// refinement loop re-enters with a dirty bank); a field the solve does
/// not use is empty, and its fill does nothing.
void clear_fp32_workspace(Chunk& c) {
  for (const FieldId f : {FieldId::kU, FieldId::kP, FieldId::kR, FieldId::kW,
                          FieldId::kZ, FieldId::kSd, FieldId::kRtemp}) {
    c.field32(f).fill(0.0f);
  }
}

void set_fp32_active(SimCluster2D& cl, bool active) {
  cl.for_each_chunk([&](int, Chunk& c) { c.set_fp32_active(active); });
}

/// fp64 true residual r = u0 − A·u on the fp64 bank (fp32 must be
/// inactive), the refinement guard.  Exchanges u to depth 1 first;
/// returns ‖r‖².
double fp64_true_residual(SimCluster2D& cl) {
  cl.set_phase(Phase::kGuard);
  cl.exchange({FieldId::kU}, 1);
  return cl.sum_over_chunks(
      {Kernel::kResidual},
      [](int, Chunk& c) { return kernels::calc_residual(c); });
}

/// Fold one inner solve's work counters into the aggregate the caller
/// reports (iterations are real work wherever they ran).
void accumulate_inner(SolveStats& agg, const SolveStats& inner) {
  agg.outer_iters += inner.outer_iters;
  agg.inner_steps += inner.inner_steps;
  agg.spmv_applies += inner.spmv_applies;
  agg.eigen_cg_iters += inner.eigen_cg_iters;
  agg.threads = inner.threads;
  if (inner.eigmax > 0.0) {
    agg.eigmin = inner.eigmin;
    agg.eigmax = inner.eigmax;
  }
}

/// Precision::kSingle — the honest all-fp32 mode: downcast the operator
/// and the solve's inputs, run the configured solver entirely over the
/// fp32 bank (same eps; it may stall before a tight tolerance, which is
/// recorded honestly for the sweep to price), upcast the iterate.
SolveStats solve_single(SimCluster2D& cl, const SolverConfig& resolved) {
  build_fp32_operator(cl);
  const Kernels inputs(
      {Kernel::kClearFp32, Kernel::kDowncast, Kernel::kDowncast},
      cl.halo_depth());
  cl.for_each_chunk(inputs, [&](int, Chunk& c) {
    clear_fp32_workspace(c);
    downcast_field(c, FieldId::kU, FieldId::kU);
    downcast_field(c, FieldId::kU0, FieldId::kU0);
  });
  set_fp32_active(cl, true);
  SolveStats stats = dispatch_native(cl, resolved);
  set_fp32_active(cl, false);
  cl.set_phase(Phase::kSetup);
  cl.for_each_chunk({Kernel::kUpcast}, [&](int, Chunk& c) {
    Field<double>& u = c.u();
    const Field<float>& u32 = c.field32(FieldId::kU);
    const Bounds b = interior_bounds(c);
    for (int l = b.llo; l < b.lhi; ++l)
      for (int k = b.klo; k < b.khi; ++k)
        for (int j = b.jlo; j < b.jhi; ++j)
          u(j, k, l) = static_cast<double>(u32(j, k, l));
  });
  return stats;
}

/// Precision::kMixed — fp64-guarded iterative refinement: each pass
/// recomputes the TRUE residual in fp64 (r = u0 − A·u on the fp64 bank),
/// re-solves the correction A·δ = r entirely in fp32 to the contraction
/// still missing, and accumulates u += δ in fp64.  Refinement converges
/// when the fp64 residual meets the caller's eps relative to the INITIAL
/// fp64 residual — the same contract as a double solve.  max_iters bounds
/// the passes together: a spent budget ends the solve unconverged, as a
/// capped double solve ends; a stall, or the pass cap, is a breakdown
/// (the server answers that with a re-route).
SolveStats solve_mixed(SimCluster2D& cl, const SolverConfig& resolved) {
  // The native solvers time their own iteration loops; the refinement
  // wrapper times the WHOLE mixed solve — inner solves, downcasts and the
  // fp64 guard residuals — so the sweep and bench price its true cost.
  Timer timer;
  constexpr int kMaxRefines = 12;
  // fp32 has ~7.2 decimal digits; pushing an inner solve past ~1e-5
  // relative buys nothing the next fp64 refinement pass doesn't redo.
  constexpr double kFp32Floor = 1e-5;
  // A pass asks for half the contraction still missing: the true
  // residual an fp32 pass leaves sits above the norm its recurrence
  // reports (up to ~90x at the floor).
  constexpr double kPassMargin = 0.5;
  SolverConfig inner_cfg = resolved;

  SolveStats stats;
  const double rr0 = fp64_true_residual(cl);
  stats.initial_norm = std::sqrt(std::fabs(rr0));
  if (stats.initial_norm == 0.0) {
    stats.converged = true;
    return stats;
  }
  const double target = resolved.eps * stats.initial_norm;

  cl.set_phase(Phase::kSetup);
  build_fp32_operator(cl);
  double norm = stats.initial_norm;
  int stalls = 0;
  for (int ref = 0; ref <= kMaxRefines; ++ref) {
    // Correction system: fp32 right-hand side = the current fp64
    // residual; zero fp32 initial guess.  The pass stops once it has
    // bought the contraction to the target (norm > target here), or
    // spent what is left of the budget.
    inner_cfg.eps =
        std::max({resolved.eps, kFp32Floor, kPassMargin * target / norm});
    inner_cfg.max_iters = resolved.max_iters - stats.outer_iters;
    cl.set_phase(Phase::kSetup);
    const Kernels rhs({Kernel::kClearFp32, Kernel::kDowncast},
                      cl.halo_depth());
    cl.for_each_chunk(rhs, [&](int, Chunk& c) {
      clear_fp32_workspace(c);
      downcast_field(c, FieldId::kU0, FieldId::kR);
    });
    set_fp32_active(cl, true);
    const SolveStats inner = dispatch_native(cl, inner_cfg);
    set_fp32_active(cl, false);
    accumulate_inner(stats, inner);
    stats.refine_steps = ref;
    if (inner.breakdown) {
      stats.breakdown = true;
      stats.breakdown_reason =
          "mixed: fp32 inner solve broke down (" + inner.breakdown_reason +
          ")";
      break;
    }
    // u += δ in fp64, then the fp64 truth test.
    cl.set_phase(Phase::kGuard);
    cl.for_each_chunk({Kernel::kAddCorrection}, [&](int, Chunk& c) {
      Field<double>& u = c.u();
      const Field<float>& du = c.field32(FieldId::kU);
      const Bounds b = interior_bounds(c);
      for (int l = b.llo; l < b.lhi; ++l)
        for (int k = b.klo; k < b.khi; ++k)
          for (int j = b.jlo; j < b.jhi; ++j)
            u(j, k, l) += static_cast<double>(du(j, k, l));
    });
    const double prev = norm;
    norm = std::sqrt(std::fabs(fp64_true_residual(cl)));
    if (norm <= target) {
      stats.converged = true;
      break;
    }
    // A spent budget ends the solve as a capped double solve ends.
    if (stats.outer_iters >= resolved.max_iters) break;
    // Reuse the inner solve's eigenvalue estimates: the fp32 operator
    // does not change between refinement passes, so later inner solves
    // skip their CG presteps.
    if (inner.eigmax > 0.0 && !inner_cfg.has_eig_hints()) {
      inner_cfg.eig_hint_min = inner.eigmin;
      inner_cfg.eig_hint_max = inner.eigmax;
    }
    // Stall guard: refinement contracts the residual by ~the inner
    // tolerance per pass; two consecutive passes without meaningful
    // contraction mean fp32 has hit its floor above the caller's eps.
    stalls = (norm > 0.5 * prev) ? stalls + 1 : 0;
    if (stalls >= 2) {
      stats.breakdown = true;
      stats.breakdown_reason = "mixed: refinement stalled above tl_eps";
      break;
    }
  }
  if (!stats.converged && !stats.breakdown &&
      stats.outer_iters < resolved.max_iters) {
    stats.breakdown = true;
    stats.breakdown_reason = "mixed: refinement cap reached above tl_eps";
  }
  stats.final_norm = norm;
  stats.solve_seconds = timer.elapsed_s();
  return stats;
}

}  // namespace

FieldBanks solve_fields(const SimCluster2D& cl, const SolverConfig& cfg) {
  FieldSet work{FieldId::kR};
  if (cfg.type != SolverType::kJacobi) {
    work |= {FieldId::kP, FieldId::kW};
    if (cfg.precon != PreconType::kNone) work |= {FieldId::kZ};
    if (cfg.precon == PreconType::kJacobiBlock) {
      work |= {FieldId::kCp, FieldId::kBfp};
    }
    if (cfg.fuse_cg_reductions) work |= {FieldId::kZ, FieldId::kSd};
    if (cfg.type == SolverType::kPPCG) {
      work |= {FieldId::kZ, FieldId::kSd, FieldId::kRtemp};
    }
  }
  const int dims = cl.mesh().dims;
  const FieldSet base = Chunk::base_fields(dims);
  FieldSet operands{FieldId::kU, FieldId::kU0, FieldId::kKx, FieldId::kKy};
  if (dims == 3) operands |= {FieldId::kKz};
  switch (cfg.precision) {
    case Precision::kDouble: return {.fp64 = base | work};
    case Precision::kSingle: return {.fp64 = base, .fp32 = operands | work};
    case Precision::kMixed:
      return {.fp64 = base | FieldSet{FieldId::kR, FieldId::kW},
              .fp32 = operands | work};
  }
  TEA_ASSERT(false, "invalid precision");
}

void check_solvable(const SimCluster2D& cl, const SolverConfig& cfg) {
  cfg.validate();
  TEA_REQUIRE(cfg.halo_depth <= cl.halo_depth(),
              "the cluster's halo is too shallow for the matrix-powers depth "
              "of this solve");
  if (cfg.precon == PreconType::kMultigrid) {
    TEA_REQUIRE(cl.nranks() == 1,
                "the multigrid preconditioner (mg-pcg) solves the "
                "undecomposed grid: run it on one rank");
  }
}

int resolve_tile_rows(const SimCluster2D& cl, const SolverConfig& cfg,
                      const MachineSpec& machine) {
  std::int64_t rows = cfg.tile_rows;
  if (rows < 0) {
    rows = auto_tile_rows(machine, cl.chunk(0).nx(), cl.halo_depth());
  }
  if (cfg.precon == PreconType::kJacobiBlock && rows > 0) {
    // Tiles start at interior row 0, so a height of whole strips keeps the
    // strip solve inside the tile pass.  Capped to stay an int; a height
    // that large covers every plane.
    constexpr std::int64_t kCap =
        std::numeric_limits<int>::max() / kJacBlockSize * kJacBlockSize;
    rows = std::min(round_up(rows, kJacBlockSize), kCap);
  }
  return static_cast<int>(rows);
}

SolveStats run_solver(SimCluster2D& cl, const SolverConfig& cfg,
                      const MachineSpec& machine) {
  check_solvable(cl, cfg);
  SolverConfig resolved = cfg;
  resolved.tile_rows = resolve_tile_rows(cl, cfg, machine);
  cl.allocate(solve_fields(cl, resolved));
  cl.reset_trace();
  SolveStats stats;
  switch (resolved.precision) {
    case Precision::kDouble: stats = dispatch_native(cl, resolved); break;
    case Precision::kSingle: stats = solve_single(cl, resolved); break;
    case Precision::kMixed: stats = solve_mixed(cl, resolved); break;
  }
  finish_stats(cl, resolved, stats);
  return stats;
}

SolveStats run_solver_team(SimCluster2D& cl, const SolverConfig& cfg,
                           const Team& team) {
  TEA_ASSERT(cl.chunk(0).allocated().covers(solve_fields(cl, cfg)),
             "allocate a team solve's fields before its region");
  SolverConfig resolved = cfg;
  resolved.tile_rows = resolve_tile_rows(cl, cfg);
  // Only thread 0 records, so only its stats carry the trace.
  if (team.thread_id() == 0) cl.reset_trace();
  SolveStats stats = solve_body(cl, resolved, team, /*mg=*/nullptr);
  if (team.thread_id() == 0) finish_stats(cl, resolved, stats);
  return stats;
}

}  // namespace tealeaf
