#include "solvers/solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "amg/multigrid.hpp"
#include "model/machine.hpp"
#include "ops/kernels.hpp"
#include "ops/sparse_matrix.hpp"
#include "solvers/cg.hpp"
#include "solvers/chebyshev.hpp"
#include "solvers/jacobi.hpp"
#include "solvers/ppcg.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"
#include "util/parallel.hpp"
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
/// behind solve_batched.  `mg` is the hierarchy of a multigrid config,
/// built before the region.  Records the team's size in the stats and its
/// barrier episodes in the cluster's CommStats.
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

// ---- mixed-precision execution layer ------------------------------------
// Storage orchestration for Precision::kSingle / kMixed.  The fp32 bank is
// a per-chunk twin of the fp64 fields, allocated before the region from
// solve_fields; activation flips Chunk::fp32_active(), which routes
// op_dispatch, the scalar kernels and the halo exchanges over the fp32
// bank.  The fp64 fields are never touched by an active-fp32 solve, so
// the outer refinement loop can read them back untouched.  Only the fp32
// operator is built before the region; the rest runs on the item's team.

void downcast_field(Chunk& c, FieldId dst32, FieldId src64) {
  const Field<double>& s = c.field(src64);
  Field<float>& d = c.field32(dst32);
  const double* sp = s.data();
  float* dp = d.data();
  const std::size_t n = s.size();
  for (std::size_t i = 0; i < n; ++i) dp[i] = static_cast<float>(sp[i]);
}

/// Build the fp32 operator before the region, on the calling thread:
/// coefficient fields by storage downcast of the freshly built fp64
/// Kx/Ky/Kz (the direct analogue of downcasting the solve's inputs),
/// assembled CSR by re-assembling from those fp32 coefficients IN fp32
/// arithmetic — never by downcasting fp64-assembled values — so the fp32
/// stencil and the fp32 CSR stay bitwise equal to each other.  The old
/// twin goes before the new one is assembled, and an assembly that runs
/// out of memory is a TeaError.
void build_fp32_operator(SimCluster2D& cl) {
  const int h = cl.halo_depth();
  const Kernels downcasts =
      cl.mesh().dims == 3
          ? Kernels({Kernel::kDowncast, Kernel::kDowncast, Kernel::kDowncast},
                    h)
          : Kernels({Kernel::kDowncast, Kernel::kDowncast}, h);
  cl.for_each_chunk_serial(downcasts, [&](int, Chunk& c) {
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

/// Route every chunk's kernels and exchanges over the fp32 bank, or back.
/// Barrier, flip on thread 0, barrier: no thread still reads the old flag
/// or bank (a Chebyshev pass can end in its deferred edge pass, which has
/// no barrier after it, on tiles spread over the team), and every thread
/// — the kernels' scalar dispatch, the exchange, elem_bytes() on thread 0
/// — reads the new one.
void set_fp32_active(SimCluster2D& cl, const Team& team, bool active) {
  team.barrier();
  team.single([&] {
    for (int r = 0; r < cl.nranks(); ++r) cl.chunk(r).set_fp32_active(active);
  });
  team.barrier();
}

/// One pass of the configured solver over the fp32 bank, with subnormals
/// flushed to zero.  The FP control register is per thread, so every
/// thread of the team holds a SubnormalFlush around the pass alone: the
/// downcasts, corrections and guard residuals around it keep gradual
/// underflow, and nothing outside an fp32 pass ever runs flushed.
SolveStats fp32_pass(SimCluster2D& cl, const SolverConfig& cfg,
                     const Team& team) {
  set_fp32_active(cl, team, true);
  SolveStats st;
  {
    const SubnormalFlush flush(true);
    st = solve_body(cl, cfg, team, /*mg=*/nullptr);
  }
  set_fp32_active(cl, team, false);
  return st;
}

/// fp64 true residual r = u0 − A·u on the fp64 bank (fp32 inactive), the
/// refinement guard.  Exchanges u to depth 1 first; returns ‖r‖² on every
/// thread of the team.
double fp64_true_residual(SimCluster2D& cl, const Team& team) {
  cl.set_phase(team, Phase::kGuard);
  cl.exchange(team, {FieldId::kU}, 1);
  return cl.sum_over_chunks(
      team, {Kernel::kResidual},
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

/// Precision::kSingle — the honest all-fp32 mode: downcast the solve's
/// inputs, run the configured solver entirely over the fp32 bank (same
/// eps; it may stall before a tight tolerance, which is recorded honestly
/// for the sweep to price), upcast the iterate.
SolveStats solve_single(SimCluster2D& cl, const SolverConfig& resolved,
                        const Team& team) {
  const Kernels inputs(
      {Kernel::kClearFp32, Kernel::kDowncast, Kernel::kDowncast},
      cl.halo_depth());
  cl.for_each_chunk(team, inputs, [&](int, Chunk& c) {
    clear_fp32_workspace(c);
    downcast_field(c, FieldId::kU, FieldId::kU);
    downcast_field(c, FieldId::kU0, FieldId::kU0);
  });
  SolveStats stats = fp32_pass(cl, resolved, team);
  cl.set_phase(team, Phase::kSetup);
  cl.for_each_chunk(team, {Kernel::kUpcast}, [&](int, Chunk& c) {
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
/// (the server answers that with a re-route).  Every reduction is a team
/// reduction, so every thread takes the same branches.
SolveStats solve_mixed(SimCluster2D& cl, const SolverConfig& resolved,
                       const Team& team) {
  // The native solvers time their own iteration loops; the refinement
  // wrapper times the WHOLE mixed solve — inner solves, downcasts and the
  // fp64 guard residuals (solve_batched adds the fp32 operator's build) —
  // so the sweep and bench price its true cost.
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
  const double rr0 = fp64_true_residual(cl, team);
  stats.initial_norm = std::sqrt(std::fabs(rr0));
  if (stats.initial_norm == 0.0) {
    stats.converged = true;
    return stats;
  }
  const double target = resolved.eps * stats.initial_norm;

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
    cl.set_phase(team, Phase::kSetup);
    const Kernels rhs({Kernel::kClearFp32, Kernel::kDowncast},
                      cl.halo_depth());
    cl.for_each_chunk(team, rhs, [&](int, Chunk& c) {
      clear_fp32_workspace(c);
      downcast_field(c, FieldId::kU0, FieldId::kR);
    });
    const SolveStats inner = fp32_pass(cl, inner_cfg, team);
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
    cl.set_phase(team, Phase::kGuard);
    cl.for_each_chunk(team, {Kernel::kAddCorrection}, [&](int, Chunk& c) {
      Field<double>& u = c.u();
      const Field<float>& du = c.field32(FieldId::kU);
      const Bounds b = interior_bounds(c);
      for (int l = b.llo; l < b.lhi; ++l)
        for (int k = b.klo; k < b.khi; ++k)
          for (int j = b.jlo; j < b.jhi; ++j)
            u(j, k, l) += static_cast<double>(du(j, k, l));
    });
    const double prev = norm;
    norm = std::sqrt(std::fabs(fp64_true_residual(cl, team)));
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

/// The step of `it` before the batch's region: everything a solve does
/// that may throw.  Resolves the item's tile height, allocates the fields
/// its cluster lacks, resets the trace, and builds the multigrid
/// hierarchy into `mg` (timed as the item's setup_seconds) or the fp32
/// operator (a mixed solve's solve_seconds count its build).
void set_up_item(BatchItem& it, std::unique_ptr<Multigrid>* mg) {
  TEA_REQUIRE(it.cluster != nullptr, "solve_batched: null cluster");
  SimCluster2D& cl = *it.cluster;
  check_solvable(cl, it.config);
  it.config.tile_rows = resolve_tile_rows(cl, it.config);
  cl.allocate(solve_fields(cl, it.config));
  cl.reset_trace();
  if (mg != nullptr) {
    // Its constructors check their inputs and allocate every level.
    const Timer setup;
    cl.for_each_chunk_serial({}, [&](int, Chunk2D& c) { *mg = hierarchy_of(c); });
    it.stats.setup_seconds = setup.elapsed_s();
  }
  if (it.config.precision != Precision::kDouble) {
    const Timer build;
    build_fp32_operator(cl);
    if (it.config.precision == Precision::kMixed) {
      it.stats.solve_seconds = build.elapsed_s();
    }
  }
}

/// The solve of a set-up item on `team`, inside the batch's region: the
/// precision layer around the solver body.  Thread 0 records the tile
/// height, the fill and the trace.
SolveStats solve_item(const BatchItem& it, const Team& team, Multigrid* mg) {
  SimCluster2D& cl = *it.cluster;
  SolveStats st;
  switch (it.config.precision) {
    case Precision::kDouble: st = solve_body(cl, it.config, team, mg); break;
    case Precision::kSingle: st = solve_single(cl, it.config, team); break;
    case Precision::kMixed: st = solve_mixed(cl, it.config, team); break;
  }
  if (team.thread_id() == 0) finish_stats(cl, it.config, st);
  return st;
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

void solve_batched(std::span<BatchItem> items) {
  // The hierarchies of the mg-pcg items, by item; sized at the first one,
  // so a batch without one allocates nothing here.
  std::vector<std::unique_ptr<Multigrid>> hierarchies;
  int runnable = 0;
  int width = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    BatchItem& it = items[i];
    it.stats = {};
    it.error.clear();
    try {
      std::unique_ptr<Multigrid>* mg = nullptr;
      if (it.config.precon == PreconType::kMultigrid) {
        if (hierarchies.empty()) hierarchies.resize(items.size());
        mg = &hierarchies[i];
      }
      set_up_item(it, mg);
    } catch (const TeaError& e) {
      it.error = e.what();
      continue;
    }
    ++runnable;
    width += it.cluster->team_width();
  }
  if (runnable == 0) return;
  // The region runs the threads its items can use, capped by
  // num_threads(); under a ThreadScope pin both are the pinned count.
  width = std::min(width, num_threads());

  // Sub-team barriers are sized from the region's ACTUAL thread count,
  // which is only known inside, so thread 0 builds them and a region-wide
  // barrier publishes before any sub-team forms.  One group needs none.
  std::vector<std::unique_ptr<SpinBarrier>> bars;
  parallel_region(width, [&](Team& region) {
    const int nt = region.num_threads();
    const int ngroups = std::min(runnable, nt);
    // The runnable items of `group` (the k-th goes to group k mod
    // ngroups), one after another on `team`.  No barrier between items:
    // they run on distinct clusters, and each solve orders its own work.
    const auto run_group = [&](const Team& team, int group) {
      int k = 0;
      for (std::size_t i = 0; i < items.size(); ++i) {
        BatchItem& it = items[i];
        if (!it.error.empty() || k++ % ngroups != group) continue;
        SolveStats st = solve_item(
            it, team, hierarchies.empty() ? nullptr : hierarchies[i].get());
        team.single([&] {
          // Keep what the step before the region measured.
          st.setup_seconds += it.stats.setup_seconds;
          st.solve_seconds += it.stats.solve_seconds;
          it.stats = std::move(st);
        });
      }
    };
    if (ngroups == 1) {
      run_group(region, 0);
      return;
    }
    region.single([&] {
      bars.resize(ngroups);
      for (int g = 0; g < ngroups; ++g) {
        bars[g] = std::make_unique<SpinBarrier>(nt / ngroups +
                                                (g < nt % ngroups ? 1 : 0));
      }
    });
    region.barrier();
    const SubTeamSlot slot = sub_team_slot(region.thread_id(), nt, ngroups);
    const Team sub(slot.local_id, slot.size, bars[slot.group].get());
    run_group(sub, slot.group);
  });
}

SolveStats run_solver(SimCluster2D& cl, const SolverConfig& cfg,
                      const MachineSpec& machine) {
  // Checked before the height resolves against `machine`; solve_batched
  // keeps a resolved height.
  check_solvable(cl, cfg);
  BatchItem item{&cl, cfg, {}, {}};
  item.config.tile_rows = resolve_tile_rows(cl, cfg, machine);
  solve_batched({&item, 1});
  if (!item.error.empty()) throw TeaError(item.error);
  return std::move(item.stats);
}

}  // namespace tealeaf
