#include "solvers/cg.hpp"

#include <cmath>

#include "amg/multigrid.hpp"
#include "ops/kernels.hpp"
#include "precon/preconditioner.hpp"
#include "util/timer.hpp"

namespace tealeaf {

namespace {

constexpr const char* kPwBreakdown =
    "CG breakdown: ⟨p, A·p⟩ <= 0 (operator not SPD?)";

/// z = one V-cycle of r on the whole team, then ⟨r, z⟩ as a row-ordered
/// reduction (`then_rows`, the kernels `then` names, also runs on each
/// tile of that pass).  The V-cycle reads every r row, so a barrier
/// orders it after the caller's r update; it ends in a barrier itself.
/// The trace does not price the V-cycle (mg-pcg keeps its own model).
template <class Rows>
double v_cycle_dot(SimCluster2D& cl, Multigrid& mg, const Team& team,
                   int tile_rows, const Kernels& then, Rows&& then_rows) {
  Chunk2D& c0 = cl.chunk(0);
  team.barrier();
  mg.v_cycle(c0.field(FieldId::kR), c0.field(FieldId::kZ), team);
  return cl.sum_rows_over_chunks(
      team, tile_rows, then, [&](int, Chunk2D& c, const Bounds& tb) {
        then_rows(c, tb);
        kernels::dot_rows(c, FieldId::kR, FieldId::kZ, tb, c.row_scratch());
      });
}

}  // namespace

double cg_setup(SimCluster2D& cl, PreconType precon, const Team& team,
                Multigrid* mg) {
  // Every collective workshares on the team; the chunk sweeps between
  // reductions reuse the same rank→thread mapping, so no extra barriers
  // are needed (each thread reads only fields it wrote itself).
  cl.exchange(team, {FieldId::kU}, 1);
  if (precon == PreconType::kNone) {
    // r = u0 − A·u, p = r; rro = ⟨r,r⟩ folded into the residual sweep.
    return cl.sum_over_chunks(
        team, {Kernel::kResidual, Kernel::kCopy}, [](int, Chunk2D& c) {
          const double rr = kernels::calc_residual(c);
          kernels::copy(c, FieldId::kP, FieldId::kR, interior_bounds(c));
          return rr;
        });
  }
  if (precon == PreconType::kMultigrid) {
    cl.for_each_chunk(team, {Kernel::kResidual},
                      [](int, Chunk2D& c) { kernels::calc_residual(c); });
    return v_cycle_dot(cl, *mg, team, 0, {Kernel::kCopy, Kernel::kDot},
                       [](Chunk2D& c, const Bounds& tb) {
                         kernels::copy(c, FieldId::kP, FieldId::kZ, tb);
                       });
  }
  const bool block = precon == PreconType::kJacobiBlock;
  const Kernels set_up =
      block ? Kernels{Kernel::kResidual, Kernel::kBlockInit, Kernel::kPrecon,
                      Kernel::kCopy}
            : Kernels{Kernel::kResidual, Kernel::kPrecon, Kernel::kCopy};
  cl.for_each_chunk(team, set_up, [&](int, Chunk2D& c) {
    kernels::calc_residual(c);
    if (block) kernels::block_jacobi_init(c);
    kernels::apply_preconditioner(c, precon, FieldId::kR, FieldId::kZ);
    kernels::copy(c, FieldId::kP, FieldId::kZ, interior_bounds(c));
  });
  return cl.sum_over_chunks(team, {Kernel::kDot}, [](int, const Chunk2D& c) {
    return kernels::dot(c, FieldId::kR, FieldId::kZ);
  });
}

double cg_iteration(SimCluster2D& cl, PreconType precon, double rro,
                    CGRecurrence* rec, bool& breakdown, const Team& team,
                    int tile_rows, Multigrid* mg) {
  const auto interior = [](int, Chunk2D& c) { return interior_bounds(c); };
  cl.exchange(team, {FieldId::kP}, 1);
  const double pw = cl.sum_rows_over_chunks(
      team, tile_rows, {Kernel::kSmvp}, [](int, Chunk2D& c, const Bounds& tb) {
        kernels::smvp_dot_rows(c, FieldId::kP, FieldId::kW,
                               interior_bounds(c), tb, c.row_scratch());
      });
  if (!(pw > 0.0)) {
    // Numerical breakdown (pw <= 0 or NaN).  The value is identical on
    // every thread, so the branch is uniform.
    breakdown = true;
    return rro;
  }
  const double alpha = rro / pw;

  // u += α·p, r −= α·w, z = M⁻¹r and ⟨r,z⟩ in one pass.
  double rrn;
  if (precon == PreconType::kMultigrid) {
    // The V-cycle couples the whole grid: row-tile the pointwise update,
    // then precondition and reduce ⟨r,z⟩.
    cl.for_each_tile(team, tile_rows, interior, {Kernel::kCalcUr},
                     [&](int, Chunk2D& c, const Bounds& tb) {
                       kernels::cg_calc_ur_rows(c, alpha, tb);
                     });
    rrn = v_cycle_dot(cl, *mg, team, tile_rows, {Kernel::kDot},
                      [](Chunk2D&, const Bounds&) {});
  } else {
    rrn = cl.sum_rows_over_chunks(
        team, tile_rows, {Kernel::kCalcUrDot},
        [&](int, Chunk2D& c, const Bounds& tb) {
          kernels::calc_ur_dot_rows(c, alpha, precon, tb, c.row_scratch());
        });
  }

  const double beta = rrn / rro;
  const FieldId zsrc =
      (precon == PreconType::kNone) ? FieldId::kR : FieldId::kZ;
  cl.for_each_tile(team, tile_rows, interior, {Kernel::kXpby},
                   [&](int, Chunk2D& c, const Bounds& tb) {
                     kernels::xpby(c, FieldId::kP, zsrc, beta, tb);
                   });

  if (rec != nullptr) {
    rec->alphas.push_back(alpha);
    rec->betas.push_back(beta);
  }
  return rrn;
}

bool cg_presteps(SimCluster2D& cl, const SolverConfig& cfg, int steps,
                 double target, double& rro, CGRecurrence& rec,
                 SolveStats& st, const Team& team) {
  cl.set_phase(team, Phase::kPrestep);
  const auto done = [&](bool broke) {
    cl.set_phase(team, Phase::kSetup);
    return broke;
  };
  for (int i = 0; i < steps; ++i) {
    bool broke = false;
    rro = cg_iteration(cl, cfg.precon, rro, &rec, broke, team,
                       cfg.tile_rows);
    ++st.spmv_applies;
    if (broke) return done(true);
    ++st.eigen_cg_iters;
    if (std::sqrt(std::fabs(rro)) <= target) {
      st.converged = true;
      break;
    }
  }
  return done(false);
}

SolveStats CGSolver::solve_classic(SimCluster2D& cl, const SolverConfig& cfg,
                                   const Team& team, Multigrid* mg) {
  Timer timer;
  SolveStats st;

  double rro = cg_setup(cl, cfg.precon, team, mg);
  ++st.spmv_applies;
  st.initial_norm = std::sqrt(std::fabs(rro));
  if (st.initial_norm == 0.0) {
    // Zero right-hand side: the initial guess is already exact.
    st.converged = true;
    st.solve_seconds = timer.elapsed_s();
    return st;
  }
  const double target = cfg.eps * st.initial_norm;

  double rrn = rro;
  cl.set_phase(team, Phase::kIteration);
  while (st.outer_iters < cfg.max_iters) {
    // Every thread computed the same rank-ordered sums, so the breakdown
    // and convergence branches are uniform across the team.
    bool broke = false;
    rrn = cg_iteration(cl, cfg.precon, rro, nullptr, broke, team,
                       cfg.tile_rows, mg);
    ++st.spmv_applies;
    if (broke) {
      st.breakdown = true;
      st.breakdown_reason = kPwBreakdown;
      break;
    }
    rro = rrn;
    ++st.outer_iters;
    if (std::sqrt(std::fabs(rrn)) <= target) {
      st.converged = true;
      break;
    }
  }
  st.final_norm = std::sqrt(std::fabs(rrn));
  st.solve_seconds = timer.elapsed_s();
  return st;
}

SolveStats CGSolver::solve_chrono(SimCluster2D& cl, const SolverConfig& cfg,
                                  const Team& team) {
  // Chronopoulos-Gear CG: recurrences reordered so that ⟨r,z⟩ and ⟨w,z⟩
  // are computed back-to-back and travel in ONE allreduce — the §VII
  // future-work "multiple dot products combined into a single
  // communication step".  Field roles: z = M⁻¹r, sd = A·p (the "s"
  // vector), w = A·z.  Each iteration is one row-tiled vector update
  // (cg_chrono_update_rows), the z exchange and the operator apply with
  // both dot products folded in (smvp_dot2_rows).
  Timer timer;
  SolveStats st;
  const int tile = cfg.tile_rows;
  const auto interior = [](int, Chunk2D& c) { return interior_bounds(c); };
  const auto smvp_dot2_pair = [&] {
    return cl.sum2_rows_over_chunks(
        team, tile, {Kernel::kSmvpDot2},
        [](int, Chunk2D& c, const Bounds& tb) {
          kernels::smvp_dot2_rows(c, FieldId::kZ, FieldId::kW, FieldId::kR,
                                  interior_bounds(c), tb, c.row_scratch());
        });
  };

  // Bootstrap: r = u0 − A·u, z = M⁻¹r, then the first fused pair.
  cl.exchange(team, {FieldId::kU}, 1);
  const bool block = cfg.precon == PreconType::kJacobiBlock;
  const Kernels set_up =
      block ? Kernels{Kernel::kResidual, Kernel::kBlockInit, Kernel::kPrecon}
            : Kernels{Kernel::kResidual, Kernel::kPrecon};
  cl.for_each_chunk(team, set_up, [&](int, Chunk2D& c) {
    kernels::calc_residual(c);
    if (block) kernels::block_jacobi_init(c);
    kernels::apply_preconditioner(c, cfg.precon, FieldId::kR, FieldId::kZ);
  });
  cl.exchange(team, {FieldId::kZ}, 1);
  const auto gd = smvp_dot2_pair();
  double gamma = gd.first;
  double delta = gd.second;
  ++st.spmv_applies;
  st.initial_norm = std::sqrt(std::fabs(gamma));
  if (st.initial_norm == 0.0) {
    st.converged = true;
    st.solve_seconds = timer.elapsed_s();
    return st;
  }
  const double target = cfg.eps * st.initial_norm;
  if (!(delta > 0.0)) {
    st.breakdown = true;
    st.breakdown_reason = "fused CG breakdown: ⟨A·z, z⟩ <= 0";
    st.final_norm = st.initial_norm;
    st.solve_seconds = timer.elapsed_s();
    return st;
  }
  double alpha = gamma / delta;
  double beta = 0.0;  // first step: p = z, s = w

  cl.set_phase(team, Phase::kIteration);
  while (st.outer_iters < cfg.max_iters) {
    cl.for_each_tile(team, tile, interior, {Kernel::kChronoUpdate},
                     [&](int, Chunk2D& c, const Bounds& tb) {
                       kernels::cg_chrono_update_rows(c, alpha, beta,
                                                      cfg.precon, tb);
                     });
    cl.exchange(team, {FieldId::kZ}, 1);
    const auto gd_it = smvp_dot2_pair();
    const double gamma_new = gd_it.first;
    const double delta_new = gd_it.second;
    ++st.spmv_applies;
    ++st.outer_iters;
    if (std::sqrt(std::fabs(gamma_new)) <= target) {
      st.converged = true;
      gamma = gamma_new;
      break;
    }
    beta = gamma_new / gamma;
    alpha = gamma_new / (delta_new - beta * gamma_new / alpha);
    if (!std::isfinite(alpha)) {
      st.breakdown = true;
      st.breakdown_reason = "fused CG recurrence breakdown";
      gamma = gamma_new;
      break;
    }
    gamma = gamma_new;
  }
  st.final_norm = std::sqrt(std::fabs(gamma));
  st.solve_seconds = timer.elapsed_s();
  return st;
}

SolveStats CGSolver::solve_team(SimCluster2D& cl, const SolverConfig& cfg,
                                const Team& team, Multigrid* mg) {
  return cfg.fuse_cg_reductions ? solve_chrono(cl, cfg, team)
                                : solve_classic(cl, cfg, team, mg);
}

}  // namespace tealeaf
