#include "solvers/chebyshev.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "ops/kernels.hpp"
#include "solvers/cg.hpp"
#include "solvers/cheby_coef.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace tealeaf {

void cheby_step(SimCluster2D& cl, const Team& team, int tile_rows, int ext,
                PreconType precon, FieldId res, FieldId dir, FieldId acc,
                double alpha, double beta) {
  const auto ext_bounds = [ext](int, Chunk2D& c) {
    return extended_bounds(c, ext);
  };
  cl.for_each_tile(team, tile_rows, ext_bounds,
                   Kernels({Kernel::kSmvp, Kernel::kChebyUpdate}, ext),
                   [&](int, Chunk2D& c, const Bounds& tb) {
                     kernels::cheby_step_tile(c, res, dir, acc, alpha, beta,
                                              precon, extended_bounds(c, ext),
                                              tb);
                   });
  team.barrier();  // edge rows must see every block's stencil pass
  cl.for_each_tile(team, tile_rows, ext_bounds, {},
                   [&](int, Chunk2D& c, const Bounds& tb) {
                     kernels::cheby_step_tile_edges(
                         c, res, dir, acc, alpha, beta, precon,
                         extended_bounds(c, ext), tb);
                   });
}

namespace {

/// One Chebyshev iteration: r −= A·p; p = α·p + β·M⁻¹·r; u += p (one
/// cheby_step on the interior), then on check iterations the ‖r‖²
/// reduction, whose value is identical on every thread.
double cheby_iterate(SimCluster2D& cl, PreconType precon, double alpha,
                     double beta, bool check, int tile_rows,
                     const Team& team) {
  cl.exchange(team, {FieldId::kP}, 1);
  cheby_step(cl, team, tile_rows, 0, precon, FieldId::kR, FieldId::kP,
             FieldId::kU, alpha, beta);
  if (!check) return 0.0;
  return cl.sum_rows_over_chunks(
      team, tile_rows, {Kernel::kNorm2},
      [](int, Chunk2D& c, const Bounds& tb) {
        kernels::dot_rows(c, FieldId::kR, FieldId::kR, tb, c.row_scratch());
      });
}

}  // namespace

SolveStats ChebyshevSolver::solve_team(SimCluster2D& cl,
                                       const SolverConfig& cfg,
                                       const Team& team) {
  Timer timer;
  SolveStats st;

  double rro = cg_setup(cl, cfg.precon, team);
  ++st.spmv_applies;
  st.initial_norm = std::sqrt(std::fabs(rro));
  if (st.initial_norm == 0.0) {
    st.converged = true;
    st.solve_seconds = timer.elapsed_s();
    return st;
  }

  // True 2-norm of the initial residual: the Chebyshev phase converges on
  // ‖r‖₂ (it has no ⟨r,z⟩ byproduct), so record the matching baseline.
  const double bb_rr =
      cl.sum_over_chunks(team, {Kernel::kNorm2}, [](int, const Chunk2D& c) {
        return kernels::norm2_sq(c, FieldId::kR);
      });
  const double target_rr = cfg.eps * std::sqrt(bb_rr);

  // Breakdown before the Chebyshev phase: the presteps' recurrence.
  const auto broke_down = [&](const std::string& reason) {
    st.breakdown = true;
    st.breakdown_reason = reason;
    st.outer_iters = st.eigen_cg_iters;
    st.final_norm = std::sqrt(std::fabs(rro));
    st.solve_seconds = timer.elapsed_s();
    return st;
  };

  EigenEstimate est;
  CGRecurrence rec;
  if (cfg.has_eig_hints()) {
    // Hinted interval: skip the CG presteps entirely and build the
    // polynomial on [hint_min, hint_max] (the session cache's
    // amortisation path — hints are already safety-widened estimates
    // from an earlier solve of the same operator).
    est.eigmin = cfg.eig_hint_min;
    est.eigmax = cfg.eig_hint_max;
  } else {
    // --- CG presteps: eigenvalue estimation (paper §III-D) --------------
    // They count against max_iters, as every Chebyshev iteration does.
    if (cg_presteps(cl, cfg, std::min(cfg.eigen_cg_iters, cfg.max_iters),
                    cfg.eps * st.initial_norm, rro, rec, st, team)) {
      return broke_down("Chebyshev prestep breakdown: ⟨p, A·p⟩ <= 0");
    }
    if (st.converged) {
      // Converged before Chebyshev even started.
      st.outer_iters = st.eigen_cg_iters;
      st.final_norm = std::sqrt(std::fabs(rro));
      st.solve_seconds = timer.elapsed_s();
      return st;
    }
  }
  ChebyCoefs cc;
  const std::string why = try_chebyshev_polynomial(
      cfg.has_eig_hints() ? nullptr : &rec, cfg.eig_safety_lo,
      cfg.eig_safety_hi, cfg.max_iters, est, cc);
  if (!why.empty()) return broke_down(why);
  st.eigmin = est.eigmin;
  st.eigmax = est.eigmax;

  // --- Chebyshev phase ---------------------------------------------------
  // Bootstrap: p = M⁻¹·r / θ, u += p.  This pass rewrites p; the barrier
  // orders it after the last pass that wrote p (a prestep's direction
  // update, or cg_setup's whole-chunk copy when hints skip the presteps).
  team.barrier();
  cl.for_each_tile(team, cfg.tile_rows,
                   [](int, Chunk2D& c) { return interior_bounds(c); },
                   {Kernel::kChebyInit, Kernel::kAxpy},
                   [&](int, Chunk2D& c, const Bounds& tb) {
                     kernels::cheby_init_dir(c, FieldId::kR, FieldId::kP,
                                             cc.theta, cfg.precon, tb);
                     kernels::axpy(c, FieldId::kU, 1.0, FieldId::kP, tb);
                   });
  int step = 0;
  double rr = bb_rr;
  cl.set_phase(team, Phase::kIteration);
  while (st.eigen_cg_iters + step < cfg.max_iters) {
    const bool check = (step + 1) % cfg.cheby_check_interval == 0;
    const double rr_t = cheby_iterate(cl, cfg.precon, cc.alphas[step],
                                      cc.betas[step], check, cfg.tile_rows,
                                      team);
    ++step;
    ++st.spmv_applies;
    if (check && !std::isfinite(rr_t)) {
      // Diverged: the interval does not bound the spectrum.  Every thread
      // reads the same reduction, so the whole team stops here; the last
      // finite check stays the reported norm.
      char interval[64];
      std::snprintf(interval, sizeof interval, "[%.4g, %.4g]", est.eigmin,
                    est.eigmax);
      st.breakdown = true;
      st.breakdown_reason = "Chebyshev diverged: ‖r‖ is not finite after " +
                            std::to_string(step) +
                            " iterations on the eigenvalue interval " +
                            interval;
      break;
    }
    if (check) rr = rr_t;
    if (check && std::sqrt(rr) <= target_rr) {
      st.converged = true;
      break;
    }
  }
  st.outer_iters = st.eigen_cg_iters + step;
  st.final_norm = std::sqrt(rr);
  st.solve_seconds = timer.elapsed_s();
  if (!st.converged && !st.breakdown && team.thread_id() == 0) {
    log::warn() << "Chebyshev hit max_iters with ‖r‖ = " << st.final_norm;
  }
  return st;
}

}  // namespace tealeaf
