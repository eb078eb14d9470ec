#include "solvers/ppcg.hpp"

#include <cmath>

#include "ops/kernels.hpp"
#include "solvers/cg.hpp"
#include "solvers/chebyshev.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace tealeaf {

namespace {

constexpr const char* kPwBreakdown = "PPCG breakdown: ⟨p, A·p⟩ <= 0";
constexpr const char* kRzBreakdown =
    "PPCG breakdown: ⟨r, M⁻¹r⟩ <= 0 (indefinite polynomial preconditioner — "
    "eigenvalue estimates too tight?)";

}  // namespace

void PPCGSolver::apply_inner(SimCluster2D& cl, const SolverConfig& cfg,
                             const ChebyCoefs& cc, SolveStats* st,
                             const Team& team) {
  const int d = cfg.halo_depth;
  const int tile = cfg.tile_rows;
  TEA_ASSERT(cfg.precon != PreconType::kJacobiBlock || d == 1,
             "block-Jacobi with matrix powers rejected by validate()");

  // Inner residual starts as a copy of the outer residual.  For matrix
  // powers the first extended sweep needs it valid through the overlap,
  // which costs one depth-d exchange; at depth 1 no exchange is needed
  // because the bootstrap touches only the interior.
  cl.for_each_tile(team, tile,
                   [](int, Chunk2D& c) { return interior_bounds(c); },
                   {Kernel::kCopy}, [](int, Chunk2D& c, const Bounds& tb) {
                     kernels::copy(c, FieldId::kRtemp, FieldId::kR, tb);
                   });
  if (d > 1) cl.exchange(team, {FieldId::kRtemp}, d);

  // Bootstrap (the degree-0 term): sd = M⁻¹·rtemp/θ, z = sd, computed on
  // bounds extended d-1 cells so the following sweeps can shrink.
  int ext = d - 1;
  if (d == 1) team.barrier();  // rtemp copy visible
  cl.for_each_tile(team, tile,
                   [ext](int, Chunk2D& c) { return extended_bounds(c, ext); },
                   Kernels({Kernel::kChebyInit, Kernel::kCopy}, ext),
                   [&](int, Chunk2D& c, const Bounds& tb) {
                     kernels::cheby_init_dir(c, FieldId::kRtemp,
                                             FieldId::kSd, cc.theta,
                                             cfg.precon, tb);
                     kernels::copy(c, FieldId::kZ, FieldId::kSd, tb);
                   });

  for (int step = 1; step <= cfg.inner_steps; ++step) {
    if (ext == 0) {
      // All overlap layers consumed: swap a fresh depth-d halo.  At depth
      // 1 only sd travels (rtemp's halo is never read); deeper powers
      // also need the inner residual through the overlap.
      if (d == 1) {
        cl.exchange(team, {FieldId::kSd}, 1);
      } else {
        cl.exchange(team, {FieldId::kSd, FieldId::kRtemp}, d);
      }
      ext = d;
    } else {
      // No exchange this step: the redundant-overlap sweeps still read
      // one cell beyond their own block, so order against the previous
      // extended sweep explicitly.
      team.barrier();
    }
    --ext;
    cheby_step(cl, team, tile, ext, cfg.precon, FieldId::kRtemp,
               FieldId::kSd, FieldId::kZ,
               cc.alphas[static_cast<std::size_t>(step - 1)],
               cc.betas[static_cast<std::size_t>(step - 1)]);
  }
  // The caller reduces ⟨r, z⟩ through the interior tile decomposition
  // with no entry barrier: order it against a last pass over extended
  // bounds.
  if (ext > 0) team.barrier();
  if (st != nullptr) {
    st->spmv_applies += cfg.inner_steps;
    st->inner_steps += cfg.inner_steps;
  }
}

SolveStats PPCGSolver::solve_team(SimCluster2D& cl, const SolverConfig& cfg,
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
  const double target = cfg.eps * st.initial_norm;

  const auto finish = [&](double metric) {
    st.outer_iters += st.eigen_cg_iters;
    st.final_norm = std::sqrt(std::fabs(metric));
    st.solve_seconds = timer.elapsed_s();
    if (!st.converged && !st.breakdown && team.thread_id() == 0) {
      log::warn() << "PPCG hit max_iters with metric " << st.final_norm;
    }
    return st;
  };

  EigenEstimate est;
  CGRecurrence rec;
  if (cfg.has_eig_hints()) {
    // Hinted interval: skip the CG presteps and build the polynomial on
    // [hint_min, hint_max] directly (the session cache's amortisation
    // path).  A stale or degenerate hint makes the polynomial indefinite
    // and surfaces below as the ⟨r, M⁻¹r⟩ breakdown — reported, not
    // thrown, so the solve-server can answer it with a re-route.
    est.eigmin = cfg.eig_hint_min;
    est.eigmax = cfg.eig_hint_max;
  } else {
    // --- CG presteps: eigenvalue estimation (paper §III-D) --------------
    // Unlike Chebyshev's, they do not count against max_iters.
    if (cg_presteps(cl, cfg, cfg.eigen_cg_iters, target, rro, rec, st,
                    team)) {
      st.breakdown = true;
      st.breakdown_reason = kPwBreakdown;
      return finish(rro);
    }
    if (st.converged) return finish(rro);
  }
  ChebyCoefs cc;
  const std::string why = try_chebyshev_polynomial(
      cfg.has_eig_hints() ? nullptr : &rec, cfg.eig_safety_lo,
      cfg.eig_safety_hi, cfg.inner_steps, est, cc);
  if (!why.empty()) {
    st.breakdown = true;
    st.breakdown_reason = why;
    return finish(rro);
  }
  st.eigmin = est.eigmin;
  st.eigmax = est.eigmax;

  // The sequence below workshares inside the caller's region, every
  // sweep row-blocked through the tile engine.  Every scalar derives from
  // rank/row-ordered team reductions, so its value — and every branch on
  // it — is identical on every thread.
  const int tile = cfg.tile_rows;
  const auto interior = [](int, Chunk2D& c) { return interior_bounds(c); };
  /// ⟨r, z⟩ after apply_inner (which leaves z ordered for this reduction).
  const auto dot_rz = [&] {
    return cl.sum_rows_over_chunks(
        team, tile, {Kernel::kDot}, [](int, Chunk2D& c, const Bounds& tb) {
          kernels::dot_rows(c, FieldId::kR, FieldId::kZ, tb,
                            c.row_scratch());
        });
  };

  // --- restart the outer PCG with the polynomial preconditioner ---------
  apply_inner(cl, cfg, cc, nullptr, team);
  rro = dot_rz();
  cl.for_each_tile(team, tile, interior, {Kernel::kCopy},
                   [](int, Chunk2D& c, const Bounds& tb) {
                     kernels::copy(c, FieldId::kP, FieldId::kZ, tb);
                   });
  st.spmv_applies += cfg.inner_steps;
  st.inner_steps += cfg.inner_steps;
  if (!(rro > 0.0)) {
    st.breakdown = true;
    st.breakdown_reason = kRzBreakdown;
    return finish(rro);
  }

  double rrn = rro;
  cl.set_phase(team, Phase::kIteration);
  while (st.eigen_cg_iters + st.outer_iters < cfg.max_iters) {
    // This whole body runs in the caller's ONE region: p exchange, fused
    // smvp+dot, u/r update, the inner
    // Chebyshev application (including its matrix-powers exchanges)
    // and both reductions.
    cl.exchange(team, {FieldId::kP}, 1);
    const double pw = cl.sum_rows_over_chunks(
        team, tile, {Kernel::kSmvp}, [](int, Chunk2D& c, const Bounds& tb) {
          kernels::smvp_dot_rows(c, FieldId::kP, FieldId::kW,
                                 interior_bounds(c), tb, c.row_scratch());
        });
    ++st.spmv_applies;
    // Uniform branch: every thread reduced the same rank-ordered sum.
    if (!(pw > 0.0)) {
      st.breakdown = true;
      st.breakdown_reason = kPwBreakdown;
      return finish(rrn);
    }
    const double alpha = rro / pw;
    // apply_inner's first pass copies r through the same tile
    // decomposition, so each r row is read by the thread that wrote it.
    cl.for_each_tile(team, tile, interior, {Kernel::kCalcUr},
                     [&](int, Chunk2D& c, const Bounds& tb) {
                       kernels::cg_calc_ur_rows(c, alpha, tb);
                     });
    apply_inner(cl, cfg, cc, nullptr, team);
    const double rrn_t = dot_rz();
    const double beta = rrn_t / rro;
    cl.for_each_tile(team, tile, interior, {Kernel::kXpby},
                     [&](int, Chunk2D& c, const Bounds& tb) {
                       kernels::xpby(c, FieldId::kP, FieldId::kZ, beta, tb);
                     });
    st.spmv_applies += cfg.inner_steps;
    st.inner_steps += cfg.inner_steps;
    rrn = rrn_t;
    rro = rrn;
    ++st.outer_iters;
    if (std::sqrt(std::fabs(rrn)) <= target) {
      st.converged = true;
      break;
    }
    if (!(rrn > 0.0)) {
      st.breakdown = true;
      st.breakdown_reason = kRzBreakdown;
      break;
    }
  }
  return finish(rrn);
}

}  // namespace tealeaf
