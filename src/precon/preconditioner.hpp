#pragma once

#include "mesh/chunk.hpp"
#include "ops/bounds.hpp"

namespace tealeaf {

/// Preconditioner selection, mirroring upstream TeaLeaf's
/// `tl_preconditioner_type` deck option.
enum class PreconType : int {
  kNone = 0,         ///< identity (plain CG)
  kJacobiDiag = 1,   ///< point-Jacobi: M = diag(A)
  kJacobiBlock = 2,  ///< block-Jacobi: 4×1 strips (per (j,l) column in
                     ///< 3-D), tridiagonal blocks
                     ///< solved by the Thomas algorithm (paper §IV-C1)
  /// One geometric multigrid V-cycle (src/amg) over the undecomposed
  /// grid: classic CG with it is "mg-pcg", the PETSc CG + BoomerAMG
  /// baseline of paper Fig. 7.  A team-wide pass, not a per-chunk one, so
  /// the CG body applies it itself (SolverConfig::validate lists where it
  /// runs).  No deck value spells it; the solver name "mg-pcg" selects it.
  kMultigrid = 3,
};

[[nodiscard]] const char* to_string(PreconType t);

/// Height of the block-Jacobi strips (upstream `jac_block_size`).  Strips
/// at the top of a chunk are truncated to 3/2/1 cells; because strips
/// never cross chunk boundaries the preconditioner needs no communication.
inline constexpr int kJacBlockSize = 4;

namespace kernels {

/// Precompute the Thomas-factorisation coefficient fields cp/bfp for the
/// block-Jacobi preconditioner from the current Kx/Ky.  Must be re-run
/// whenever the conduction coefficients change (once per timestep).
/// Upstream: tea_block_init.
void block_jacobi_init(Chunk& c);

/// dst = M⁻¹·src on the strips of rows [tb.klo, tb.khi) of planes
/// [tb.llo, tb.lhi), where M is the block-tridiagonal approximation of A
/// over 4×1 vertical strips (tb's j range is ignored: every interior
/// column).  The box must start on a strip boundary and end on one or at
/// the chunk top, so it covers whole strips — the tile engine's boxes do
/// once resolve_tile_rows has rounded a block-Jacobi height up to whole
/// strips.
/// The whole-chunk solve is the same call on interior_bounds(c).
/// Upstream: tea_block_solve.
void block_jacobi_solve(Chunk& c, FieldId src, FieldId dst, const Bounds& tb);

/// dst = diag(A)⁻¹·src over `bounds`.
void diag_solve(Chunk& c, FieldId src, FieldId dst, const Bounds& bounds);

/// Dispatch: dst = M⁻¹·src over the chunk interior for the per-chunk
/// preconditioners (kNone copies; kMultigrid is not one).
void apply_preconditioner(Chunk& c, PreconType type, FieldId src,
                          FieldId dst);

}  // namespace kernels

}  // namespace tealeaf
