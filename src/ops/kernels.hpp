#pragma once

#include <cstdint>

#include "mesh/chunk.hpp"
#include "ops/bounds.hpp"
#include "precon/preconditioner.hpp"

/// Computational kernels for the heat-conduction system, a C++ port of
/// upstream TeaLeaf's `tea_leaf_*_kernel` routines and of Listing 1 in
/// the paper — dimension- and operator-generic: every per-row core is
/// templated on an `OperatorView` (ops/operator_view.hpp) and serves the
/// matrix-free 2-D 5-point / 3-D 7-point stencil (`StencilView<Dims>`,
/// bit-for-bit the classic code paths) as well as assembled CSR matrices
/// (`CsrView`), with the view selected once per kernel call by
/// dispatching on `Chunk::op_kind()` and `Chunk::dims()`.
///
/// The linear system is A·u = u0 with
///   (A u)(j,k,l) = [1 + ΣK over the 2·dims faces]·u(j,k,l)
///                  − Ky(j,k+1,l)·u(j,k+1,l) − Ky(j,k,l)·u(j,k−1,l)
///                  − Kx(j+1,k,l)·u(j+1,k,l) − Kx(j,k,l)·u(j−1,k,l)
///                  [ − Kz(j,k,l+1)·u(j,k,l+1) − Kz(j,k,l)·u(j,k,l−1) ]
/// where Kx/Ky/Kz are the face conduction coefficients pre-scaled by
/// rx = dt/dx², ry = dt/dy², rz = dt/dz².  A is symmetric positive
/// definite and strictly diagonally dominant.  Physical (Neumann)
/// boundaries are imposed by zero face coefficients, which is
/// algebraically identical to upstream's reflective halo updates.  The
/// 2-D expressions are untouched by the generalisation — a 2-D chunk runs
/// the exact arithmetic (and code) it always did.
///
/// Every kernel takes explicit loop `Bounds` so the same code serves the
/// classic depth-1 solver and the matrix-powers extended sweeps.
/// Reductions are always over the chunk interior only, regardless of the
/// sweep bounds, so redundant overlap computation never double-counts.
///
/// The solver kernels compile twice from one source, for baseline x86-64
/// and for AVX2, and the dynamic loader binds one copy per process from
/// the CPU (docs/architecture.md, "Vector width").  TEALEAF_KERNEL_CLONES
/// is 1 where the toolchain supports that (GCC, or Clang 17 and later,
/// which export the dispatcher under the function's own name; x86-64
/// glibc ELF), 0 elsewhere: one baseline copy.
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) && \
    defined(__has_attribute) &&                                     \
    (!defined(__clang__) || __clang_major__ >= 17)
#if __has_attribute(target_clones)
#define TEALEAF_KERNEL_CLONES 1
#endif
#endif
#ifndef TEALEAF_KERNEL_CLONES
#define TEALEAF_KERNEL_CLONES 0
#endif

namespace tealeaf::kernels {

/// The instruction set of the kernel copy this process runs: "avx2" or
/// "baseline".
[[nodiscard]] const char* vector_isa();

/// Which material property becomes the conduction coefficient
/// (upstream `CONDUCTIVITY` / `RECIP_CONDUCTIVITY`).
enum class Coefficient : int {
  kConductivity = 1,       ///< coefficient = density
  kRecipConductivity = 2,  ///< coefficient = 1/density
};

/// Diagonal of A at cell (j,k[,l]): 1 + ΣK over the 2·dims faces.
[[nodiscard]] double diag_at(const Chunk& c, int j, int k, int l = 0);

/// u = energy · density (temperature), u0 = u; also clears the solver
/// work vectors the chunk holds.  Upstream: tea_leaf_common_init (first
/// half).
void init_u_u0(Chunk& c);

/// Compute the face coefficient fields Kx, Ky (and Kz on 3-D chunks) from
/// density over the full halo-extended region (density must be exchanged
/// to the chunk's halo depth first).  Faces on the physical boundary stay
/// zero — this encodes the Neumann condition.  `rz` is ignored by 2-D
/// chunks.  Upstream: tea_leaf_common_init (second half).
void init_conduction(Chunk& c, Coefficient coef, double rx, double ry,
                     double rz = 0.0);

/// dst = A·src over `bounds`.  Upstream: tea_leaf_kernel smvp macro.
void smvp(Chunk& c, FieldId src, FieldId dst, const Bounds& bounds);

/// dst = A·src over `bounds`; returns Σ src·dst over the interior
/// (the fused form of Listing 1 in the paper; the solvers run its row
/// form, smvp_dot_rows).  src and dst must be distinct fields.
[[nodiscard]] double smvp_dot(Chunk& c, FieldId src, FieldId dst,
                              const Bounds& bounds);

// ---- generic vector kernels -------------------------------------------

/// dst = src over `bounds`.
void copy(Chunk& c, FieldId dst, FieldId src, const Bounds& bounds);

/// y = y + a·x over `bounds`.
void axpy(Chunk& c, FieldId y, double a, FieldId x, const Bounds& bounds);

/// y = x + b·y over `bounds`  (CG direction update p = z + β·p).
void xpby(Chunk& c, FieldId y, FieldId x, double b, const Bounds& bounds);

/// Σ a·b over the interior.
[[nodiscard]] double dot(const Chunk& c, FieldId a, FieldId b);

/// Σ f² over the interior.
[[nodiscard]] double norm2_sq(const Chunk& c, FieldId f);

// ---- CG kernels (upstream tea_leaf_cg_kernel) --------------------------

/// w = A·u, r = u0 − w over the interior.  Residual bootstrap; the caller
/// must have exchanged u to depth 1.  Returns Σ r·r.
double calc_residual(Chunk& c);

// ---- Chebyshev / PPCG shared kernels -----------------------------------
// The Chebyshev acceleration recurrence (paper §III-C, Saad) is:
//   dir_1 = M⁻¹·res / θ;       acc += dir_1
//   j ≥ 1: res −= A·dir_j
//          dir_{j+1} = α_j·dir_j + β_j·M⁻¹·res
//          acc += dir_{j+1}
// For the standalone Chebyshev solver (res, dir, acc) = (r, p, u); for
// the CPPCG inner preconditioner they are (rtemp, sd, z).  M⁻¹ is the
// identity, the diagonal or the block-Jacobi strip solve (precon/).
// Block-Jacobi needs boxes of whole strips (see block_jacobi_solve) and
// writes its M⁻¹·res into w.

/// dir = M⁻¹·res / θ over `bounds` (block-Jacobi: w = M⁻¹·res first).
void cheby_init_dir(Chunk& c, FieldId res, FieldId dir, double theta,
                    PreconType precon, const Bounds& bounds);

// ---- row-blocked (tiled) kernels -----------------------------------------
// Every solver sweep runs through the tile engine (SolverConfig::tile_rows),
// which cuts the sweep into row-blocks so the per-block working set fits
// in L2 — one block per plane at tile height 0 — and workshares the
// (rank, row-block) pairs over the whole thread team.  A "row" is one
// unit-stride line of cells — (plane l, row k) in 3-D — and the engine
// tiles the flattened (l, k) row space, so `tl_tile_rows` row-blocks 2-D
// sweeps and plane/row-blocks 3-D ones with the same knob.  Each kernel
// below processes only the rows of the tile box `tb` (a single-plane
// k-range in the engine's schedule; tb's j range is ignored — the sweep
// bounds `b` or the interior provide it) and is built on one per-row core,
// so any tiling of the row range — and any assignment of blocks to
// threads — produces bitwise-identical fields.  Reducing kernels deposit
// one partial per interior row into `row_sums` at the flattened index
// ρ = l·ny + k (the chunk's `row_scratch`); the engine then combines rows
// in row order followed by ranks in rank order.  The block-Jacobi strip
// solve couples the rows of a strip, so a kernel that applies it needs a
// tile of whole strips (resolve_tile_rows rounds a block-Jacobi height
// up to whole strips); the strips never leave the tile.

/// Rows of `tb` of `dot` (use a == b for norm²).
void dot_rows(const Chunk& c, FieldId a, FieldId b, const Bounds& tb,
              double* row_sums);

/// Rows of `tb` of dst = A·src over `bounds`, depositing Σ src·dst per
/// row (row_sums written for interior rows only; halo-extension rows just
/// sweep).  src and dst must be distinct fields.
void smvp_dot_rows(Chunk& c, FieldId src, FieldId dst, const Bounds& bounds,
                   const Bounds& tb, double* row_sums);

/// Rows of `tb` of the Chronopoulos-Gear operator half: dst = A·src with
/// both dot products of the iteration folded into the same pass — two
/// partials per row, row_sums[2ρ] = Σ other·src and row_sums[2ρ+1] =
/// Σ dst·src over row ρ.  For src = z, dst = w, other = r this is
/// (⟨r,z⟩, ⟨w,z⟩), the pair that travels in the single fused allreduce.
void smvp_dot2_rows(Chunk& c, FieldId src, FieldId dst, FieldId other,
                    const Bounds& bounds, const Bounds& tb,
                    double* row_sums);

/// Rows of `tb` of the CG update u += α·p, r −= α·w (upstream
/// cg_calc_ur).
void cg_calc_ur_rows(Chunk& c, double alpha, const Bounds& tb);

/// Rows of `tb` of the fused CG update + preconditioner apply + ⟨r,z⟩
/// (kNone / kJacobiDiag / kJacobiBlock):
///   u += α·p;  r −= α·w;  z = M⁻¹·r;  row_sums[ρ] = Σ r·z over row ρ.
/// kNone skips the z write and deposits Σ r·r (z is never read in that
/// mode); block-Jacobi updates the tile's rows, then runs the strip solve
/// over the tile, then the dot.
void calc_ur_dot_rows(Chunk& c, double alpha, PreconType precon,
                      const Bounds& tb, double* row_sums);

/// Rows of `tb` of the Chronopoulos-Gear vector half: the tail of
/// iteration i−1 and the head of iteration i in one pass,
///   p = z + β·p;  s(=sd) = w + β·s;  u += α·p;  r −= α·s;  z = M⁻¹·r.
/// β = 0 reproduces the bootstrap (p = z, s = w).  For block-Jacobi z is
/// the strip solve over the tile, after its rows' updates.
void cg_chrono_update_rows(Chunk& c, double alpha, double beta,
                           PreconType precon, const Bounds& tb);

/// Tile `tb` of the Chebyshev recurrence step
///   w = A·dir;  res −= w;  dir = α·dir + β·M⁻¹·res;  acc += dir.
/// Two sweeps over the tile: w = A·dir over every row, then the update of
/// the rows no other tile's stencil reads — rows tb.klo+1 … tb.khi−2 on
/// the 2-D stencil; on 3-D and assembled operators every row is read by
/// other tiles, and block-Jacobi's strip solve needs res −= w on every
/// row of the tile first, so the whole update defers.  After a team
/// barrier, `cheby_step_tile_edges` finishes the deferred rows.  The
/// per-cell arithmetic does not depend on the tiling, so every tile
/// height gives bitwise-identical iterates.
void cheby_step_tile(Chunk& c, FieldId res, FieldId dir, FieldId acc,
                     double alpha, double beta, PreconType precon,
                     const Bounds& bounds, const Bounds& tb);

/// Deferred updates of `cheby_step_tile` for the same block decomposition
/// (safe once all blocks' stencil sweeps have completed): the first/last
/// row of the tile on the 2-D stencil, every row of the tile otherwise.
/// Block-Jacobi runs res −= w, the strip solve w = M⁻¹·res,
/// dir = α·dir + β·w and acc += dir over the whole tile.
void cheby_step_tile_edges(Chunk& c, FieldId res, FieldId dir, FieldId acc,
                           double alpha, double beta, PreconType precon,
                           const Bounds& bounds, const Bounds& tb);

// ---- multigrid level cores (amg/) ---------------------------------------
// The geometric multigrid hierarchy (amg/multigrid.cpp) runs on its own
// per-level grids rather than on a Chunk, but its operator is the same
// A = identity + K-weighted graph Laplacian, so its per-row cores live
// here next to the 5-pt/7-pt chunk cores and are templated on the stencil
// arity the same way: `kz == nullptr` selects the 2-D 5-point core, whose
// arithmetic (and code) is exactly the pre-generalisation 2-D hierarchy's,
// and a 3-D level with kz ≡ 0 (a single cell-plane, where both z faces
// are physical boundaries) produces values equal to the 2-D core's.
// Every core processes one (k, l) row, so the V-cycle's serial and
// Team-workshared row loops share it and stay bitwise identical.

/// Non-owning view of one multigrid level's operator: face coefficients
/// in the TeaLeaf convention (kx(j,k,l) couples cells (j-1,k,l),(j,k,l);
/// physical-boundary faces zero).
struct MGOperatorView {
  const Field<double>* kx = nullptr;
  const Field<double>* ky = nullptr;
  const Field<double>* kz = nullptr;  ///< nullptr ⇒ 2-D 5-point operator
  int nx = 0;
  int ny = 0;
  int nz = 1;
};

/// A·src at one cell of a level (5-point or 7-point on A.kz).
[[nodiscard]] double mg_apply_stencil(const MGOperatorView& A,
                                      const Field<double>& src, int j, int k,
                                      int l = 0);

/// One damped-Jacobi row: u = old_u + ω·(rhs − A·old_u)/diag over row
/// (k, l).  `old_u` must be a pristine copy of u (simultaneous update).
void mg_smooth_row(const MGOperatorView& A, const Field<double>& rhs,
                   const Field<double>& old_u, Field<double>& u,
                   double omega, int k, int l);

/// One residual row: res = rhs − A·u over row (k, l).
void mg_residual_row(const MGOperatorView& A, const Field<double>& rhs,
                     const Field<double>& u, Field<double>& res, int k,
                     int l);

/// One coarse row (kc, lc) of the full-weighting residual restriction:
/// coarse_rhs = average of the fine residual over the 2×2(×2) child
/// cells — the cell-centred analogue of the vertex-centred 9/27-point
/// full-weighting operator and the transpose of mg_prolong_row's
/// piecewise-constant interpolation (R = c·Pᵀ keeps the V-cycle
/// symmetric for use inside CG).  Per-axis coarsening factors derive
/// from the extent pairs: an axis with equal fine/coarse extents has a
/// single child per coarse cell and contributes no 1/2 weight, so a
/// z-degenerate 3-D level reproduces the 2-D operator exactly.  Odd
/// trailing cells aggregate singly (the last child duplicates, as in
/// the 2-D hierarchy).  Also zeroes coarse_u for the coming cycle.
void mg_restrict_row(const Field<double>& fine_res, int fnx, int fny,
                     int fnz, Field<double>& coarse_rhs,
                     Field<double>& coarse_u, int cnx, int cny, int cnz,
                     int kc, int lc);

/// One fine row (kf, lf) of the piecewise-constant prolongation:
/// fine_u += coarse_u(parent cell), with the same per-axis factor
/// derivation as mg_restrict_row.
void mg_prolong_row(const Field<double>& coarse_u, int cnx, int cny,
                    int cnz, Field<double>& fine_u, int fnx, int fny,
                    int fnz, int kf, int lf);

/// Tile `tb` of the interior for one Jacobi sweep (upstream
/// tea_leaf_jacobi_solve_kernel): saves the old iterate into r, then
/// u = (u0 + ΣK·u_old(neighbours)) / diag with row_sums[ρ] = Σ|u_new −
/// u_old| over row ρ.  Two sweeps over the tile: save its rows (plus the
/// halo rows/planes its boundary position owns: k = −1/ny on the
/// first/last k-block, plane −1/nz on the first/last plane in 3-D), then
/// update the rows whose stencils read only this tile's saves — rows
/// tb.klo+1 … tb.khi−2 on the 2-D stencil, none on 3-D or assembled
/// operators.  After a team barrier, `jacobi_tile_edges` finishes the
/// deferred rows.  Bitwise identical for any tiling.
void jacobi_tile(Chunk& c, const Bounds& tb, double* row_sums);

/// Deferred updates of `jacobi_tile` for the same block decomposition:
/// rows tb.klo and tb.khi−1 on the 2-D stencil, every row of the tile
/// otherwise.
void jacobi_tile_edges(Chunk& c, const Bounds& tb, double* row_sums);

// ---- declared traffic -----------------------------------------------------
// What one sweep of each solver kernel streams per cell, declared once,
// here beside the kernels.  The solvers name the kernels each tile pass
// or per-rank loop runs (SimCluster's `Kernels` argument), the cluster
// counts them into the solve's trace (comm/solve_trace.hpp), and the
// performance model prices every count as one launch plus this traffic
// over the pass's cells (model/scaling.cpp) — it keeps no description of
// the solvers of its own.

/// The priced kernels.  A kernel whose work a tile pass splits across an
/// in-tile sweep and a deferred edge pass (cheby_step_tile(_edges),
/// jacobi_tile(_edges)) is one kernel, named by the first pass.
enum class Kernel : std::uint8_t {
  kResidual,      ///< calc_residual: w = A·u, r = u0 − w
  kSmvp,          ///< smvp_dot_rows, and the A·dir half of cheby_step_tile
  kSmvpDot2,      ///< smvp_dot2_rows
  kCopy,          ///< copy
  kAxpy,          ///< axpy
  kXpby,          ///< xpby
  kDot,           ///< dot_rows / dot of two fields
  kNorm2,         ///< dot_rows / norm2_sq of one field
  kCalcUr,        ///< cg_calc_ur_rows
  kCalcUrDot,     ///< calc_ur_dot_rows
  kChronoUpdate,  ///< cg_chrono_update_rows
  kPrecon,        ///< apply_preconditioner
  kBlockInit,     ///< block_jacobi_init
  kChebyInit,     ///< cheby_init_dir
  kChebyUpdate,   ///< the update half of cheby_step_tile(_edges)
  kJacobi,        ///< jacobi_tile(_edges): save, then update
  // The mixed-precision layer's own loops (solvers/solver.cpp).
  kDowncast,      ///< one fp64 field into the fp32 bank
  kUpcast,        ///< the fp32 iterate back into the fp64 u
  kClearFp32,     ///< zero the fp32 iterate and its six work vectors
  kAddCorrection, ///< u += δ in fp64
};

/// Streamed traffic of one sweep, per cell, in fields of the sweep's
/// element size (a read-modify-write field counts once in each; the
/// mixed layer's loops run at fp64, so an fp32 field counts ½).
struct Traffic {
  double reads = 0.0;
  double writes = 0.0;
  int op = 0;      ///< operator reads: the face coefficients, or a CSR row
  int precon = 0;  ///< M⁻¹ applications: the preconditioner's own reads
  /// Field transfers a tile that fits in L2 keeps out of DRAM: the
  /// intermediate written by one phase of the pass and read by the next.
  double blocked = 0.0;
};

/// The traffic of `k` under preconditioner `m` (the fields a kernel reads
/// and writes can depend on whether it applies M⁻¹).
[[nodiscard]] constexpr Traffic traffic(Kernel k, PreconType m) {
  const int apply = m == PreconType::kNone ? 0 : 1;
  switch (k) {
    case Kernel::kResidual: return {2, 2, 1};  // u, u0 → w, r
    case Kernel::kSmvp: return {1, 1, 1};      // src → dst
    case Kernel::kSmvpDot2: return {2, 1, 1};  // src, other → dst
    case Kernel::kCopy: return {1, 1};
    case Kernel::kAxpy:
    case Kernel::kXpby: return {2, 1};
    case Kernel::kDot: return {2, 0};
    case Kernel::kNorm2: return {1, 0};
    case Kernel::kCalcUr: return {4, 2};  // u, r, p, w → u, r
    // ... and z = M⁻¹r under a preconditioner.
    case Kernel::kCalcUrDot: return {4, 2.0 + apply, 0, apply};
    // z, p, s, w, u, r → p, s, u, r, z (z = r without one).
    case Kernel::kChronoUpdate: return {6, 5, 0, apply};
    case Kernel::kPrecon: return {1, 1, 0, 1};    // kNone copies
    case Kernel::kBlockInit: return {0, 2, 1};    // → cp, bfp
    case Kernel::kChebyInit:                      // res → dir
      return m == PreconType::kJacobiBlock ? Traffic{2, 2, 0, 1}
                                           : Traffic{1, 1, 0, apply};
    // res, w, dir, acc → res, dir, acc; w stays in L2 between the halves
    // (block-Jacobi also writes its M⁻¹·res into w).
    case Kernel::kChebyUpdate:
      return {4, m == PreconType::kJacobiBlock ? 4.0 : 3.0, 0, apply, 2};
    // u, u0, saved u → saved u, u; the saved copy stays in L2.
    case Kernel::kJacobi: return {3, 2, 1, 0, 2};
    case Kernel::kDowncast: return {1, 0.5};
    case Kernel::kUpcast: return {0.5, 1};
    case Kernel::kClearFp32: return {0, 3.5};
    case Kernel::kAddCorrection: return {1.5, 1};
  }
  return {};
}

}  // namespace tealeaf::kernels
