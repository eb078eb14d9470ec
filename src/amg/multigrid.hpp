#pragma once

#include <vector>

#include "mesh/field.hpp"
#include "ops/kernels.hpp"
#include "util/parallel.hpp"

namespace tealeaf {

/// One level of the geometric multigrid hierarchy: an nx × ny (× nz) cell
/// grid with face-coefficient fields in the same convention as the
/// TeaLeaf operator (kx(j,k,l) couples cells (j-1,k,l),(j,k,l); boundary
/// faces zero; A = identity + K-weighted graph Laplacian).  `dims`
/// selects the stencil arity: a 2-D level carries no kz field and its
/// storage is bit-for-bit the classic 2-D layout.
struct MGLevel {
  int dims = 2;
  int nx = 0;
  int ny = 0;
  int nz = 1;
  Field<double> u;    ///< correction being computed on this level
  Field<double> rhs;  ///< right-hand side / restricted residual
  Field<double> res;  ///< residual scratch
  Field<double> kx;   ///< x-face coefficients (dt/dx²-scaled)
  Field<double> ky;   ///< y-face coefficients
  Field<double> kz;   ///< z-face coefficients (3-D levels only)

  /// Flattened (plane, row) count — the V-cycle's worksharing unit.
  [[nodiscard]] int num_rows() const { return ny * nz; }

  /// Non-owning operator view for the kernels-layer level cores.
  [[nodiscard]] kernels::MGOperatorView op() const {
    return {&kx, &ky, dims == 3 ? &kz : nullptr, nx, ny, nz};
  }
};

/// Geometric multigrid V-cycle for the TeaLeaf operator — the
/// reproduction's stand-in for Hypre BoomerAMG (docs/architecture.md,
/// "Performance model"), applied as CG's preconditioner
/// (PreconType::kMultigrid, "mg-pcg"): on this regular 5-point/7-point
/// problem AMG's behaviour (near mesh-independent convergence,
/// latency-bound coarse levels) matches geometric MG.
///
/// Dimension-generic like the kernel/solver stack: one hierarchy serves
/// the 2-D 5-point and the 3-D 7-point operator.  Coarsening picks
/// per-axis factors from the (nx, ny, nz) extents — an axis coarsens 2:1
/// while its extent exceeds the coarsening floor and holds otherwise (odd
/// trailing cells aggregate singly), so nz = 1 degenerates bit-for-bit to
/// the classic 2-D hierarchy.  Smoothing sweeps, damping and the
/// coarsening floor are fixed constants (multigrid.cpp).  Face
/// coefficients restrict by averaging the overlying fine faces and
/// rescale by 1/4 per coarsened axis (the doubled spacing); residual
/// restriction is full weighting over the
/// 2×2(×2) child cells and prolongation is piecewise constant (the
/// transpose of the restriction), keeping the V-cycle symmetric for use
/// inside CG.  The smoother is weighted Jacobi.  The per-row operator and
/// transfer cores live in ops/kernels (mg_* functions), templated on the
/// stencil arity like the chunk kernels.
class Multigrid {
 public:
  /// Build a 2-D hierarchy from fine-level face coefficients (halo >= 1,
  /// physical-boundary faces zero — exactly what kernels::init_conduction
  /// produces).
  Multigrid(const Field<double>& kx_fine, const Field<double>& ky_fine,
            int nx, int ny);

  /// Build a 3-D (7-point) hierarchy; kz_fine needs a z halo >= 1 for the
  /// face at index nz.  nz = 1 (a single cell-plane, kz ≡ 0) produces a
  /// hierarchy whose every level, residual norm and V-cycle output equals
  /// the 2-D hierarchy's exactly.
  Multigrid(const Field<double>& kx_fine, const Field<double>& ky_fine,
            const Field<double>& kz_fine, int nx, int ny, int nz);

  /// out ≈ A⁻¹·rhs via one V-cycle from a zero initial guess.
  /// `rhs`/`out` are interior-indexed fields of the fine grid shape.
  ///
  /// Runs inside the caller's parallel region: every smoother/residual/
  /// transfer row loop workshares over `team` with barriers between
  /// dependent phases, and all threads of the team must call with the
  /// same arguments.  Every row's arithmetic is independent of the
  /// thread count, so the result is bitwise identical at any count.
  void v_cycle(const Field<double>& rhs, Field<double>& out,
               const Team& team);

  [[nodiscard]] int dims() const { return dims_; }
  [[nodiscard]] int num_levels() const {
    return static_cast<int>(levels_.size());
  }
  [[nodiscard]] const MGLevel& level(int l) const { return levels_[l]; }

  /// A·src at one cell of a level (for tests' residual checks).
  [[nodiscard]] static double apply_stencil(const MGLevel& lv,
                                            const Field<double>& src,
                                            int j, int k, int l = 0);

 private:
  void build(const Field<double>& kx_fine, const Field<double>& ky_fine,
             const Field<double>* kz_fine, int nx, int ny, int nz);
  void smooth(MGLevel& lv, int sweeps, const Team& team);
  void compute_residual(MGLevel& lv, const Team& team);
  void restrict_residual(const MGLevel& fine, MGLevel& coarse,
                         const Team& team);
  void prolong_add(const MGLevel& coarse, MGLevel& fine, const Team& team);

  std::vector<MGLevel> levels_;
  int dims_ = 2;
};

}  // namespace tealeaf
