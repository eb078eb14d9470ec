#pragma once

#include <memory>

#include "amg/multigrid.hpp"
#include "mesh/chunk.hpp"

namespace tealeaf {

/// Result of one multigrid-preconditioned CG solve.
struct MGPCGResult {
  bool converged = false;
  int iterations = 0;
  double initial_norm = 0.0;
  double final_norm = 0.0;
  double setup_seconds = 0.0;  ///< hierarchy construction (AMG setup cost)
  double solve_seconds = 0.0;
};

/// CG preconditioned with one multigrid V-cycle per application — the
/// reproduction's functional substitute for "PETSc CG + Hypre BoomerAMG"
/// (paper §V-A, Fig. 7).  It exhibits the two behaviours the paper
/// contrasts against CPPCG: near mesh-independent iteration counts and an
/// expensive setup phase.
///
/// Dimension-generic like the rest of the solver stack: the same CG loop
/// drives the 2-D 5-point and the 3-D 7-point operator, and a
/// single-plane 3-D solve (nz = 1, kz ≡ 0) reproduces the 2-D iteration
/// counts, residual norms and iterates exactly.
///
/// Runs on the undecomposed global grid; its distributed communication
/// cost is modelled analytically in src/model (DESIGN.md §2.3).  A solve
/// is one parallel region whose row loops (including every V-cycle
/// smoother sweep) workshare over the thread team; dot products reduce
/// per-row partials in row order, so iterates are bitwise independent of
/// the thread count.
class MGPreconditionedCG {
 public:
  struct Options {
    double eps = 1e-10;
    int max_iters = 1000;
    Multigrid::Options mg;
  };

  /// Build a 2-D solver from face-coefficient fields (same convention as
  /// Multigrid).
  MGPreconditionedCG(const Field<double>& kx, const Field<double>& ky,
                     int nx, int ny, const Options& opt);
  MGPreconditionedCG(const Field<double>& kx, const Field<double>& ky,
                     int nx, int ny);

  /// Build a 3-D (7-point) solver; kz needs a z halo >= 1.
  MGPreconditionedCG(const Field<double>& kx, const Field<double>& ky,
                     const Field<double>& kz, int nx, int ny, int nz,
                     const Options& opt);
  MGPreconditionedCG(const Field<double>& kx, const Field<double>& ky,
                     const Field<double>& kz, int nx, int ny, int nz);

  /// Convenience: build from a single-rank TeaLeaf chunk (either
  /// dimension) whose Kx/Ky(/Kz) have been initialised by
  /// kernels::init_conduction.
  static MGPreconditionedCG from_chunk(const Chunk& chunk,
                                       const Options& opt);
  static MGPreconditionedCG from_chunk(const Chunk& chunk);

  /// Solve A·u = rhs; `u` provides the initial guess and receives the
  /// solution (interior-indexed fine-grid fields; `u` needs halo >= 1,
  /// in z too for 3-D solvers).
  MGPCGResult solve(const Field<double>& rhs, Field<double>& u);

  [[nodiscard]] const Multigrid& hierarchy() const { return *mg_; }
  [[nodiscard]] double setup_seconds() const { return setup_seconds_; }

 private:
  int nx_;
  int ny_;
  int nz_ = 1;
  Options opt_;
  std::unique_ptr<Multigrid> mg_;
  double setup_seconds_ = 0.0;
};

}  // namespace tealeaf
