#pragma once

#include <string>
#include <vector>

#include "comm/solve_trace.hpp"
#include "ops/operator_kind.hpp"
#include "precon/preconditioner.hpp"

namespace tealeaf {

/// The four stand-alone solvers TeaLeaf integrates (paper §II).
enum class SolverType : int {
  kJacobi = 0,
  kCG = 1,
  kChebyshev = 2,
  kPPCG = 3,  ///< CPPCG: CG polynomially preconditioned with Chebyshev
};

[[nodiscard]] const char* to_string(SolverType t);
[[nodiscard]] SolverType solver_type_from_string(const std::string& s);
/// Parses the deck/sweep preconditioner names: none, jac_diag, jac_block.
/// The multigrid V-cycle has no spelling here (the solver name "mg-pcg"
/// selects it; see with_solver_name).
[[nodiscard]] PreconType precon_type_from_string(const std::string& s);

/// Storage/arithmetic precision of one solve (tl_precision).  The solvers
/// are bandwidth-bound, so fp32 field and operator storage halves the
/// dominant traffic term; reductions and solver-scalar recurrences
/// (alpha/beta, Chebyshev coefficients, eigenvalue estimates) stay fp64
/// in every mode — only elementwise storage and arithmetic change.
enum class Precision : int {
  kDouble = 0,  ///< all-fp64, the default — bitwise identical to pre-axis
  kSingle = 1,  ///< honest all-fp32: may stall above tight tolerances
  /// fp32 inner solves wrapped in an fp64 iterative-refinement outer
  /// loop: recompute the true residual in fp64, re-solve the correction
  /// in fp32, repeat (bounded) until the fp64 residual meets tl_eps.
  kMixed = 2,
};

[[nodiscard]] const char* to_string(Precision p);
[[nodiscard]] Precision precision_from_string(const std::string& s);

/// Full configuration of one linear solve; mirrors the `tl_*` options of
/// an upstream tea.in deck.
struct SolverConfig {
  SolverType type = SolverType::kCG;
  PreconType precon = PreconType::kNone;

  /// Outer-iteration cap (tl_max_iters); the fp32 passes of a mixed
  /// solve share it.
  int max_iters = 10000;
  double eps = 1e-10;      ///< relative convergence tolerance (tl_eps)

  /// Matrix-powers halo depth (paper §IV-C2).  1 = classic exchange per
  /// operator application; n > 1 = one depth-n exchange per n inner
  /// applications.  Only the PPCG inner loop uses depths > 1.
  int halo_depth = 1;

  /// CG iterations run up-front to estimate the extreme eigenvalues via
  /// the Lanczos connection (paper §III-D; upstream tl_*_presteps).
  int eigen_cg_iters = 20;

  /// Chebyshev steps per PPCG outer iteration (polynomial degree;
  /// upstream tl_ppcg_inner_steps).
  int inner_steps = 10;

  /// Safety widening applied to the eigenvalue estimates.
  double eig_safety_lo = 0.95;
  double eig_safety_hi = 1.05;

  /// Externally supplied eigenvalue estimates (Chebyshev/PPCG).  When
  /// both are set (0 < eig_hint_min <= eig_hint_max) the solver SKIPS its
  /// CG presteps and builds the Chebyshev polynomial directly on
  /// [eig_hint_min, eig_hint_max] — the solve-server's session cache uses
  /// this to amortise eigenvalue estimation across repeat solves of the
  /// same operator.  The iterate path differs from a prestepped solve (no
  /// CG iterations run first), so hinted solves are a distinct — faster —
  /// configuration, not a bitwise-equal one.  A stale or wrong hint makes
  /// the polynomial indefinite and surfaces as SolveStats::breakdown,
  /// which the server answers with a re-route.  0 = estimate as usual.
  double eig_hint_min = 0.0;
  double eig_hint_max = 0.0;

  /// True when both eigenvalue hints are set (see eig_hint_min).
  [[nodiscard]] bool has_eig_hints() const {
    return eig_hint_min > 0.0 && eig_hint_max >= eig_hint_min;
  }

  /// The stand-alone Chebyshev solver has no per-iteration reduction;
  /// it checks the residual norm every this many iterations.
  int cheby_check_interval = 20;

  /// CG only: use the Chronopoulos-Gear recurrence, which fuses the two
  /// dot products of each iteration into a single allreduce — the §VII
  /// future-work restructuring ("multiple dot products combined into a
  /// single communication step").  Slightly less numerically robust than
  /// classic CG; off by default.
  bool fuse_cg_reductions = false;

  /// Row-block height of the tiled execution engine (tl_tile_rows).  Every
  /// solve runs as ONE parallel region around the whole solve
  /// (worksharing loops, team reductions and team-aware halo exchanges
  /// inside; see solve_in_region), and every sweep runs through the tile
  /// engine; this knob only sets the block height.
  /// > 0: sweeps iterate over row-blocks of this many rows so the
  ///      per-block working set fits in L2, and the engine workshares
  ///      (rank, row-block) pairs over the whole thread team when there
  ///      are more threads than simulated ranks.  A height >= the rows of
  ///      a plane is one block per plane.  Under block-Jacobi run_solver
  ///      rounds the height up to whole 4-row strips, so the strip solve
  ///      runs inside the tile.
  ///   0: one block per plane ("untiled": one block per rank in 2-D).
  ///  -1: "auto", the default — derived at solve time from the per-core
  ///      L2 of the host the solve runs on and the chunk width (see
  ///      resolve_tile_rows); a 2-D chunk whose rows fit one host tile
  ///      runs as one block per rank.
  /// Iterates and iteration counts are bitwise identical for every value.
  /// Under the multigrid preconditioner the height tiles the CG sweeps;
  /// the V-cycle's row loops workshare over the team as they are.
  int tile_rows = -1;

  /// Operator representation the solve traverses (tl_operator).  kStencil
  /// is the classic matrix-free path; kCsr runs the same solvers over an
  /// assembled sparse matrix (assembled from the stencil coefficients at
  /// prepare time, or loaded from a Matrix Market deck).
  /// Assembled operators store interior rows only, so they are limited to
  /// halo_depth == 1 (the matrix-powers extended sweeps would need
  /// assembled halo rows).
  OperatorKind op = OperatorKind::kStencil;

  /// Storage/arithmetic precision (tl_precision = double|single|mixed).
  /// kDouble is the default and bitwise identical to the pre-axis code;
  /// kMixed converges to the same eps through fp64 iterative refinement
  /// around fp32 inner solves; kSingle is the honest all-fp32 mode for
  /// the sweep to price.  The multigrid preconditioner and loaded Matrix
  /// Market operators stay double-only.
  Precision precision = Precision::kDouble;

  /// Throws TeaError on inconsistent combinations, e.g. block-Jacobi with
  /// matrix-powers depth > 1 (the strips would need fresh whole-block
  /// data every inner step — paper §IV-C2 last paragraph), or any
  /// combination a solve would otherwise only discover inside its
  /// parallel region, where it cannot throw.  The multigrid
  /// preconditioner runs only inside classic CG (no fused reductions) on
  /// the fp64 matrix-free stencil at halo depth 1; check_solvable
  /// (solvers/solver.hpp) adds the checks that need the cluster: the
  /// halo depth and mg-pcg's one rank.
  void validate() const;

  /// Construction-time misuse check: everything `validate()` rejects PLUS
  /// the silently-misleading combinations the solvers historically
  /// tolerated — e.g. eigenvalue hints on a solver that has no presteps
  /// to replace.  Errors carry did-you-mean
  /// guidance in the deck parser's style.  Returns *this so call sites
  /// can build-and-validate in one expression:
  ///   SolveSession s(deck);  s.solve(cfg.validated());
  /// The entry-point layers (SolveSession, the solve server, the sweep)
  /// call this once up front instead of each call site re-checking.
  [[nodiscard]] SolverConfig validated() const;
};

/// `cfg` set to run the solver a sweep axis or a route names: one of the
/// four SolverType names, or "mg-pcg" — classic CG preconditioned by one
/// multigrid V-cycle, the PETSc CG + BoomerAMG baseline of paper Fig. 7.
/// The V-cycle fills mg-pcg's preconditioner slot, so a precon other than
/// none throws; mg-pcg is classic CG, so fused reductions are switched
/// off.  Throws TeaError on unknown names.
[[nodiscard]] SolverConfig with_solver_name(SolverConfig cfg,
                                            const std::string& solver);

/// Declarative design-space sweep axes: the deck's `sweep_*` section
/// (paper title: "enable design-space explorations").  Each axis lists
/// the values to visit; driver/sweep runs the full cross-product
/// solver × preconditioner × matrix-powers depth × mesh size × threads.
/// An empty `solvers` list means the deck does not request a sweep.
struct SweepSpec {
  /// Solver axis by name: the four SolverType solvers plus "mg-pcg"
  /// (CG with a multigrid V-cycle preconditioner, the baseline of paper
  /// Fig. 7; see with_solver_name).
  std::vector<std::string> solvers;
  std::vector<PreconType> precons = {PreconType::kNone};
  std::vector<int> halo_depths = {1};    ///< matrix-powers depth (PPCG)
  std::vector<int> mesh_sizes;           ///< empty = the base deck's mesh
  std::vector<int> thread_counts = {0};  ///< 0 = each mesh's team_width
  /// Tile-height axis (SolverConfig::tile_rows; 0 = untiled): the
  /// execution-engine dimension of the design space.
  std::vector<int> tile_rows = {0};
  /// Geometry axis (`sweep_geometry = 2d,3d`): the eighth design-space
  /// dimension.  A 3-D cell runs the 7-point operator on a mesh_n³ brick
  /// through the same unified core (labels carry a trailing "/3d", the
  /// CSV/JSON tables a `geometry` column).  Empty = inherit the base
  /// deck's geometry, like the mesh-size axis.  Every solver — mg-pcg
  /// and its dimension-generic multigrid hierarchy included — runs in
  /// both geometries.
  std::vector<int> geometries;
  /// Operator-format axis (`sweep_operator = stencil,csr`): the ninth
  /// design-space dimension, A/B-ing SolverConfig::op — the matrix-free
  /// stencil against the assembled CSR matrix.
  /// Assembled cells only combine with halo depth 1 and not with mg-pcg
  /// (its hierarchy is built from face coefficients), so other
  /// combinations are enumerated but skipped.
  std::vector<std::string> operators = {"stencil"};
  /// Precision axis (`sweep_precision = double,single,mixed`): the
  /// tenth design-space dimension, A/B-ing SolverConfig::precision
  /// (labels carry `/f32` or `/mixed`, CSV/JSON a `precision` column).
  /// mg-pcg cells stay double-only, so other combinations are enumerated
  /// but skipped.
  std::vector<std::string> precisions = {"double"};
  int ranks = 4;                         ///< simulated ranks per run

  [[nodiscard]] bool requested() const { return !solvers.empty(); }

  /// Total number of cross-product cells (invalid combinations included;
  /// the sweep engine reports those as skipped).
  [[nodiscard]] std::size_t num_cases() const;

  /// Throws TeaError on unknown solver names or non-positive axis values.
  void validate() const;
};

/// Outcome of one linear solve.
struct SolveStats {
  bool converged = false;
  /// Numerical breakdown (e.g. ⟨p, A·p⟩ <= 0) stopped the solve early.
  /// Breakdowns are reported, not thrown: a design-space sweep records
  /// the configuration as failed and moves to the next cell instead of
  /// aborting the whole cross-product.
  bool breakdown = false;
  std::string breakdown_reason;
  int outer_iters = 0;           ///< CG/PPCG outer or Jacobi/Cheby iterations
  long long inner_steps = 0;     ///< PPCG inner Chebyshev steps in total
  long long spmv_applies = 0;    ///< total A·x applications (any bounds)
  int eigen_cg_iters = 0;        ///< CG presteps used for eigen estimation
  /// Mixed mode only: fp64 iterative-refinement outer steps taken (the
  /// number of fp32 inner solves beyond the first).  0 for double/single.
  int refine_steps = 0;
  double eigmin = 0.0;           ///< widened eigenvalue estimates (0 if n/a)
  double eigmax = 0.0;
  double initial_norm = 0.0;     ///< sqrt of the initial convergence metric
  double final_norm = 0.0;       ///< sqrt of the final convergence metric
  double solve_seconds = 0.0;    ///< wall-clock of the simulated solve
  /// Preconditioner set-up outside solve_seconds: the multigrid
  /// hierarchy's construction (AMG's setup phase).  0 for every other
  /// preconditioner.
  double setup_seconds = 0.0;
  /// Measured fill of the assembled operator (0 = matrix-free stencil).
  double nnz_per_row = 0.0;
  /// Row-block height the solve ran at: the config's, with `auto`
  /// resolved (resolve_tile_rows).
  int tile_rows = 0;
  /// Threads of the team the solver body ran on: the cluster's
  /// team_width for run_solver, the sub-team's size in a batch.  0 when
  /// no solver body ran (a mixed solve of a zero right-hand side).
  int threads = 0;
  /// What the solve ran — kernel launches, halo exchanges and reductions
  /// per phase — as its cluster counted them: the performance model's
  /// one description of the solve (model/trace.hpp).
  SolveTrace trace;
};

}  // namespace tealeaf
