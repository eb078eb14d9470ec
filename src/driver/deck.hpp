#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "ops/kernels.hpp"
#include "solvers/solver_config.hpp"

namespace tealeaf {

/// One material/energy region, equivalent to a `state` line in an
/// upstream tea.in deck.  State 1 is the background; later states
/// overwrite cells whose centres fall inside their geometry.
///
/// On a 3-D mesh a state with explicit z information is a box, sphere or
/// 3-D point; a state WITHOUT z information extrudes through the whole z
/// extent (rectangle → prism, circle → cylinder, point → column), so
/// every 2-D deck has a natural 3-D reading — the basis of the sweep's
/// cross-dimension cells.
struct StateDef {
  enum class Geometry { kBackground, kRectangle, kCircle, kPoint };

  double density = 1.0;
  double energy = 1.0;
  Geometry geometry = Geometry::kBackground;

  // kRectangle: [xmin,xmax] × [ymin,ymax] (× [zmin,zmax] when zmax > zmin).
  double xmin = 0.0, xmax = 0.0, ymin = 0.0, ymax = 0.0;
  double zmin = 0.0, zmax = 0.0;
  // kCircle: centre + radius (a sphere when has_cz; else a cylinder).
  double cx = 0.0, cy = 0.0, cz = 0.0, radius = 0.0;
  bool has_cz = false;
  // kPoint: the cell containing (px, py[, pz]).
  double px = 0.0, py = 0.0, pz = 0.0;
  bool has_pz = false;

  [[nodiscard]] bool contains(double x, double y, double dx,
                              double dy) const;
  /// 3-D form; `dims == 2` ignores every z argument.
  [[nodiscard]] bool contains(double x, double y, double z, double dx,
                              double dy, double dz, int dims) const;
};

/// Complete description of a TeaLeaf run: mesh, physics, timestep control,
/// material states and the solver configuration.  Parsed from a tea.in
/// style text deck or built programmatically (see decks.hpp).
struct InputDeck {
  /// Problem dimensionality (`tl_geometry = 2d|3d`); 3-D runs the 7-point
  /// stencil over x_cells × y_cells × z_cells through the same unified
  /// core.
  int dims = 2;
  int x_cells = 10;
  int y_cells = 10;
  int z_cells = 1;
  double xmin = 0.0, xmax = 10.0, ymin = 0.0, ymax = 10.0;
  double zmin = 0.0, zmax = 10.0;

  /// The GlobalMesh this deck describes.
  [[nodiscard]] GlobalMesh mesh() const {
    return dims == 3 ? GlobalMesh::make3d(x_cells, y_cells, z_cells, xmin,
                                          xmax, ymin, ymax, zmin, zmax)
                     : GlobalMesh(x_cells, y_cells, xmin, xmax, ymin, ymax);
  }

  double initial_timestep = 0.04;  ///< fixed dt (paper §V-B: 0.04 µs)
  double end_time = 0.0;           ///< stop at this simulated time (if > 0)
  int end_step = 0;                ///< stop after this many steps (if > 0)

  kernels::Coefficient coefficient = kernels::Coefficient::kConductivity;

  /// Optional Matrix Market file (`matrix_file = <path>.mtx`): the solve
  /// runs over this assembled matrix instead of assembling from the
  /// deck's conduction stencil.  Requires tl_operator = csr, a 2-D deck,
  /// and x_cells·y_cells == the matrix dimension; the deck's states still
  /// provide the right-hand side (u0 = density·energy per cell).
  std::string matrix_file;

  SolverConfig solver;
  /// Optional design-space sweep over this deck (driver/sweep.hpp runs
  /// it); populated by the `sweep_*` keys, empty for single-solve decks.
  SweepSpec sweep;
  std::vector<StateDef> states;  ///< states[0] is the background

  /// Parse a tea.in-style deck.  Recognised keys (one per line between
  /// `*tea` and `*endtea`): x_cells, y_cells, xmin/xmax/ymin/ymax,
  /// initial_timestep, end_time, end_step, tl_max_iters, tl_eps,
  /// tl_use_jacobi / tl_use_cg / tl_use_chebyshev / tl_use_ppcg,
  /// tl_preconditioner_type (none|jac_diag|jac_block), tl_ppcg_inner_steps,
  /// tl_eigen_cg_iters, tl_halo_depth (matrix powers),
  /// tl_operator (stencil|csr), matrix_file (<path>.mtx),
  /// tl_precision (double|single|mixed),
  /// tl_coefficient (conductivity|recip_conductivity), the sweep section
  /// (comma-separated axis lists): sweep_solvers, sweep_precons,
  /// sweep_halo_depths, sweep_mesh_sizes, sweep_threads, sweep_operator,
  /// sweep_precision, sweep_ranks,
  /// and `state` lines:
  ///   state <n> density=<v> energy=<v> [geometry=rectangle|circle|point
  ///     xmin= xmax= ymin= ymax= | xcentre= ycentre= radius= | x= y=]
  static InputDeck parse(std::istream& in);
  static InputDeck parse_string(const std::string& text);

  /// Serialise back to deck text (round-trips through parse).
  [[nodiscard]] std::string to_string() const;

  /// Number of timesteps the run will take.
  [[nodiscard]] int num_steps() const;

  void validate() const;
};

}  // namespace tealeaf
