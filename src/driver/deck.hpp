#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "ops/kernels.hpp"
#include "solvers/solver_config.hpp"
#include "util/args.hpp"

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

  /// Parse a tea.in-style deck: `key=value` (or `key value`, or a bare
  /// flag) lines and `state` lines between `*tea` and `*endtea`.  The keys
  /// are the rows of deck_keys() and state_keys(); docs/deck_reference.md
  /// documents each.
  static InputDeck parse(std::istream& in);
  static InputDeck parse_string(const std::string& text);

  /// Set one key, as a deck line `key=value` would (no validation: parse
  /// and the programs validate the finished deck).  Throws TeaError for an
  /// unknown key, with the nearest known one, or for a value its rule
  /// refuses.
  void set(const std::string& key, const std::string& value);

  /// set() for every flag of `args` that repeats a deck key (deck_flag):
  /// at its given value, else at its fallback.  Errors name the flag.
  void set(const Args& args);

  /// Serialise back to deck text (round-trips through parse): every key
  /// whose value differs from a default InputDeck's, then the states.
  [[nodiscard]] std::string to_string() const;

  /// Number of timesteps the run will take.
  [[nodiscard]] int num_steps() const;

  void validate() const;
};

/// How a key's value reads.
enum class KeyRule {
  kInt,       ///< (`tl_tile_rows` also takes `auto`)
  kDouble,
  kFlag,      ///< bare, `=1|true|on` or `=0|false|off`
  kNames,     ///< one of a set of names
  kIntList,   ///< comma-separated ints
  kNameList,  ///< comma-separated names
  kPath,      ///< a non-empty path
  kState,     ///< `state`: a state line, `<n> key=value ...`
};

/// One row of a key table: the key, its alias ("" = none), its value rule,
/// and how it writes and reads the `Owner` field it stands for.  `set`
/// names `key` (as written) in its errors; `get` is null for a key that
/// to_string never writes (tl_fuse_kernels, state).
template <class Owner>
struct KeyRow {
  const char* name;
  const char* alias;
  KeyRule rule;
  void (*set)(Owner&, const std::string& value, const std::string& key);
  std::string (*get)(const Owner&);
};

/// The keys of a *tea block, in the order to_string writes them.
[[nodiscard]] std::span<const KeyRow<InputDeck>> deck_keys();
/// The keys of a `state` line.
[[nodiscard]] std::span<const KeyRow<StateDef>> state_keys();

/// A program flag that repeats deck key `key`: `--name` takes the key's
/// rule (a kFlag key is a switch) and InputDeck::set(args) sets the key
/// from it, or from `fallback` when the flag is absent ("" = leave the key
/// as the program built it).
[[nodiscard]] Flag deck_flag(const std::string& name, const std::string& key,
                             const std::string& fallback = "");

}  // namespace tealeaf
