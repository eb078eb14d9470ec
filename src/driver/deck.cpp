#include "driver/deck.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <type_traits>
#include <vector>

#include "util/error.hpp"
#include "util/numeric.hpp"

namespace tealeaf {

bool StateDef::contains(double x, double y, double dx, double dy) const {
  return contains(x, y, 0.0, dx, dy, 1.0, /*dims=*/2);
}

bool StateDef::contains(double x, double y, double z, double dx, double dy,
                        double dz, int dims) const {
  switch (geometry) {
    case Geometry::kBackground:
      return true;
    case Geometry::kRectangle: {
      const bool in_plane = x >= xmin && x < xmax && y >= ymin && y < ymax;
      if (dims != 3 || zmax <= zmin) return in_plane;  // extruded prism
      return in_plane && z >= zmin && z < zmax;
    }
    case Geometry::kCircle: {
      const double ddx = x - cx;
      const double ddy = y - cy;
      if (dims == 3 && has_cz) {  // sphere
        const double ddz = z - cz;
        return ddx * ddx + ddy * ddy + ddz * ddz <= radius * radius;
      }
      return ddx * ddx + ddy * ddy <= radius * radius;  // cylinder in 3-D
    }
    case Geometry::kPoint:
      // The cell whose centre is nearest the point (within half a cell).
      return std::fabs(x - px) <= 0.5 * dx && std::fabs(y - py) <= 0.5 * dy &&
             (dims != 3 || !has_pz || std::fabs(z - pz) <= 0.5 * dz);
  }
  return false;
}

namespace {

using Text = const std::string&;

// How each field type reads from, and writes to, its value text.  `key`
// (a deck key, or the flag that stands for it) names the value in errors.

void read(int& f, Text v, Text key) { f = parse_int(v, key); }
void read(double& f, Text v, Text key) { f = parse_double(v, key); }
void read(bool& f, Text v, Text key) { f = parse_bool(v, key); }
void read(std::string& f, Text v, Text key) {
  TEA_REQUIRE(!v.empty(), "deck: " + key + " needs a path");
  f = v;
}
void read(PreconType& f, Text v, Text) { f = precon_type_from_string(v); }
void read(OperatorKind& f, Text v, Text) { f = operator_kind_from_string(v); }
void read(Precision& f, Text v, Text) { f = precision_from_string(v); }

/// The spellings of a value, by its number ("" = none): the dimension
/// counts and the enums without a from_string of their own.
constexpr const char* kDimNames[] = {"", "", "2d", "3d"};
constexpr const char* kCoefficientNames[] = {"", "conductivity",
                                             "recip_conductivity"};
constexpr const char* kGeometryNames[] = {"", "rectangle", "circle", "point"};

/// The number `v` spells in `names`; anything else is a TeaError.
template <std::size_t N>
int number_of(const char* const (&names)[N], Text v, Text key) {
  std::string all;
  for (std::size_t i = 0; i < N; ++i) {
    if (*names[i] && v == names[i]) return static_cast<int>(i);
    if (*names[i]) all += std::string(all.empty() ? "" : " or ") + names[i];
  }
  throw TeaError(key + " must be " + all + ", got '" + v + "'");
}

void read(kernels::Coefficient& f, Text v, Text key) {
  f = kernels::Coefficient(number_of(kCoefficientNames, v, key));
}
void read(StateDef::Geometry& f, Text v, Text key) {
  const std::string name = v == "circular" ? "circle" : v;
  f = StateDef::Geometry(number_of(kGeometryNames, name, key));
}
template <class T>
void read(std::vector<T>& f, Text v, Text key) {
  f.clear();
  std::istringstream in(v);
  for (std::string item; std::getline(in, item, ',');) {
    if (!item.empty()) read(f.emplace_back(), item, key);
  }
  TEA_REQUIRE(!f.empty(), "empty list for " + key);
}

std::string format(int v) { return std::to_string(v); }
std::string format(double v) {
  char buf[32];  // the shortest text that reads back as the same double
  return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
}
std::string format(bool on) { return on ? "1" : "0"; }
std::string format(Text s) { return s; }
std::string format(PreconType p) { return to_string(p); }
std::string format(OperatorKind op) { return to_string(op); }
std::string format(Precision p) { return to_string(p); }
std::string format(kernels::Coefficient c) {
  return kCoefficientNames[static_cast<int>(c)];
}
std::string format(StateDef::Geometry g) {
  return kGeometryNames[static_cast<int>(g)];  // background: unwritten
}
template <class T>
std::string format(const std::vector<T>& items) {
  std::string out;
  for (const T& item : items) {
    if (!out.empty()) out += ",";
    out += format(item);
  }
  return out;
}

template <class T>
constexpr KeyRule rule_of() {
  if constexpr (std::is_same_v<T, int>) return KeyRule::kInt;
  if constexpr (std::is_same_v<T, double>) return KeyRule::kDouble;
  if constexpr (std::is_same_v<T, bool>) return KeyRule::kFlag;
  if constexpr (std::is_same_v<T, std::string>) return KeyRule::kPath;
  if constexpr (std::is_same_v<T, std::vector<int>>) return KeyRule::kIntList;
  if constexpr (std::is_enum_v<T>) return KeyRule::kNames;
  return KeyRule::kNameList;
}

template <class C, class T>
C owner_of(T C::*);  // the class a member pointer points into

/// The field a member-pointer path reaches: `&InputDeck::x_cells`, or
/// `&InputDeck::solver, &SolverConfig::eps` for a member of a member.
template <auto... Path, class Owner>
auto& field(Owner& o) {
  return (o .* ... .* Path);
}

/// A key read and written as is, in the field `Path` reaches.
template <auto First, auto... Rest>
constexpr auto plain(const char* name, const char* alias = "") {
  using Owner = decltype(owner_of(First));
  using T = std::remove_cvref_t<decltype(field<First, Rest...>(
      std::declval<Owner&>()))>;
  return KeyRow<Owner>{name, alias, rule_of<T>(),
                       [](Owner& o, Text v, Text key) {
                         read(field<First, Rest...>(o), v, key);
                       },
                       [](const Owner& o) {
                         return format(field<First, Rest...>(o));
                       }};
}

/// `tl_use_<solver>`: a flag that selects solver `T` (off selects none).
template <SolverType T>
constexpr KeyRow<InputDeck> use_solver(const char* name) {
  return {name, "", KeyRule::kFlag,
          [](InputDeck& d, Text v, Text key) {
            if (parse_bool(v, key)) d.solver.type = T;
          },
          [](const InputDeck& d) { return format(d.solver.type == T); }};
}

/// A state's z bound: written for a 3-D box only, and then both bounds,
/// since a state line needs both or neither.
template <double StateDef::*Bound>
std::string box_bound(const StateDef& s) {
  const bool box =
      s.geometry == StateDef::Geometry::kRectangle && s.zmax > s.zmin;
  return box ? format(s.*Bound) : "";
}

/// A state's z centre or z point, which `Given` records was written.
template <double StateDef::*Z, bool StateDef::*Given>
constexpr KeyRow<StateDef> given_z(const char* name, const char* alias) {
  return {name, alias, KeyRule::kDouble,
          [](StateDef& s, Text v, Text key) {
            s.*Z = parse_double(v, key);
            s.*Given = true;
          },
          [](const StateDef& s) { return s.*Given ? format(s.*Z) : ""; }};
}

StateDef parse_state(Text line);

constexpr KeyRow<InputDeck> kDeckKeys[] = {
    {"tl_geometry", "", KeyRule::kNames,
     [](InputDeck& d, Text v, Text key) {
       d.dims = number_of(kDimNames, v, key);
     },
     [](const InputDeck& d) { return std::string(d.dims == 3 ? "3d" : "2d"); }},
    plain<&InputDeck::x_cells>("x_cells"),
    plain<&InputDeck::y_cells>("y_cells"),
    plain<&InputDeck::z_cells>("z_cells", "nz"),
    plain<&InputDeck::xmin>("xmin"),
    plain<&InputDeck::xmax>("xmax"),
    plain<&InputDeck::ymin>("ymin"),
    plain<&InputDeck::ymax>("ymax"),
    plain<&InputDeck::zmin>("zmin"),
    plain<&InputDeck::zmax>("zmax"),
    plain<&InputDeck::initial_timestep>("initial_timestep"),
    plain<&InputDeck::end_time>("end_time"),
    plain<&InputDeck::end_step>("end_step"),
    plain<&InputDeck::solver, &SolverConfig::max_iters>("tl_max_iters"),
    plain<&InputDeck::solver, &SolverConfig::eps>("tl_eps"),
    use_solver<SolverType::kJacobi>("tl_use_jacobi"),
    use_solver<SolverType::kCG>("tl_use_cg"),
    use_solver<SolverType::kChebyshev>("tl_use_chebyshev"),
    use_solver<SolverType::kPPCG>("tl_use_ppcg"),
    plain<&InputDeck::solver, &SolverConfig::precon>("tl_preconditioner_type"),
    plain<&InputDeck::solver, &SolverConfig::inner_steps>(
        "tl_ppcg_inner_steps"),
    plain<&InputDeck::solver, &SolverConfig::eigen_cg_iters>(
        "tl_eigen_cg_iters", "tl_cheby_presteps"),
    plain<&InputDeck::solver, &SolverConfig::halo_depth>("tl_halo_depth"),
    plain<&InputDeck::solver, &SolverConfig::fuse_cg_reductions>(
        "tl_cg_fuse_reductions"),
    // Readable for decks written while the unfused schedule existed;
    // asking for that schedule fails instead of running the fused one.
    {"tl_fuse_kernels", "", KeyRule::kFlag,
     [](InputDeck&, Text v, Text key) {
       TEA_REQUIRE(parse_bool(v, key),
                   "deck: " + key + "=" + v +
                       " asks for the unfused schedule, which was removed — "
                       "every solve runs fused.  Drop the key (or "
                       "tl_tile_rows=0 for untiled sweeps).");
     },
     nullptr},
    {"tl_tile_rows", "", KeyRule::kInt,  // or `auto` (-1)
     [](InputDeck& d, Text v, Text key) {
       d.solver.tile_rows = v == "auto" ? -1 : parse_int(v, key);
     },
     [](const InputDeck& d) {
       return d.solver.tile_rows == -1 ? std::string("auto")
                                       : format(d.solver.tile_rows);
     }},
    plain<&InputDeck::solver, &SolverConfig::op>("tl_operator"),
    plain<&InputDeck::solver, &SolverConfig::precision>("tl_precision"),
    plain<&InputDeck::matrix_file>("matrix_file"),
    plain<&InputDeck::sweep, &SweepSpec::solvers>("sweep_solvers"),
    plain<&InputDeck::sweep, &SweepSpec::precons>("sweep_precons"),
    plain<&InputDeck::sweep, &SweepSpec::halo_depths>("sweep_halo_depths"),
    plain<&InputDeck::sweep, &SweepSpec::mesh_sizes>("sweep_mesh_sizes"),
    plain<&InputDeck::sweep, &SweepSpec::thread_counts>("sweep_threads"),
    plain<&InputDeck::sweep, &SweepSpec::tile_rows>("sweep_tile_rows"),
    {"sweep_geometry", "", KeyRule::kNameList,
     [](InputDeck& d, Text v, Text key) {
       std::vector<std::string> names;
       read(names, v, key);
       d.sweep.geometries.clear();
       for (Text g : names) {
         d.sweep.geometries.push_back(number_of(kDimNames, g, key));
       }
     },
     [](const InputDeck& d) {
       std::vector<std::string> names;
       for (const int g : d.sweep.geometries) {
         names.push_back(g == 3 ? "3d" : "2d");
       }
       return format(names);
     }},
    plain<&InputDeck::sweep, &SweepSpec::operators>("sweep_operator"),
    plain<&InputDeck::sweep, &SweepSpec::precisions>("sweep_precision"),
    plain<&InputDeck::sweep, &SweepSpec::ranks>("sweep_ranks"),
    plain<&InputDeck::coefficient>("tl_coefficient"),
    {"state", "", KeyRule::kState,
     [](InputDeck& d, Text v, Text) { d.states.push_back(parse_state(v)); },
     nullptr},
};

constexpr KeyRow<StateDef> kStateKeys[] = {
    plain<&StateDef::density>("density"),
    plain<&StateDef::energy>("energy"),
    plain<&StateDef::geometry>("geometry"),
    plain<&StateDef::xmin>("xmin"),
    plain<&StateDef::xmax>("xmax"),
    plain<&StateDef::ymin>("ymin"),
    plain<&StateDef::ymax>("ymax"),
    {"zmin", "", KeyRule::kDouble, plain<&StateDef::zmin>("").set,
     box_bound<&StateDef::zmin>},
    {"zmax", "", KeyRule::kDouble, plain<&StateDef::zmax>("").set,
     box_bound<&StateDef::zmax>},
    plain<&StateDef::cx>("xcentre", "xcenter"),
    plain<&StateDef::cy>("ycentre", "ycenter"),
    given_z<&StateDef::cz, &StateDef::has_cz>("zcentre", "zcenter"),
    plain<&StateDef::radius>("radius"),
    plain<&StateDef::px>("x"),
    plain<&StateDef::py>("y"),
    given_z<&StateDef::pz, &StateDef::has_pz>("z", ""),
};

/// The row of `key` (a name or an alias); an unknown key is a TeaError
/// suggesting the nearest one, so a mistyped knob fails loudly instead
/// of silently leaving its default in force.
template <class Owner>
const KeyRow<Owner>& find_key(std::span<const KeyRow<Owner>> rows, Text key,
                              const char* what) {
  for (const KeyRow<Owner>& row : rows) {
    if (key == row.name || (*row.alias && key == row.alias)) return row;
  }
  std::vector<std::string> names;
  for (const KeyRow<Owner>& row : rows) {
    names.push_back(row.name);
    if (*row.alias) names.push_back(row.alias);
  }
  const std::string near = nearest_name(key, names);
  throw TeaError("deck: unknown " + std::string(what) + " '" + key + "'" +
                 (near.empty() ? "" : " (did you mean '" + near + "'?)"));
}

/// `key=value` for every key of `o` that differs from a default Owner's,
/// each between `before` and `after`; a flag is written bare, and only on.
template <class Owner>
void write_keys(std::ostream& os, const Owner& o,
                std::span<const KeyRow<Owner>> rows, const char* before,
                const char* after) {
  static const Owner defaults{};
  for (const KeyRow<Owner>& row : rows) {
    if (row.get == nullptr) continue;
    const std::string v = row.get(o);
    if (v == row.get(defaults)) continue;
    if (row.rule == KeyRule::kFlag) {
      if (v == "1") os << before << row.name << after;
    } else {
      os << before << row.name << "=" << v << after;
    }
  }
}

/// `<n> key=value ...`, the rest of a `state` line.
StateDef parse_state(Text line) {
  std::istringstream in(line);
  int index = 0;
  in >> index;
  TEA_REQUIRE(index >= 1, "deck: state index must be >= 1");
  StateDef st;
  st.geometry = (index == 1) ? StateDef::Geometry::kBackground
                             : StateDef::Geometry::kRectangle;
  std::set<std::string> given;
  std::string tok;
  while (in >> tok) {
    const auto eq = tok.find('=');
    const std::string key = tok.substr(0, eq);
    const KeyRow<StateDef>& row = find_key(state_keys(), key, "state key");
    row.set(st, eq == std::string::npos ? "" : tok.substr(eq + 1), key);
    given.insert(row.name);
  }
  // A half-specified z extent would silently fall back to the extruded
  // (full-z) reading, discarding the bound the user DID give.
  TEA_REQUIRE(given.count("zmin") == given.count("zmax"),
              "deck: state needs both zmin and zmax (or neither, for the "
              "extruded reading)");
  TEA_REQUIRE(!given.count("zmin") || st.zmax > st.zmin,
              "deck: state z extent must be non-empty");
  return st;
}

/// The step count a deck asks for, in a double so that validate() can
/// reject one beyond int range before num_steps() casts it.
double step_count(const InputDeck& d) {
  double steps = d.end_step;
  if (d.end_time > 0.0) {
    const double by_time = std::ceil(d.end_time / d.initial_timestep - 1e-9);
    steps = (d.end_step > 0) ? std::min(steps, by_time) : by_time;
  }
  return steps;
}

}  // namespace

std::span<const KeyRow<InputDeck>> deck_keys() { return kDeckKeys; }
std::span<const KeyRow<StateDef>> state_keys() { return kStateKeys; }

Flag deck_flag(const std::string& name, const std::string& key,
               const std::string& fallback) {
  const KeyRow<InputDeck>& row = find_key(deck_keys(), key, "key");
  return {name, row.rule == KeyRule::kFlag ? Flag::kBool : Flag::kText,
          row.name, fallback};
}

void InputDeck::set(const std::string& key, const std::string& value) {
  find_key(deck_keys(), key, "key").set(*this, value, key);
}

void InputDeck::set(const Args& args) {
  for (const Flag& flag : args.flags()) {
    if (flag.key.empty()) continue;
    if (!args.has(flag.name) && flag.fallback.empty()) continue;
    find_key(deck_keys(), flag.key, "key")
        .set(*this, args.get(flag.name, flag.fallback), "--" + flag.name);
  }
}

InputDeck InputDeck::parse(std::istream& in) {
  InputDeck deck;
  std::string raw;
  bool in_block = false;
  while (std::getline(in, raw)) {
    // Strip comments (! and # start a comment, as in upstream decks).
    std::istringstream line(raw.substr(0, raw.find_first_of("!#")));
    std::string key;
    if (!(line >> key)) continue;
    if (key == "*tea" || key == "*endtea") {
      // Keep scanning after *endtea: a knob there must be rejected below,
      // not silently dropped.
      in_block = key == "*tea";
      continue;
    }
    std::string value;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    }
    if (!in_block) {
      // A solver/sweep knob outside the block would be silently lost.
      TEA_REQUIRE(key.rfind("tl_", 0) != 0 && key.rfind("sweep_", 0) != 0,
                  "deck: key '" + key +
                      "' appears outside the *tea…*endtea block");
      continue;
    }
    if (eq == std::string::npos) {
      // `key value`, a bare flag, or a state line's `<n> key=value ...`.
      std::getline(line >> std::ws, value);
      value.erase(value.find_last_not_of(" \t\r") + 1);
    }
    deck.set(key, value);
  }
  deck.validate();
  return deck;
}

InputDeck InputDeck::parse_string(const std::string& text) {
  std::istringstream in(text);
  return parse(in);
}

std::string InputDeck::to_string() const {
  std::ostringstream os;
  os << "*tea\n";
  write_keys(os, *this, deck_keys(), "", "\n");
  for (std::size_t i = 0; i < states.size(); ++i) {
    os << "state " << (i + 1);
    write_keys(os, states[i], state_keys(), " ", "");
    os << "\n";
  }
  os << "*endtea\n";
  return os.str();
}

int InputDeck::num_steps() const {
  return static_cast<int>(step_count(*this));
}

void InputDeck::validate() const {
  TEA_REQUIRE(dims == 2 || dims == 3, "deck: tl_geometry must be 2d or 3d");
  TEA_REQUIRE(x_cells > 0 && y_cells > 0, "deck: cell counts must be > 0");
  TEA_REQUIRE(xmax > xmin && ymax > ymin, "deck: domain must be non-empty");
  if (dims == 3) {
    TEA_REQUIRE(z_cells > 0, "deck: z_cells must be > 0");
    TEA_REQUIRE(zmax > zmin, "deck: z domain must be non-empty");
  } else {
    TEA_REQUIRE(z_cells == 1,
                "deck: z_cells requires tl_geometry=3d (a 2-D run has "
                "exactly one z plane)");
  }
  TEA_REQUIRE(initial_timestep > 0.0, "deck: timestep must be positive");
  const double steps = step_count(*this);
  TEA_REQUIRE(steps <= std::numeric_limits<int>::max(),
              "deck: end_time / initial_timestep asks for " + format(steps) +
                  " steps, more than an int can count");
  if (!matrix_file.empty()) {
    TEA_REQUIRE(dims == 2,
                "deck: matrix_file decks are 2-D (the Matrix Market rows "
                "map onto the x_cells x y_cells grid) — drop "
                "tl_geometry=3d or the matrix_file");
    if (solver.op == OperatorKind::kStencil) {
      throw TeaError(
          "deck: matrix_file needs an assembled operator to hold the "
          "loaded matrix, but tl_operator is 'stencil' (the matrix-free "
          "path has no storage for it).  Did you mean tl_operator = csr?");
    }
    if (solver.precision != Precision::kDouble) {
      throw TeaError(
          "deck: tl_precision single/mixed cannot be combined with "
          "matrix_file — a loaded operator has no stencil coefficients to "
          "re-assemble in fp32.  Use tl_precision = double.");
    }
  }
  TEA_REQUIRE(end_time > 0.0 || end_step > 0,
              "deck: need end_time or end_step");
  TEA_REQUIRE(!states.empty(), "deck: need at least the background state");
  TEA_REQUIRE(states.front().geometry == StateDef::Geometry::kBackground,
              "deck: state 1 must be the background");
  for (const StateDef& st : states) {
    TEA_REQUIRE(st.density > 0.0, "deck: densities must be positive");
    TEA_REQUIRE(st.energy >= 0.0, "deck: energies must be non-negative");
  }
  solver.validate();
  if (sweep.requested()) sweep.validate();
}

}  // namespace tealeaf
