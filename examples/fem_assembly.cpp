// Assembled-operator workflow end to end: build a finite-element system
// the stencil path cannot represent, write it as a Matrix Market file,
// and solve it through the SolveServer on the assembled CSR path (the
// MiniFE-style use of the solver stack).
//
// The operator is the Q1 Galerkin discretisation of one implicit heat
// step on the unit square: A = M + dt·K over (n+1)² nodes, where M is
// the consistent mass matrix and K the stiffness matrix.  A is SPD (pure
// Neumann K plus a positive-definite M), nine entries per interior row —
// a genuinely different sparsity pattern from the deck's 5-point
// stencil.  The deck's material states still provide the right-hand
// side (u0 = ρ·e per node).
//
// Build & run:  ./examples/fem_assembly [--elems 15] [--dt 0.05]
//               [--out fem_system.mtx]
// Exits non-zero if the assembled solve fails to converge.

#include <cstdio>
#include <map>
#include <utility>

#include "io/matrix_market.hpp"
#include "server/solve_server.hpp"
#include "util/args.hpp"

namespace {

/// Assemble A = M + dt·K on an elems × elems Q1 grid of the unit square.
tealeaf::io::TripletMatrix assemble_q1(int elems, double dt) {
  const int nodes = elems + 1;
  const double h = 1.0 / elems;
  // Element matrices on a square Q1 element, local nodes numbered
  // (0,0) (1,0) (0,1) (1,1).  K_e is h-independent in 2-D; M_e ∝ h².
  const double K[4][4] = {{4, -1, -1, -2},
                          {-1, 4, -2, -1},
                          {-1, -2, 4, -1},
                          {-2, -1, -1, 4}};
  const double M[4][4] = {{4, 2, 2, 1},
                          {2, 4, 1, 2},
                          {2, 1, 4, 2},
                          {1, 2, 2, 4}};
  const double kw = dt / 6.0;
  const double mw = h * h / 36.0;

  std::map<std::pair<std::int64_t, std::int64_t>, double> acc;
  for (int ey = 0; ey < elems; ++ey) {
    for (int ex = 0; ex < elems; ++ex) {
      const std::int64_t base =
          static_cast<std::int64_t>(ey) * nodes + ex;
      const std::int64_t local[4] = {base, base + 1, base + nodes,
                                     base + nodes + 1};
      for (int a = 0; a < 4; ++a) {
        for (int b = 0; b < 4; ++b) {
          acc[{local[a], local[b]}] += mw * M[a][b] + kw * K[a][b];
        }
      }
    }
  }
  tealeaf::io::TripletMatrix m;
  m.n = static_cast<std::int64_t>(nodes) * nodes;
  m.entries.reserve(acc.size());
  for (const auto& [rc, v] : acc) m.entries.push_back({rc.first, rc.second, v});
  return m;
}

int run(const tealeaf::Args& args) {
  const int elems = args.get_int("elems", 15);
  const double dt = args.get_double("dt", 0.05);
  const std::string path = args.get("out", "fem_system.mtx");
  const int nodes = elems + 1;

  const tealeaf::io::TripletMatrix system = assemble_q1(elems, dt);
  tealeaf::io::save_matrix_market(path, system);
  std::printf("fem_assembly: %dx%d Q1 nodes, %lld rows, %zu entries -> %s\n",
              nodes, nodes, static_cast<long long>(system.n),
              system.entries.size(), path.c_str());

  // The deck maps the matrix rows onto an x_cells × y_cells grid and
  // supplies the right-hand side from its states: a hot square patch on
  // a unit background.
  tealeaf::InputDeck deck;
  deck.x_cells = nodes;
  deck.y_cells = nodes;
  deck.end_step = 1;
  deck.matrix_file = path;
  deck.solver.type = tealeaf::SolverType::kCG;
  deck.solver.op = tealeaf::OperatorKind::kCsr;
  deck.solver.eps = 1e-10;
  tealeaf::StateDef bg;
  deck.states.push_back(bg);
  tealeaf::StateDef hot;
  hot.geometry = tealeaf::StateDef::Geometry::kRectangle;
  hot.energy = 10.0;
  hot.xmin = 2.0;
  hot.xmax = 6.0;
  hot.ymin = 2.0;
  hot.ymax = 6.0;
  deck.states.push_back(hot);
  deck.validate();

  tealeaf::SolveServer server;
  tealeaf::SolveRequest req;
  req.deck = deck;
  req.nranks = 1;  // loaded operators cover the undecomposed mesh
  req.tag = "csr";
  const tealeaf::SolveResult res = server.solve_one(std::move(req));
  std::printf("%-12s  iters=%4d  |r|=%9.2e  nnz/row=%.2f  %s\n",
              res.tag.c_str(), res.stats.outer_iters, res.stats.final_norm,
              res.stats.nnz_per_row, res.ok() ? "converged" : "NOT CONVERGED");
  if (!res.ok()) return 1;
  std::printf("FEM OK: %lld-row Matrix Market system solved on the "
              "assembled CSR path\n",
              static_cast<long long>(system.n));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using tealeaf::Flag;
  return tealeaf::run_main(
      argc, argv, {{"elems", Flag::kInt}, {"dt", Flag::kDouble}, {"out"}}, run);
}
