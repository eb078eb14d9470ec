// Design-space exploration in miniature (the paper's purpose for
// TeaLeaf): run the same diffusion problem with every solver and
// preconditioner combination and compare iterations, operator
// applications and — crucially — global reductions.
//
// Every case runs through ONE SolveSession: the problem shape never
// changes, so the cluster allocation is built once and reset() re-seeds
// the fields per case — the same reuse the solve server's shape cache
// performs at scale.
//
// Run:  ./examples/solver_comparison [--mesh 96] [--ranks 4]

#include <cstdio>

#include "api/solve_api.hpp"
#include "driver/decks.hpp"
#include "util/args.hpp"

namespace {

void run_case(tealeaf::SolveSession& session, const tealeaf::InputDeck& base,
              const char* label, tealeaf::SolverType type,
              tealeaf::PreconType precon, int halo_depth) {
  tealeaf::SolverConfig cfg = base.solver;
  cfg.type = type;
  cfg.precon = precon;
  cfg.halo_depth = halo_depth;
  cfg.max_iters = 200000;
  session.reset(base);
  session.cluster().reset_stats();
  const tealeaf::SolveStats st = session.solve(cfg);
  const auto& cs = session.cluster().stats();
  std::printf("%-24s %7d %9lld %11lld %10lld %10lld  %s\n", label,
              st.outer_iters, st.spmv_applies,
              static_cast<long long>(cs.reductions),
              static_cast<long long>(cs.exchange_calls),
              static_cast<long long>(cs.message_bytes / 1024),
              st.converged ? "ok" : "FAILED");
}

int run(const tealeaf::Args& args) {
  const int n = args.get_int("mesh", 96);
  const int ranks = args.get_int("ranks", 4);

  const tealeaf::InputDeck base = tealeaf::decks::layered_material(n, 1);
  std::printf("one timestep of the layered-material problem, %dx%d, %d "
              "ranks\n\n", n, n, ranks);
  std::printf("%-24s %7s %9s %11s %10s %10s\n", "solver", "iters", "spmv",
              "reductions", "exchanges", "KB moved");

  using tealeaf::PreconType;
  using tealeaf::SolverType;
  // One session, halo sized for the deepest matrix-powers case below.
  tealeaf::SolveSession session(base, ranks, /*halo_override=*/16);
  run_case(session, base, "jacobi", SolverType::kJacobi, PreconType::kNone,
           1);
  run_case(session, base, "cg", SolverType::kCG, PreconType::kNone, 1);
  run_case(session, base, "cg + diag", SolverType::kCG,
           PreconType::kJacobiDiag, 1);
  run_case(session, base, "cg + block", SolverType::kCG,
           PreconType::kJacobiBlock, 1);
  run_case(session, base, "chebyshev", SolverType::kChebyshev,
           PreconType::kNone, 1);
  run_case(session, base, "ppcg - 1", SolverType::kPPCG, PreconType::kNone,
           1);
  run_case(session, base, "ppcg - 4", SolverType::kPPCG, PreconType::kNone,
           4);
  run_case(session, base, "ppcg - 8", SolverType::kPPCG, PreconType::kNone,
           8);
  run_case(session, base, "ppcg - 16 (GPU sweet spot)", SolverType::kPPCG,
           PreconType::kNone, 16);

  std::printf(
      "\nNote how PPCG cuts reductions by ~inner_steps× versus CG, and\n"
      "deeper matrix-powers halos cut exchange rounds at the same maths.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using tealeaf::Flag;
  return tealeaf::run_main(
      argc, argv, {{"mesh", Flag::kInt}, {"ranks", Flag::kInt}}, run);
}
