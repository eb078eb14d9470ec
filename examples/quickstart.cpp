// Quickstart: the five-minute tour of the TeaLeaf++ public API.
//
//   1. describe a problem with an InputDeck (or load a tea.in file),
//   2. open a SolveSession — the handle that owns the simulated cluster
//      and performs one implicit conduction step per solve(),
//   3. inspect solver statistics and field summaries.
//
// (TeaLeafApp still exists as a construct-and-run() facade over the same
// session; this tour uses the session directly.)
//
// Build & run:  ./examples/quickstart [--mesh 64] [--ranks 4] [--steps 5]

#include <cstdio>

#include "api/solve_api.hpp"
#include "driver/decks.hpp"
#include "util/args.hpp"

namespace {

int run(const tealeaf::Args& args) {
  const int n = args.get_int("mesh", 64);
  const int ranks = args.get_int("ranks", 4);
  const int steps = args.get_int("steps", 5);

  // A ready-made deck: layered material with a circular inclusion.  See
  // decks.hpp for the others, or InputDeck::parse for tea.in files.
  tealeaf::InputDeck deck = tealeaf::decks::layered_material(n, steps);
  deck.solver.type = tealeaf::SolverType::kPPCG;
  deck.solver.precon = tealeaf::PreconType::kNone;
  deck.solver.inner_steps = 10;
  deck.solver.halo_depth = 4;  // matrix-powers: exchange every 4 inner steps

  std::printf("TeaLeaf++ quickstart: %dx%d mesh on %d simulated ranks\n", n,
              n, ranks);
  tealeaf::SolveSession session(deck, ranks);

  const tealeaf::FieldSummary initial = session.field_summary();
  std::printf("initial: volume=%.3f mass=%.3f ie=%.6f avg_temp=%.6f\n",
              initial.volume, initial.mass, initial.ie,
              initial.avg_temp());

  for (int s = 0; s < steps; ++s) {
    const tealeaf::SolveStats st = session.solve();
    std::printf(
        "step %2d  t=%5.2fus  outer=%4d  inner=%5lld  spmv=%5lld  "
        "|r|=%9.2e  %s\n",
        session.solves_taken(), session.sim_time(), st.outer_iters,
        st.inner_steps, st.spmv_applies, st.final_norm,
        st.converged ? "converged" : "NOT CONVERGED");
  }

  const tealeaf::FieldSummary final = session.field_summary();
  std::printf("final:   volume=%.3f mass=%.3f ie=%.6f avg_temp=%.6f\n",
              final.volume, final.mass, final.ie, final.avg_temp());
  std::printf("energy conservation drift: %.3e (should be ~1e-10)\n",
              (final.ie - initial.ie) / initial.ie);

  const auto& stats = session.cluster().stats();
  std::printf(
      "communication: %lld halo exchanges, %lld messages, %.2f MB, "
      "%lld reductions\n",
      static_cast<long long>(stats.exchange_calls),
      static_cast<long long>(stats.messages),
      static_cast<double>(stats.message_bytes) / 1.0e6,
      static_cast<long long>(stats.reductions));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using tealeaf::Flag;
  return tealeaf::run_main(
      argc, argv,
      {{"mesh", Flag::kInt}, {"ranks", Flag::kInt}, {"steps", Flag::kInt}},
      run);
}
