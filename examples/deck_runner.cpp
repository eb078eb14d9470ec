// Run an arbitrary tea.in-style deck file through the driver — the
// classic TeaLeaf command-line workflow.
//
// Run:  ./examples/deck_runner path/to/tea.in [--ranks 4] [--summary-every 10]

#include <cstdio>
#include <fstream>

#include "driver/deck.hpp"
#include "driver/decks.hpp"
#include "driver/tealeaf_app.hpp"
#include "util/args.hpp"
#include "util/error.hpp"

namespace {

int run(const tealeaf::Args& args) {
  if (args.positional().empty()) {
    std::printf("usage: %s <deck-file> [--ranks N] [--summary-every K]\n",
                args.program().c_str());
    std::printf("example deck:\n%s\n",
                tealeaf::decks::hot_block(64, 10).to_string().c_str());
    return 1;
  }
  const int ranks = args.get_int("ranks", 4);
  const int every = args.get_int("summary-every", 10);

  std::ifstream in(args.positional()[0]);
  TEA_REQUIRE(in.is_open(), "cannot open " + args.positional()[0]);
  // Parse and solve-time failures (bad config combinations, matrix_file
  // constraint violations) end in run_main's error line.
  const tealeaf::InputDeck deck = tealeaf::InputDeck::parse(in);
  tealeaf::TeaLeafApp app(deck, ranks);
  const int steps = deck.num_steps();
  std::printf("running %d steps of %dx%d with %s\n", steps, deck.x_cells,
              deck.y_cells, tealeaf::to_string(deck.solver.type));
  for (int s = 1; s <= steps; ++s) {
    const tealeaf::SolveStats st = app.step();
    if (s % every == 0 || s == steps || !st.converged) {
      const tealeaf::FieldSummary fs = app.field_summary();
      std::printf("step %4d t=%8.3f iters=%5d |r|=%8.2e avg_temp=%10.6f%s\n",
                  s, app.sim_time(), st.outer_iters, st.final_norm,
                  fs.avg_temp(), st.converged ? "" : "  ** not converged");
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using tealeaf::Flag;
  return tealeaf::run_main(
      argc, argv, {{"ranks", Flag::kInt}, {"summary-every", Flag::kInt}},
      run, /*positionals=*/1);
}
