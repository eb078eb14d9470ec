#include "driver/decks.hpp"

namespace tealeaf::decks {

namespace {

/// A built-in deck: `body` in deck text (the domain is the default
/// 10 × 10 and dt the default 0.04 unless it says otherwise) on an n × n
/// mesh.
InputDeck square(int n, const char* body) {
  InputDeck deck = InputDeck::parse_string(std::string("*tea\n") + body +
                                           "*endtea\n");
  deck.x_cells = n;
  deck.y_cells = n;
  return deck;
}

}  // namespace

InputDeck crooked_pipe(int n, int steps) {
  // With tl_coefficient=conductivity (the default) the face coefficient
  // is the mean *resistivity* (ρa+ρb)/(2·ρa·ρb), so the low-density pipe
  // conducts ~1000× faster than the dense background — the paper's §V-B
  // setup.  The pipe: five unit-width segments zig-zagging left to right,
  // then the hot source at its inlet.
  InputDeck deck = square(n, R"(end_time=15
tl_use_ppcg
tl_max_iters=20000
state 1 density=100 energy=1e-4
state 2 density=0.1 energy=1e-4 geometry=rectangle xmin=0 xmax=3 ymin=7 ymax=8
state 3 density=0.1 energy=1e-4 geometry=rectangle xmin=2 xmax=3 ymin=2 ymax=8
state 4 density=0.1 energy=1e-4 geometry=rectangle xmin=2 xmax=8 ymin=2 ymax=3
state 5 density=0.1 energy=1e-4 geometry=rectangle xmin=7 xmax=8 ymin=2 ymax=6
state 6 density=0.1 energy=1e-4 geometry=rectangle xmin=7 xmax=10 ymin=5 ymax=6
state 7 density=0.1 energy=25 geometry=rectangle xmin=0 xmax=1 ymin=7 ymax=8
)");
  if (steps > 0) {
    deck.end_time = 0.0;
    deck.end_step = steps;
  }
  return deck;
}

InputDeck hot_block(int n, int steps) {
  InputDeck deck = square(n, R"(end_step=1
state 1 density=1 energy=0.01
state 2 density=1 energy=10 geometry=rectangle xmin=2 xmax=4 ymin=2 ymax=4
)");
  deck.end_step = steps;
  return deck;
}

InputDeck layered_material(int n, int steps) {
  InputDeck deck = square(n, R"(initial_timestep=0.1
end_step=1
state 1 density=5 energy=0.1
state 2 density=1 energy=0.1 geometry=rectangle xmin=0 xmax=10 ymin=0 ymax=3
state 3 density=10 energy=0.1 geometry=rectangle xmin=0 xmax=10 ymin=6.5 ymax=10
state 4 density=0.5 energy=5 geometry=circle xcentre=5 ycentre=5 radius=1.5
)");
  deck.end_step = steps;
  return deck;
}

}  // namespace tealeaf::decks
