#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <utility>
#include <vector>

#include "driver/deck.hpp"
#include "driver/decks.hpp"
#include "driver/tealeaf_app.hpp"

namespace tealeaf {
namespace {

/// End-to-end validation of the tea.in files shipped in decks/: they
/// must parse, validate, and (coarsened) run a converged step — so the
/// samples users start from can never rot.
InputDeck load_deck(const std::string& name) {
  const std::string path = std::string(TEALEAF_DECKS_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  return InputDeck::parse(in);
}

/// Shrink a deck so the smoke-run stays fast regardless of its shipped
/// resolution.
InputDeck coarsen(InputDeck deck, int n, int steps) {
  deck.x_cells = n;
  deck.y_cells = n;
  deck.end_time = 0.0;
  deck.end_step = steps;
  deck.solver.eps = 1e-8;
  return deck;
}

TEST(DeckFiles, CrookedPipeParsesToPaperConfiguration) {
  const InputDeck deck = load_deck("tea_bm_crooked_pipe.in");
  EXPECT_DOUBLE_EQ(deck.initial_timestep, 0.04);  // paper §V-B
  EXPECT_DOUBLE_EQ(deck.end_time, 15.0);
  EXPECT_EQ(deck.solver.type, SolverType::kPPCG);
  EXPECT_EQ(deck.solver.halo_depth, 4);
  ASSERT_EQ(deck.states.size(), 7u);
  EXPECT_DOUBLE_EQ(deck.states[0].density, 100.0);
  EXPECT_DOUBLE_EQ(deck.states.back().energy, 25.0);
}

TEST(DeckFiles, CrookedPipeRunsConverged) {
  TeaLeafApp app(coarsen(load_deck("tea_bm_crooked_pipe.in"), 48, 2), 2);
  const RunResult rr = app.run();
  EXPECT_TRUE(rr.all_converged);
  EXPECT_EQ(rr.steps, 2);
}

TEST(DeckFiles, ShortBenchmarkRunsConverged) {
  const InputDeck deck = load_deck("tea_bm_short.in");
  EXPECT_EQ(deck.solver.type, SolverType::kCG);
  TeaLeafApp app(coarsen(deck, 32, 3), 2);
  EXPECT_TRUE(app.run().all_converged);
}

TEST(DeckFiles, BlockJacobiDeckUsesThomasStrips) {
  const InputDeck deck = load_deck("tea_bm_block_jacobi.in");
  EXPECT_EQ(deck.solver.precon, PreconType::kJacobiBlock);
  ASSERT_EQ(deck.states.size(), 4u);
  EXPECT_EQ(deck.states[3].geometry, StateDef::Geometry::kPoint);
  TeaLeafApp app(coarsen(deck, 32, 2), 4);
  EXPECT_TRUE(app.run().all_converged);
}

TEST(DeckFiles, FusedCGDeckHalvesReductions) {
  const InputDeck deck = load_deck("tea_bm_fused_cg.in");
  EXPECT_TRUE(deck.solver.fuse_cg_reductions);
  TeaLeafApp app(coarsen(deck, 32, 1), 2);
  const SolveStats st = app.step();
  EXPECT_TRUE(st.converged);
  // One fused allreduce per iteration (+1 at setup).
  EXPECT_EQ(app.cluster().stats().reductions,
            1 + static_cast<long long>(st.outer_iters));
}

TEST(DeckFiles, Heat3DDeckRunsThroughTheUnifiedCore) {
  InputDeck deck = load_deck("tea_3d_heat.in");
  EXPECT_EQ(deck.dims, 3);
  EXPECT_EQ(deck.z_cells, 24);
  EXPECT_EQ(deck.solver.type, SolverType::kPPCG);
  EXPECT_TRUE(deck.states[2].has_cz);  // sphere, not cylinder
  // Coarsen all three axes for the smoke run.
  deck.x_cells = deck.y_cells = deck.z_cells = 10;
  deck.end_time = 0.0;
  deck.end_step = 1;
  deck.solver.eps = 1e-8;
  TeaLeafApp app(deck, 4);
  EXPECT_TRUE(app.run().all_converged);
  EXPECT_GT(app.field_summary().temp, 0.0);
}

TEST(DeckFiles, AllShippedDecksValidate) {
  for (const char* name :
       {"tea_bm_crooked_pipe.in", "tea_bm_short.in",
        "tea_bm_block_jacobi.in", "tea_bm_fused_cg.in", "tea_3d_heat.in"}) {
    EXPECT_NO_THROW(load_deck(name).validate()) << name;
  }
}

TEST(DeckFiles, EveryShippedAndBuiltinDeckRoundTrips) {
  std::vector<std::pair<std::string, InputDeck>> all = {
      {"crooked_pipe(64)", decks::crooked_pipe(64)},
      {"crooked_pipe(64, 3)", decks::crooked_pipe(64, 3)},
      {"hot_block(32)", decks::hot_block(32)},
      {"layered_material(32, 2)", decks::layered_material(32, 2)}};
  for (const auto& entry :
       std::filesystem::directory_iterator(TEALEAF_DECKS_DIR)) {
    if (entry.path().extension() != ".in") continue;
    all.emplace_back(entry.path().filename().string(),
                     load_deck(entry.path().filename().string()));
  }
  ASSERT_GE(all.size(), 9u);
  for (const auto& [name, deck] : all) {
    const std::string text = deck.to_string();
    const InputDeck back = InputDeck::parse_string(text);
    EXPECT_EQ(back.to_string(), text) << name;
    for (const KeyRow<InputDeck>& key : deck_keys()) {
      if (key.get != nullptr) {
        EXPECT_EQ(key.get(back), key.get(deck)) << name << ": " << key.name;
      }
    }
    ASSERT_EQ(back.states.size(), deck.states.size()) << name;
    for (std::size_t i = 0; i < deck.states.size(); ++i) {
      for (const KeyRow<StateDef>& key : state_keys()) {
        EXPECT_EQ(key.get(back.states[i]), key.get(deck.states[i]))
            << name << ": state " << i + 1 << " " << key.name;
      }
    }
  }
}

TEST(DeckReference, DocumentsExactlyTheKeysOfTheTable) {
  // docs/deck_reference.md: the first cell of every table row names keys
  // (and aliases) in backticks.  Those must be exactly the table's.
  std::ifstream doc(std::string(TEALEAF_DECKS_DIR) +
                    "/../docs/deck_reference.md");
  ASSERT_TRUE(doc.is_open());
  std::set<std::string> documented;
  for (std::string line; std::getline(doc, line);) {
    if (line.rfind("| `", 0) != 0) continue;
    const std::string cell = line.substr(1, line.find('|', 1) - 1);
    for (std::size_t at = cell.find('`'); at != std::string::npos;) {
      const std::size_t end = cell.find('`', at + 1);
      ASSERT_NE(end, std::string::npos) << "unmatched backtick: " << line;
      documented.insert(cell.substr(at + 1, end - at - 1));
      at = cell.find('`', end + 1);
    }
  }
  std::set<std::string> table;
  const auto add = [&table](const auto& rows) {
    for (const auto& row : rows) {
      table.insert(row.name);
      if (*row.alias) table.insert(row.alias);
    }
  };
  add(deck_keys());
  add(state_keys());
  for (const std::string& key : table) {
    EXPECT_TRUE(documented.count(key)) << key << " is not documented";
  }
  for (const std::string& key : documented) {
    EXPECT_TRUE(table.count(key)) << key << " is documented but unknown";
  }
}

}  // namespace
}  // namespace tealeaf
