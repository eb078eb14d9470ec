#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "comm/gather.hpp"
#include "driver/deck.hpp"
#include "driver/decks.hpp"
#include "driver/tealeaf_app.hpp"

namespace tealeaf {
namespace {

constexpr const char* kSampleDeck = R"(
! A tea.in-style deck
*tea
x_cells=64
y_cells=48
xmin=0.0
xmax=8.0
ymin=0.0
ymax=6.0
initial_timestep=0.02
end_step=5
tl_use_ppcg
tl_max_iters=1234
tl_eps=1e-9
tl_ppcg_inner_steps=12
tl_eigen_cg_iters=25
tl_halo_depth=4
tl_preconditioner_type=jac_diag
tl_coefficient=recip_conductivity
state 1 density=100.0 energy=0.0001
state 2 density=0.1 energy=25.0 geometry=rectangle xmin=1.0 xmax=2.0 ymin=1.0 ymax=2.0
state 3 density=2.0 energy=0.5 geometry=circle xcentre=4.0 ycentre=3.0 radius=1.5
state 4 density=3.0 energy=0.7 geometry=point x=7.0 y=5.0
*endtea
)";

TEST(Deck, ParsesEveryRecognisedKey) {
  const InputDeck deck = InputDeck::parse_string(kSampleDeck);
  EXPECT_EQ(deck.x_cells, 64);
  EXPECT_EQ(deck.y_cells, 48);
  EXPECT_DOUBLE_EQ(deck.xmax, 8.0);
  EXPECT_DOUBLE_EQ(deck.initial_timestep, 0.02);
  EXPECT_EQ(deck.end_step, 5);
  EXPECT_EQ(deck.solver.type, SolverType::kPPCG);
  EXPECT_EQ(deck.solver.max_iters, 1234);
  EXPECT_DOUBLE_EQ(deck.solver.eps, 1e-9);
  EXPECT_EQ(deck.solver.inner_steps, 12);
  EXPECT_EQ(deck.solver.eigen_cg_iters, 25);
  EXPECT_EQ(deck.solver.halo_depth, 4);
  EXPECT_EQ(deck.solver.precon, PreconType::kJacobiDiag);
  EXPECT_EQ(deck.coefficient, kernels::Coefficient::kRecipConductivity);
  ASSERT_EQ(deck.states.size(), 4u);
  EXPECT_EQ(deck.states[0].geometry, StateDef::Geometry::kBackground);
  EXPECT_EQ(deck.states[1].geometry, StateDef::Geometry::kRectangle);
  EXPECT_EQ(deck.states[2].geometry, StateDef::Geometry::kCircle);
  EXPECT_EQ(deck.states[3].geometry, StateDef::Geometry::kPoint);
  EXPECT_DOUBLE_EQ(deck.states[2].radius, 1.5);
}

TEST(Deck, RoundTripsThroughToString) {
  const InputDeck a = InputDeck::parse_string(kSampleDeck);
  const InputDeck b = InputDeck::parse_string(a.to_string());
  EXPECT_EQ(b.x_cells, a.x_cells);
  EXPECT_EQ(b.solver.type, a.solver.type);
  EXPECT_EQ(b.solver.halo_depth, a.solver.halo_depth);
  EXPECT_EQ(b.states.size(), a.states.size());
  EXPECT_DOUBLE_EQ(b.states[2].cx, a.states[2].cx);
  EXPECT_EQ(b.coefficient, a.coefficient);
}

TEST(Deck, ToStringKeepsEveryDigit) {
  // Doubles are written in their shortest exact form, so a value with
  // more than six significant digits survives the round trip.
  InputDeck deck = decks::hot_block(16, 2);
  deck.xmax = 1.23456789012345;
  deck.initial_timestep = 1.0 / 3.0;
  deck.states[1].energy = 0.1 + 0.2;
  const InputDeck back = InputDeck::parse_string(deck.to_string());
  EXPECT_EQ(back.xmax, deck.xmax);
  EXPECT_EQ(back.initial_timestep, deck.initial_timestep);
  EXPECT_EQ(back.states[1].energy, deck.states[1].energy);
  EXPECT_NE(deck.to_string().find("initial_timestep=0.3333333333333333\n"),
            std::string::npos)
      << deck.to_string();
}

TEST(Deck, NumStepsFromTimeOrStep) {
  InputDeck d = decks::hot_block(16, 7);
  EXPECT_EQ(d.num_steps(), 7);
  d.end_step = 0;
  d.end_time = 1.0;
  d.initial_timestep = 0.04;
  EXPECT_EQ(d.num_steps(), 25);
  d.end_step = 10;  // both set: the earlier one wins
  EXPECT_EQ(d.num_steps(), 10);
}

TEST(Deck, RejectsMalformedInput) {
  EXPECT_THROW(InputDeck::parse_string("*tea\nbogus_key=1\n*endtea\n"),
               TeaError);
  EXPECT_THROW(
      InputDeck::parse_string("*tea\nx_cells=4\ny_cells=4\nend_step=1\n"
                              "state 1 density=nope energy=1\n*endtea\n"),
      TeaError);
  // No states at all.
  EXPECT_THROW(
      InputDeck::parse_string("*tea\nx_cells=4\ny_cells=4\nend_step=1\n"
                              "*endtea\n"),
      TeaError);
  // Numbers must convert whole, and integer keys need a whole number in
  // int range: no truncation, no trailing junk, no out-of-range cast.
  const auto with_line = [](const std::string& line) {
    return "*tea\nx_cells=4\ny_cells=4\nend_step=1\n" + line +
           "\nstate 1 density=1 energy=1\n*endtea\n";
  };
  for (const char* bad :
       {"x_cells=64abc", "tl_eps=1e-8xyz", "x_cells=64.7",
        "tl_max_iters=2.9", "tl_max_iters=1e30", "end_step=1e12",
        "tl_halo_depth=inf", "tl_tile_rows=nan", "sweep_ranks=-1e10",
        "sweep_mesh_sizes=32,48.5", "state 2 density=1x energy=1"}) {
    EXPECT_THROW(InputDeck::parse_string(with_line(bad)), TeaError) << bad;
  }
  // A step count beyond int range: num_steps() could not hold it.
  EXPECT_THROW(InputDeck::parse_string(
                   "*tea\nx_cells=4\ny_cells=4\ninitial_timestep=1e-10\n"
                   "end_time=1e10\nstate 1 density=1 energy=1\n*endtea\n"),
               TeaError);
  EXPECT_EQ(InputDeck::parse_string(with_line("x_cells=64.0")).x_cells, 64);
  EXPECT_EQ(InputDeck::parse_string(with_line("tl_max_iters=1e3"))
                .solver.max_iters,
            1000);
  EXPECT_EQ(InputDeck::parse_string(with_line("tl_tile_rows=auto"))
                .solver.tile_rows,
            -1);
}

TEST(Deck, CommentsAndBlankLinesIgnored) {
  const InputDeck deck = InputDeck::parse_string(
      "*tea\n"
      "# full-line comment\n"
      "x_cells=8   ! trailing comment\n"
      "y_cells=8\n\n"
      "end_step=1\n"
      "state 1 density=1.0 energy=1.0\n"
      "*endtea\n");
  EXPECT_EQ(deck.x_cells, 8);
}

TEST(StateGeometry, ContainsSemantics) {
  StateDef rect;
  rect.geometry = StateDef::Geometry::kRectangle;
  rect.xmin = 1.0;
  rect.xmax = 2.0;
  rect.ymin = 1.0;
  rect.ymax = 2.0;
  EXPECT_TRUE(rect.contains(1.5, 1.5, 0.1, 0.1));
  EXPECT_FALSE(rect.contains(2.5, 1.5, 0.1, 0.1));
  EXPECT_TRUE(rect.contains(1.0, 1.0, 0.1, 0.1));   // inclusive low edge
  EXPECT_FALSE(rect.contains(2.0, 1.5, 0.1, 0.1));  // exclusive high edge

  StateDef circ;
  circ.geometry = StateDef::Geometry::kCircle;
  circ.cx = 0.0;
  circ.cy = 0.0;
  circ.radius = 1.0;
  EXPECT_TRUE(circ.contains(0.5, 0.5, 0.1, 0.1));
  EXPECT_FALSE(circ.contains(0.9, 0.9, 0.1, 0.1));

  StateDef pt;
  pt.geometry = StateDef::Geometry::kPoint;
  pt.px = 3.0;
  pt.py = 3.0;
  EXPECT_TRUE(pt.contains(3.04, 2.96, 0.1, 0.1));
  EXPECT_FALSE(pt.contains(3.2, 3.0, 0.1, 0.1));
}

TEST(BuiltinDecks, CrookedPipeShapeIsSane) {
  const InputDeck deck = decks::crooked_pipe(400);
  deck.validate();
  EXPECT_EQ(deck.x_cells, 400);
  EXPECT_DOUBLE_EQ(deck.initial_timestep, 0.04);
  EXPECT_DOUBLE_EQ(deck.end_time, 15.0);
  EXPECT_EQ(deck.num_steps(), 375);  // the paper's configuration
  ASSERT_GE(deck.states.size(), 6u);
  // Background is dense; pipe states are light.
  EXPECT_DOUBLE_EQ(deck.states[0].density, 100.0);
  for (std::size_t i = 1; i < deck.states.size(); ++i) {
    EXPECT_DOUBLE_EQ(deck.states[i].density, 0.1);
  }
  // The hot inlet is the last state so it overrides the pipe energy.
  EXPECT_DOUBLE_EQ(deck.states.back().energy, 25.0);

  // The pipe must be a connected path from x=0 to x=10: spot-check a
  // cell from every segment.
  const auto in_pipe = [&](double x, double y) {
    for (std::size_t i = 1; i < deck.states.size(); ++i) {
      if (deck.states[i].contains(x, y, 0.025, 0.025)) return true;
    }
    return false;
  };
  EXPECT_TRUE(in_pipe(0.5, 7.5));   // inlet segment
  EXPECT_TRUE(in_pipe(2.5, 5.0));   // first descender
  EXPECT_TRUE(in_pipe(5.0, 2.5));   // bottom run
  EXPECT_TRUE(in_pipe(7.5, 4.5));   // riser
  EXPECT_TRUE(in_pipe(9.5, 5.5));   // outlet
  EXPECT_FALSE(in_pipe(5.0, 8.5));  // dense background
}

TEST(BuiltinDecks, StepOverrideSkipsEndTime) {
  const InputDeck deck = decks::crooked_pipe(100, 3);
  EXPECT_EQ(deck.num_steps(), 3);
}

TEST(BuiltinDecks, OthersValidate) {
  decks::hot_block(32, 2).validate();
  decks::layered_material(32, 2).validate();
}

// ---- dimension-generic deck keys (tl_geometry / z_cells / zmin / zmax) ---

TEST(GeometryDeck, Parses3DKeysAndRoundTrips) {
  const InputDeck deck = InputDeck::parse_string(
      "*tea\ntl_geometry=3d\nx_cells=12\ny_cells=10\nz_cells=8\n"
      "xmin=0\nxmax=6\nymin=0\nymax=5\nzmin=-1\nzmax=3\nend_step=1\n"
      "state 1 density=1.0 energy=1.0\n"
      "state 2 density=0.5 energy=5.0 geometry=rectangle xmin=1 xmax=2 "
      "ymin=1 ymax=2 zmin=0 zmax=1\n"
      "state 3 density=0.2 energy=2.0 geometry=circle xcentre=3 ycentre=3 "
      "zcentre=1 radius=0.5\n*endtea\n");
  EXPECT_EQ(deck.dims, 3);
  EXPECT_EQ(deck.z_cells, 8);
  EXPECT_DOUBLE_EQ(deck.zmin, -1.0);
  EXPECT_DOUBLE_EQ(deck.zmax, 3.0);
  EXPECT_EQ(deck.mesh().dims, 3);
  EXPECT_EQ(deck.mesh().nz, 8);
  EXPECT_TRUE(deck.states[2].has_cz);
  const InputDeck back = InputDeck::parse_string(deck.to_string());
  EXPECT_EQ(back.dims, 3);
  EXPECT_EQ(back.z_cells, 8);
  EXPECT_DOUBLE_EQ(back.zmax, 3.0);
  EXPECT_DOUBLE_EQ(back.states[1].zmax, 1.0);
  EXPECT_TRUE(back.states[2].has_cz);
}

TEST(GeometryDeck, NzIsAnAliasForZCells) {
  const InputDeck deck = InputDeck::parse_string(
      "*tea\ntl_geometry=3d\nx_cells=8\ny_cells=8\nnz=4\nend_step=1\n"
      "state 1 density=1 energy=1\n*endtea\n");
  EXPECT_EQ(deck.z_cells, 4);
}

TEST(GeometryDeck, MistypedGeometryKeysSuggestTheRealOnes) {
  const auto expect_suggestion = [](const std::string& body,
                                    const std::string& typo,
                                    const std::string& wanted) {
    try {
      InputDeck::parse_string("*tea\nx_cells=8\ny_cells=8\nend_step=1\n" +
                              body +
                              "\nstate 1 density=1 energy=1\n*endtea\n");
      FAIL() << typo << " must not be silently ignored";
    } catch (const TeaError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("unknown key '" + typo + "'"), std::string::npos)
          << msg;
      EXPECT_NE(msg.find("did you mean '" + wanted + "'?"),
                std::string::npos)
          << msg;
    }
  };
  expect_suggestion("tl_geometri=3d", "tl_geometri", "tl_geometry");
  expect_suggestion("z_cell=4", "z_cell", "z_cells");
  expect_suggestion("zmaxx=2", "zmaxx", "zmax");
  expect_suggestion("sweep_geometrys=2d,3d", "sweep_geometrys",
                    "sweep_geometry");
}

TEST(GeometryDeck, Invalid3DCombinationsAreRejected) {
  // z_cells on a 2-D deck would silently describe a mesh the run ignores.
  EXPECT_THROW(InputDeck::parse_string(
                   "*tea\nx_cells=8\ny_cells=8\nz_cells=4\nend_step=1\n"
                   "state 1 density=1 energy=1\n*endtea\n"),
               TeaError);
  // Unknown geometry values fail loudly.
  EXPECT_THROW(InputDeck::parse_string(
                   "*tea\ntl_geometry=4d\nx_cells=8\ny_cells=8\n"
                   "end_step=1\nstate 1 density=1 energy=1\n*endtea\n"),
               TeaError);
  EXPECT_THROW(InputDeck::parse_string(
                   "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
                   "sweep_solvers=cg\nsweep_geometry=2d,4d\n"
                   "state 1 density=1 energy=1\n*endtea\n"),
               TeaError);
  // Empty z extent on a 3-D deck.
  EXPECT_THROW(InputDeck::parse_string(
                   "*tea\ntl_geometry=3d\nx_cells=8\ny_cells=8\nz_cells=4\n"
                   "zmin=2\nzmax=2\nend_step=1\n"
                   "state 1 density=1 energy=1\n*endtea\n"),
               TeaError);
  // A half-specified state z extent would silently extrude; reject it.
  EXPECT_THROW(
      InputDeck::parse_string(
          "*tea\ntl_geometry=3d\nx_cells=8\ny_cells=8\nz_cells=4\n"
          "end_step=1\nstate 1 density=1 energy=1\n"
          "state 2 density=2 energy=1 geometry=rectangle xmin=0 xmax=1 "
          "ymin=0 ymax=1 zmin=2\n*endtea\n"),
      TeaError);
  // As is an explicitly empty one.
  EXPECT_THROW(
      InputDeck::parse_string(
          "*tea\ntl_geometry=3d\nx_cells=8\ny_cells=8\nz_cells=4\n"
          "end_step=1\nstate 1 density=1 energy=1\n"
          "state 2 density=2 energy=1 geometry=rectangle xmin=0 xmax=1 "
          "ymin=0 ymax=1 zmin=3 zmax=3\n*endtea\n"),
      TeaError);
}

TEST(GeometryDeck, SweepGeometryAxisParsesAndRoundTrips) {
  const InputDeck deck = InputDeck::parse_string(
      "*tea\nx_cells=16\ny_cells=16\nend_step=1\n"
      "sweep_solvers=cg\nsweep_geometry=2d,3d\n"
      "state 1 density=1 energy=1\n*endtea\n");
  EXPECT_EQ(deck.sweep.geometries, (std::vector<int>{2, 3}));
  const InputDeck back = InputDeck::parse_string(deck.to_string());
  EXPECT_EQ(back.sweep.geometries, (std::vector<int>{2, 3}));
}

TEST(GeometryDeck, StatesExtrudeThroughZWhenNoZInfoGiven) {
  StateDef rect;
  rect.geometry = StateDef::Geometry::kRectangle;
  rect.xmin = 0.0;
  rect.xmax = 1.0;
  rect.ymin = 0.0;
  rect.ymax = 1.0;
  // No z bounds: contained at every z in 3-D (prism).
  EXPECT_TRUE(rect.contains(0.5, 0.5, 99.0, 0.1, 0.1, 0.1, 3));
  rect.zmin = 0.0;
  rect.zmax = 1.0;
  EXPECT_FALSE(rect.contains(0.5, 0.5, 99.0, 0.1, 0.1, 0.1, 3));
  EXPECT_TRUE(rect.contains(0.5, 0.5, 0.5, 0.1, 0.1, 0.1, 3));
  // 2-D reading ignores z entirely.
  EXPECT_TRUE(rect.contains(0.5, 0.5, 0.1, 0.1));
}

TEST(PrecisionDeck, ParsesAndRoundTrips) {
  const InputDeck deck = InputDeck::parse_string(
      "*tea\nx_cells=16\ny_cells=16\nend_step=1\n"
      "tl_use_cg\ntl_precision=mixed\n"
      "state 1 density=1 energy=1\n*endtea\n");
  EXPECT_EQ(deck.solver.precision, Precision::kMixed);
  const InputDeck back = InputDeck::parse_string(deck.to_string());
  EXPECT_EQ(back.solver.precision, Precision::kMixed);
  // The default stays double AND stays out of the serialised deck, so
  // pre-precision decks round-trip byte-identically.
  const InputDeck plain = InputDeck::parse_string(
      "*tea\nx_cells=16\ny_cells=16\nend_step=1\n"
      "state 1 density=1 energy=1\n*endtea\n");
  EXPECT_EQ(plain.solver.precision, Precision::kDouble);
  EXPECT_EQ(plain.to_string().find("tl_precision"), std::string::npos);
}

TEST(PrecisionDeck, SweepPrecisionAxisParsesAndRoundTrips) {
  const InputDeck deck = InputDeck::parse_string(
      "*tea\nx_cells=16\ny_cells=16\nend_step=1\n"
      "sweep_solvers=cg\nsweep_precision=double,single,mixed\n"
      "state 1 density=1 energy=1\n*endtea\n");
  EXPECT_EQ(deck.sweep.precisions,
            (std::vector<std::string>{"double", "single", "mixed"}));
  const InputDeck back = InputDeck::parse_string(deck.to_string());
  EXPECT_EQ(back.sweep.precisions,
            (std::vector<std::string>{"double", "single", "mixed"}));
}

TEST(PrecisionDeck, MistypedPrecisionKeysSuggestTheRealOnes) {
  const auto expect_suggestion = [](const std::string& body,
                                    const std::string& typo,
                                    const std::string& wanted) {
    try {
      InputDeck::parse_string("*tea\nx_cells=8\ny_cells=8\nend_step=1\n" +
                              body +
                              "\nstate 1 density=1 energy=1\n*endtea\n");
      FAIL() << typo << " must not be silently ignored";
    } catch (const TeaError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("unknown key '" + typo + "'"), std::string::npos)
          << msg;
      EXPECT_NE(msg.find("did you mean '" + wanted + "'?"),
                std::string::npos)
          << msg;
    }
  };
  expect_suggestion("tl_precison=mixed", "tl_precison", "tl_precision");
  expect_suggestion("tl_precisions=single", "tl_precisions", "tl_precision");
  expect_suggestion("sweep_precisions=double,mixed", "sweep_precisions",
                    "sweep_precision");
}

TEST(PrecisionDeck, RejectsBadValuesAndUnsupportedCombos) {
  // A mistyped value must not silently fall back to double.
  EXPECT_THROW(InputDeck::parse_string(
                   "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
                   "tl_precision=half\n"
                   "state 1 density=1 energy=1\n*endtea\n"),
               TeaError);
  // "fp64"/"fp32"/"float" are accepted aliases, not errors.
  EXPECT_EQ(InputDeck::parse_string(
                "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
                "tl_precision=fp32\n"
                "state 1 density=1 energy=1\n*endtea\n")
                .solver.precision,
            Precision::kSingle);
  // A loaded operator has no stencil coefficients to re-assemble in fp32.
  try {
    InputDeck::parse_string(
        "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
        "tl_operator=csr\nmatrix_file=system.mtx\ntl_precision=single\n"
        "state 1 density=1 energy=1\n*endtea\n");
    FAIL() << "tl_precision=single with matrix_file must be rejected";
  } catch (const TeaError& e) {
    EXPECT_NE(std::string(e.what()).find("matrix_file"), std::string::npos)
        << e.what();
  }
  // Precision keys outside the *tea block must fail loudly, not vanish.
  EXPECT_THROW(InputDeck::parse_string(
                   "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
                   "state 1 density=1 energy=1\n*endtea\n"
                   "tl_precision=mixed\n"),
               TeaError);
  // Unknown sweep-axis entries surface at deck validation.
  EXPECT_THROW(InputDeck::parse_string(
                   "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
                   "sweep_solvers=cg\nsweep_precision=double,half\n"
                   "state 1 density=1 energy=1\n*endtea\n"),
               TeaError);
}

TEST(Deck, RetiredKeysAreUnknown) {
  // The pipelined and unfused schedules are gone, and so are the deck's
  // routing keys (route learning is a ServerOptions setting); decks that
  // still carry them fail loudly instead of silently running without them.
  for (const char* line :
       {"tl_pipeline", "tl_pipeline=1", "sweep_pipeline=0,1",
        "sweep_fused=0,1", "tl_route_db=route_db.json", "tl_route_learn",
        "tl_route_demote_ratio=2.5"}) {
    try {
      InputDeck::parse_string(
          std::string("*tea\nx_cells=8\ny_cells=8\nend_step=1\n") + line +
          "\nstate 1 density=1 energy=1\n*endtea\n");
      FAIL() << line << " must not be accepted";
    } catch (const TeaError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Deck, MistypedStateKeysSuggestTheRealOnes) {
  try {
    InputDeck::parse_string(
        "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
        "state 1 density=1 energy=1\nstate 2 densty=3\n*endtea\n");
    FAIL() << "densty must not be silently ignored";
  } catch (const TeaError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown state key 'densty'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("did you mean 'density'?"), std::string::npos) << msg;
  }
}

TEST(Deck, SetReadsOneKeyByItsRule) {
  InputDeck deck;
  deck.set("tl_tile_rows", "auto");
  EXPECT_EQ(deck.solver.tile_rows, -1);
  deck.set("nz", "4");  // an alias
  EXPECT_EQ(deck.z_cells, 4);
  deck.set("sweep_geometry", "2d,3d");
  EXPECT_EQ(deck.sweep.geometries, (std::vector<int>{2, 3}));
  deck.set("tl_use_ppcg", "");
  EXPECT_EQ(deck.solver.type, SolverType::kPPCG);
  deck.set("state", "1 density=2 energy=3");
  ASSERT_EQ(deck.states.size(), 1u);
  EXPECT_DOUBLE_EQ(deck.states[0].density, 2.0);
  EXPECT_THROW(deck.set("tl_cg_fuse_reductions", "maybe"), TeaError);
  EXPECT_THROW(deck.set("sweep_tile_rows", "0,x"), TeaError);
  try {
    deck.set("tl_tile_row", "8");
    FAIL() << "an unknown key must throw";
  } catch (const TeaError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'tl_tile_rows'?"),
              std::string::npos)
        << e.what();
  }
}

TEST(DeckFlags, FlagsThatRepeatDeckKeysParseByTheKeysRules) {
  const std::vector<Flag> flags = {
      {"mesh", Flag::kInt},
      deck_flag("tiles", "sweep_tile_rows", "0"),
      deck_flag("geometry", "sweep_geometry"),
      deck_flag("depth", "tl_halo_depth", "2"),
      deck_flag("fuse", "tl_cg_fuse_reductions")};
  EXPECT_EQ(flags[2].rule, Flag::kText);
  EXPECT_EQ(flags[4].rule, Flag::kBool);  // a deck flag is a switch
  const auto deck_from = [&flags](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "prog");
    InputDeck deck;
    deck.set(Args(static_cast<int>(argv.size()), argv.data(), flags, 0));
    return deck;
  };
  const InputDeck given = deck_from({"--tiles", "0,8", "--fuse"});
  EXPECT_EQ(given.sweep.tile_rows, (std::vector<int>{0, 8}));
  EXPECT_TRUE(given.sweep.geometries.empty());  // absent, no fallback
  EXPECT_EQ(given.solver.halo_depth, 2);        // absent, its fallback
  EXPECT_TRUE(given.solver.fuse_cg_reductions);
  EXPECT_FALSE(deck_from({"--fuse=off"}).solver.fuse_cg_reductions);
  EXPECT_EQ(deck_from({"--geometry=3d"}).sweep.geometries,
            (std::vector<int>{3}));
  // Value errors name the flag the user typed.
  for (const auto& [argv, flag] :
       std::vector<std::pair<std::vector<const char*>, std::string>>{
           {{"--tiles", "0,x"}, "--tiles"},
           {{"--geometry", "4d"}, "--geometry"},
           {{"--depth", "1.5"}, "--depth"}}) {
    try {
      (void)deck_from(argv);
      FAIL() << flag << " must reject its value";
    } catch (const TeaError& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)deck_from({"--fuse", "0"}), TeaError);
  EXPECT_THROW((void)deck_flag("tiles", "sweep_tiles"), TeaError);
}

// ---- engine keys: fused + auto by default --------------------------------

/// A small 3-D CG deck carrying `engine_keys` (possibly none).
std::string engine_deck(const std::string& engine_keys) {
  return "*tea\ntl_geometry=3d\nx_cells=10\ny_cells=10\nz_cells=10\n"
         "end_step=1\ntl_use_cg\ntl_eps=1e-10\n" +
         engine_keys +
         "state 1 density=1 energy=1\n"
         "state 2 density=0.5 energy=10 geometry=rectangle xmin=2 xmax=5 "
         "ymin=2 ymax=5\n*endtea\n";
}

struct EngineDeckCase {
  const char* name;
  const char* keys;
  int tile_rows;  ///< parsed SolverConfig::tile_rows
};

const EngineDeckCase kEngineDecks[] = {
    {"untiled", "tl_tile_rows=0\n", 0},
    {"b6", "tl_tile_rows=6\n", 6},
    {"default", "", -1},
};

TEST(EngineDeck, DefaultIsAutoAndEveryTileHeightSolvesLikeUntiled) {
  // 3-D, 2 ranks, CG: the engine decides who computes and when, never
  // what — same u bits, iteration counts and communication.
  struct Outcome {
    SolveStats stats;
    CommStats comm;
    Field<double> u;
  };
  const auto solve = [](const InputDeck& deck) {
    TeaLeafApp app(deck, 2);
    const SolveStats st = app.step();
    return Outcome{st, app.cluster().stats(),
                   gather_field(app.cluster(), FieldId::kU)};
  };
  const Outcome ref =
      solve(InputDeck::parse_string(engine_deck(kEngineDecks[0].keys)));
  ASSERT_TRUE(ref.stats.converged);
  for (const EngineDeckCase& e : kEngineDecks) {
    const InputDeck deck = InputDeck::parse_string(engine_deck(e.keys));
    EXPECT_EQ(deck.solver.tile_rows, e.tile_rows) << e.name;
    // SolveSession::reset compares decks through to_string, so an
    // untiled or fixed-height deck must not re-parse as the default.
    const InputDeck back = InputDeck::parse_string(deck.to_string());
    EXPECT_EQ(back.solver.tile_rows, e.tile_rows) << e.name;
    EXPECT_EQ(back.to_string(), deck.to_string()) << e.name;

    const Outcome got = solve(deck);
    ASSERT_TRUE(got.stats.converged) << e.name;
    EXPECT_EQ(got.stats.outer_iters, ref.stats.outer_iters) << e.name;
    EXPECT_EQ(got.stats.spmv_applies, ref.stats.spmv_applies) << e.name;
    EXPECT_EQ(got.stats.final_norm, ref.stats.final_norm) << e.name;
    EXPECT_EQ(got.comm.exchange_calls, ref.comm.exchange_calls) << e.name;
    EXPECT_EQ(got.comm.messages, ref.comm.messages) << e.name;
    EXPECT_EQ(got.comm.message_bytes, ref.comm.message_bytes) << e.name;
    EXPECT_EQ(got.comm.reductions, ref.comm.reductions) << e.name;
    ASSERT_EQ(got.u.size(), ref.u.size()) << e.name;
    EXPECT_EQ(std::memcmp(got.u.data(), ref.u.data(),
                          ref.u.size() * sizeof(double)),
              0)
        << e.name << ": u differs bitwise";
  }
}

TEST(EngineDeck, FuseKernelsKeyIsAcceptedOnlyForTheSurvivingSchedule) {
  // Decks written while the unfused schedule existed may still carry the
  // key: turning it on is the only schedule there is, so it changes
  // nothing and is never written back.
  const std::string none = InputDeck::parse_string(engine_deck("")).to_string();
  for (const char* keys : {"tl_fuse_kernels\n", "tl_fuse_kernels=1\n"}) {
    const InputDeck deck = InputDeck::parse_string(engine_deck(keys));
    EXPECT_EQ(deck.to_string(), none) << keys;
    EXPECT_EQ(InputDeck::parse_string(deck.to_string()).to_string(), none)
        << keys;
  }
  // Asking for the unfused schedule names its removal.
  for (const char* keys : {"tl_fuse_kernels=0\n", "tl_fuse_kernels=off\n"}) {
    try {
      (void)InputDeck::parse_string(engine_deck(keys));
      FAIL() << keys << " must not silently run the fused schedule";
    } catch (const TeaError& e) {
      EXPECT_NE(std::string(e.what()).find("unfused schedule, which was "
                                           "removed"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(EngineDeck, ChebyshevWithOneIterationIsAnErrorNotAnAbort) {
  // One iteration leaves Chebyshev a single CG prestep, too few for its
  // eigenvalue estimate.  Found inside the solve's parallel region that
  // would terminate the process; the deck is rejected up front instead.
  const std::string text =
      "*tea\nx_cells=32\ny_cells=32\nend_step=1\ntl_use_chebyshev\n"
      "tl_max_iters=1\nstate 1 density=1 energy=1\n"
      "state 2 density=0.5 energy=10 geometry=rectangle xmin=2 xmax=5 "
      "ymin=2 ymax=5\n*endtea\n";
  EXPECT_THROW(
      {
        TeaLeafApp app(InputDeck::parse_string(text), 4);
        (void)app.step();
      },
      TeaError);
}

}  // namespace
}  // namespace tealeaf
