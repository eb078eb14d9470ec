#include <gtest/gtest.h>

#include <tuple>

#include "comm/gather.hpp"
#include "comm/sim_comm.hpp"
#include "model/trace.hpp"
#include "util/numeric.hpp"

namespace tealeaf {
namespace {

/// Property sweep over rectangular meshes × rank counts × depths: after
/// an exchange, every in-domain halo cell equals the unique global value
/// of that cell, and the byte accounting matches the analytic counts.
struct ExchangeCase {
  int nx;
  int ny;
  int nranks;
  int depth;
};

class ExchangeProperty : public ::testing::TestWithParam<ExchangeCase> {};

TEST_P(ExchangeProperty, HaloConsistencyAndAccounting) {
  const ExchangeCase ec = GetParam();
  const GlobalMesh2D mesh(ec.nx, ec.ny);
  SimCluster2D cl(mesh, ec.nranks, ec.depth);
  cl.allocate({.fp64 = {FieldId::kW}});

  cl.for_each_chunk([&](int, Chunk2D& c) {
    auto& f = c.field(FieldId::kW);
    f.fill(-1e30);  // poison: any stale read fails loudly
    for (int k = 0; k < c.ny(); ++k)
      for (int j = 0; j < c.nx(); ++j)
        f(j, k) = 7.0 * (c.extent().x0 + j) - 3.0 * (c.extent().y0 + k);
  });
  cl.exchange({FieldId::kW}, ec.depth);

  for (int r = 0; r < cl.nranks(); ++r) {
    const Chunk2D& c = cl.chunk(r);
    const auto& f = c.field(FieldId::kW);
    for (int k = -ec.depth; k < c.ny() + ec.depth; ++k) {
      for (int j = -ec.depth; j < c.nx() + ec.depth; ++j) {
        const int gj = c.extent().x0 + j;
        const int gk = c.extent().y0 + k;
        if (gj < 0 || gj >= mesh.nx || gk < 0 || gk >= mesh.ny) continue;
        ASSERT_DOUBLE_EQ(f(j, k), 7.0 * gj - 3.0 * gk)
            << "rank " << r << " (" << j << "," << k << ")";
      }
    }
  }

  const CommStats cc =
      exchange_counts(cl.decomposition(), ec.depth, /*nfields=*/1);
  EXPECT_EQ(cc.messages, cl.stats().messages);
  EXPECT_EQ(cc.message_bytes, cl.stats().message_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExchangeProperty,
    ::testing::Values(ExchangeCase{40, 12, 4, 1},   // wide mesh
                      ExchangeCase{40, 12, 4, 3},
                      ExchangeCase{12, 40, 4, 2},   // tall mesh
                      ExchangeCase{12, 40, 8, 3},
                      ExchangeCase{33, 17, 6, 2},   // odd sizes, remainders
                      ExchangeCase{33, 17, 3, 4},
                      ExchangeCase{25, 25, 5, 2},   // strip decomposition
                      ExchangeCase{64, 64, 16, 5},  // deep halo, many ranks
                      ExchangeCase{16, 16, 2, 8}),  // halo ~ chunk size
    [](const auto& info) {
      const ExchangeCase& ec = info.param;
      return std::to_string(ec.nx) + "x" + std::to_string(ec.ny) + "_r" +
             std::to_string(ec.nranks) + "_d" + std::to_string(ec.depth);
    });

/// 3-D property sweep: brick meshes × rank counts × depths.  Every
/// in-domain halo cell (faces, edges AND corners — the three-phase
/// exchange must propagate all of them) equals the unique global value,
/// and the byte accounting matches trace::exchange_counts exactly,
/// including the depth-dependent edge strips of the y and z phases.
struct Exchange3DCase {
  int nx;
  int ny;
  int nz;
  int nranks;
  int depth;
};

class Exchange3DProperty : public ::testing::TestWithParam<Exchange3DCase> {
};

TEST_P(Exchange3DProperty, HaloConsistencyAndAccounting) {
  const Exchange3DCase ec = GetParam();
  const GlobalMesh mesh = GlobalMesh::brick3d(ec.nx, ec.ny, ec.nz);
  SimCluster cl(mesh, ec.nranks, ec.depth);
  cl.allocate({.fp64 = {FieldId::kW}});

  cl.for_each_chunk([&](int, Chunk& c) {
    auto& f = c.field(FieldId::kW);
    f.fill(-1e30);  // poison: any stale read fails loudly
    for (int l = 0; l < c.nz(); ++l)
      for (int k = 0; k < c.ny(); ++k)
        for (int j = 0; j < c.nx(); ++j)
          f(j, k, l) = 7.0 * (c.extent().x0 + j) -
                       3.0 * (c.extent().y0 + k) +
                       11.0 * (c.extent().z0 + l);
  });
  cl.exchange({FieldId::kW}, ec.depth);

  for (int r = 0; r < cl.nranks(); ++r) {
    const Chunk& c = cl.chunk(r);
    const auto& f = c.field(FieldId::kW);
    for (int l = -ec.depth; l < c.nz() + ec.depth; ++l) {
      for (int k = -ec.depth; k < c.ny() + ec.depth; ++k) {
        for (int j = -ec.depth; j < c.nx() + ec.depth; ++j) {
          const int gj = c.extent().x0 + j;
          const int gk = c.extent().y0 + k;
          const int gl = c.extent().z0 + l;
          if (gj < 0 || gj >= mesh.nx || gk < 0 || gk >= mesh.ny ||
              gl < 0 || gl >= mesh.nz) {
            continue;
          }
          ASSERT_DOUBLE_EQ(f(j, k, l), 7.0 * gj - 3.0 * gk + 11.0 * gl)
              << "rank " << r << " (" << j << "," << k << "," << l << ")";
        }
      }
    }
  }

  const CommStats cc =
      exchange_counts(cl.decomposition(), ec.depth, /*nfields=*/1);
  EXPECT_EQ(cc.messages, cl.stats().messages);
  EXPECT_EQ(cc.message_bytes, cl.stats().message_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes3D, Exchange3DProperty,
    ::testing::Values(Exchange3DCase{12, 12, 12, 8, 1},  // 2×2×2 grid
                      Exchange3DCase{12, 12, 12, 8, 3},  // depth > 1
                      Exchange3DCase{16, 8, 8, 4, 2},    // wide brick
                      Exchange3DCase{8, 8, 24, 6, 2},    // tall brick
                      Exchange3DCase{9, 7, 5, 4, 2},     // odd remainders
                      Exchange3DCase{10, 10, 3, 12, 1},  // thin slab
                      Exchange3DCase{6, 6, 6, 27, 2},    // 3×3×3 grid
                      Exchange3DCase{16, 16, 1, 4, 2}),  // degenerate nz=1
    [](const auto& info) {
      const Exchange3DCase& ec = info.param;
      return std::to_string(ec.nx) + "x" + std::to_string(ec.ny) + "x" +
             std::to_string(ec.nz) + "_r" + std::to_string(ec.nranks) +
             "_d" + std::to_string(ec.depth);
    });

TEST(Exchange3DProperty, MultiFieldDeepExchangeSharesMessages) {
  // All fields travel in one message per direction; bytes scale with the
  // field count and messages do not — at any depth.
  const GlobalMesh mesh = GlobalMesh::brick3d(12, 12, 12);
  SimCluster one(mesh, 8, 3);
  SimCluster two(mesh, 8, 3);
  two.allocate({.fp64 = {FieldId::kP}});
  one.exchange({FieldId::kU}, 3);
  two.exchange({FieldId::kU, FieldId::kP}, 3);
  EXPECT_EQ(two.stats().messages, one.stats().messages);
  EXPECT_EQ(two.stats().message_bytes, 2 * one.stats().message_bytes);
  ASSERT_EQ(two.trace().exchanges.size(), 1u);
  EXPECT_EQ(two.trace().exchanges[0].depth, 3);
  EXPECT_EQ(two.trace().exchanges[0].fields, 2);
}

TEST(ExchangeProperty, RepeatedExchangeIsIdempotent) {
  // Exchanging twice must not change anything: halos already hold the
  // neighbour values.
  const GlobalMesh2D mesh(24, 24);
  SimCluster2D cl(mesh, 4, 2);
  SplitMix64 rng(99);
  cl.for_each_chunk([&](int, Chunk2D& c) {
    for (int k = 0; k < c.ny(); ++k)
      for (int j = 0; j < c.nx(); ++j)
        c.u()(j, k) = rng.next_double(-5.0, 5.0);
  });
  cl.exchange({FieldId::kU}, 2);
  const Field2D<double> before = gather_field(cl, FieldId::kU);
  std::vector<double> halo_snapshot;
  for (int r = 0; r < cl.nranks(); ++r) {
    const auto& f = cl.chunk(r).u();
    for (int k = -2; k < cl.chunk(r).ny() + 2; ++k)
      for (int j = -2; j < cl.chunk(r).nx() + 2; ++j)
        halo_snapshot.push_back(f(j, k));
  }
  cl.exchange({FieldId::kU}, 2);
  const Field2D<double> after = gather_field(cl, FieldId::kU);
  std::size_t idx = 0;
  for (int r = 0; r < cl.nranks(); ++r) {
    const auto& f = cl.chunk(r).u();
    for (int k = -2; k < cl.chunk(r).ny() + 2; ++k)
      for (int j = -2; j < cl.chunk(r).nx() + 2; ++j)
        ASSERT_DOUBLE_EQ(f(j, k), halo_snapshot[idx++]);
  }
  for (int k = 0; k < 24; ++k)
    for (int j = 0; j < 24; ++j)
      ASSERT_DOUBLE_EQ(after(j, k), before(j, k));
}

TEST(ExchangeProperty, ShallowerExchangeLeavesDeepHaloAlone) {
  const GlobalMesh2D mesh(16, 16);
  SimCluster2D cl(mesh, 4, 4);
  cl.for_each_chunk([](int r, Chunk2D& c) {
    c.u().fill(static_cast<double>(r + 1));
  });
  cl.exchange({FieldId::kU}, 1);
  // Depth-1 halo written; layers 2..4 keep their original fill.
  const Chunk2D& c = cl.chunk(0);
  EXPECT_DOUBLE_EQ(c.u()(c.nx(), 0), 2.0);      // from right neighbour
  EXPECT_DOUBLE_EQ(c.u()(c.nx() + 1, 0), 1.0);  // untouched own fill
}

TEST(ExchangeProperty, StatsAggregateAcrossCalls) {
  const GlobalMesh2D mesh(24, 24);
  SimCluster2D cl(mesh, 4, 3);
  cl.allocate({.fp64 = {FieldId::kP}});
  cl.exchange({FieldId::kU}, 1);
  cl.exchange({FieldId::kU, FieldId::kP}, 3);
  EXPECT_EQ(cl.stats().exchange_calls, 2);
  EXPECT_EQ(cl.stats().messages, 16);
  // The trace keeps the two exchanges apart by depth.
  ASSERT_EQ(cl.trace().exchanges.size(), 2u);
  EXPECT_EQ(cl.trace().exchanges[0].depth, 1);
  EXPECT_EQ(cl.trace().exchanges[1].depth, 3);
  CommStats copy;
  copy += cl.stats();
  copy += cl.stats();
  EXPECT_EQ(copy.messages, 2 * cl.stats().messages);
  EXPECT_EQ(copy.message_bytes, 2 * cl.stats().message_bytes);
}

}  // namespace
}  // namespace tealeaf
