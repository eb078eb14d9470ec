#include <gtest/gtest.h>

#include <string>

#include "mesh/chunk.hpp"
#include "mesh/field.hpp"
#include "mesh/mesh.hpp"

namespace tealeaf {
namespace {

TEST(Field2D, IndexingInteriorAndHalo) {
  Field2D<double> f(4, 3, 2, -1.0);
  EXPECT_EQ(f.nx(), 4);
  EXPECT_EQ(f.ny(), 3);
  EXPECT_EQ(f.halo(), 2);
  EXPECT_EQ(f.size(), static_cast<std::size_t>((4 + 4) * (3 + 4)));
  // Whole allocation initialised.
  EXPECT_DOUBLE_EQ(f(-2, -2), -1.0);
  EXPECT_DOUBLE_EQ(f(5, 4), -1.0);
  f(0, 0) = 3.0;
  f(-2, -2) = 7.0;
  f(5, 4) = 9.0;
  EXPECT_DOUBLE_EQ(f(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(f(-2, -2), 7.0);
  EXPECT_DOUBLE_EQ(f(5, 4), 9.0);
}

TEST(Field2D, RowMajorUnitStrideInJ) {
  Field2D<double> f(5, 4, 1);
  EXPECT_EQ(f.index(1, 0), f.index(0, 0) + 1);
  EXPECT_EQ(f.index(0, 1), f.index(0, 0) + static_cast<std::size_t>(f.stride()));
}

TEST(Field2D, FillInteriorLeavesHalo) {
  Field2D<double> f(3, 3, 1, 5.0);
  f.fill_interior(2.0);
  EXPECT_DOUBLE_EQ(f(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(f(2, 2), 2.0);
  EXPECT_DOUBLE_EQ(f(-1, 0), 5.0);
  EXPECT_DOUBLE_EQ(f(3, 3), 5.0);
}

TEST(Field2D, CopyInteriorAcrossHaloDepths) {
  Field2D<double> a(3, 2, 2, 0.0);
  Field2D<double> b(3, 2, 1, 0.0);
  for (int k = 0; k < 2; ++k)
    for (int j = 0; j < 3; ++j) a(j, k) = 10.0 * k + j;
  b.copy_interior_from(a);
  for (int k = 0; k < 2; ++k)
    for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(b(j, k), 10.0 * k + j);
}

TEST(Field2D, SumInterior) {
  Field2D<double> f(4, 4, 1, 100.0);  // halo full of junk
  f.fill_interior(1.5);
  EXPECT_DOUBLE_EQ(f.sum_interior(), 1.5 * 16);
}

TEST(Field2D, InvalidConstructionThrows) {
  EXPECT_THROW(Field2D<double>(0, 3, 1), TeaError);
  EXPECT_THROW(Field2D<double>(3, -1, 1), TeaError);
  EXPECT_THROW(Field2D<double>(3, 3, -1), TeaError);
}

TEST(GlobalMesh, GeometryDerivedQuantities) {
  const GlobalMesh2D m(100, 50, 0.0, 10.0, 0.0, 5.0);
  EXPECT_DOUBLE_EQ(m.dx(), 0.1);
  EXPECT_DOUBLE_EQ(m.dy(), 0.1);
  EXPECT_DOUBLE_EQ(m.cell_x(0), 0.05);
  EXPECT_DOUBLE_EQ(m.cell_y(49), 5.0 - 0.05);
  EXPECT_DOUBLE_EQ(m.cell_area(), 0.01);
  EXPECT_EQ(m.cell_count(), 5000);
}

TEST(GlobalMesh, RejectsDegenerateDomains) {
  EXPECT_THROW(GlobalMesh2D(0, 10), TeaError);
  EXPECT_THROW(GlobalMesh2D(10, 10, 1.0, 1.0), TeaError);
}

TEST(ChunkTest, FieldsAllocatedWithHalo) {
  const GlobalMesh2D mesh(8, 8);
  Chunk2D c(ChunkExtent{0, 0, 8, 8}, mesh, 3);
  EXPECT_EQ(c.halo_depth(), 3);
  EXPECT_EQ(c.u().halo(), 3);
  EXPECT_EQ(c.field(FieldId::kKy).nx(), 8);
  c.u()(-3, -3) = 1.0;  // deepest halo corner is addressable
  EXPECT_DOUBLE_EQ(c.u()(-3, -3), 1.0);
}

TEST(ChunkTest, UnallocatedFieldIsEmptyAndKernelAccessStopsByName) {
  const GlobalMesh2D mesh(8, 8);
  Chunk2D c(ChunkExtent{0, 0, 8, 8}, mesh, 2);
  // A 2-D chunk's Kz is unallocated like any work field or fp32 twin.
  for (const FieldId id : {FieldId::kP, FieldId::kKz}) {
    EXPECT_EQ(c.field(id).size(), 0u);
    EXPECT_THROW((void)c.field_t<double>(id), TeaError);
  }
  EXPECT_EQ(c.field32(FieldId::kU).size(), 0u);
  try {
    (void)c.field_t<float>(FieldId::kU);
    ADD_FAILURE() << "field_t handed out an unallocated fp32 field";
  } catch (const TeaError& e) {
    EXPECT_NE(std::string(e.what()).find("field not allocated"),
              std::string::npos)
        << e.what();
  }
  c.allocate({.fp64 = {FieldId::kP}, .fp32 = {FieldId::kU}});
  EXPECT_EQ(c.field_t<double>(FieldId::kP).size(), c.u().size());
  EXPECT_EQ(c.field_t<float>(FieldId::kU).size(), c.u().size());
}

TEST(ChunkTest, BoundaryDetection) {
  const GlobalMesh2D mesh(10, 10);
  Chunk2D left(ChunkExtent{0, 0, 5, 10}, mesh, 1);
  EXPECT_TRUE(left.at_boundary(Face::kLeft));
  EXPECT_FALSE(left.at_boundary(Face::kRight));
  EXPECT_TRUE(left.at_boundary(Face::kBottom));
  EXPECT_TRUE(left.at_boundary(Face::kTop));
  Chunk2D right(ChunkExtent{5, 0, 5, 10}, mesh, 1);
  EXPECT_FALSE(right.at_boundary(Face::kLeft));
  EXPECT_TRUE(right.at_boundary(Face::kRight));
}

TEST(ChunkTest, GlobalCellCoordinates) {
  const GlobalMesh2D mesh(10, 10, 0.0, 10.0, 0.0, 10.0);
  Chunk2D c(ChunkExtent{5, 2, 5, 8}, mesh, 1);
  EXPECT_DOUBLE_EQ(c.cell_x(0), mesh.cell_x(5));
  EXPECT_DOUBLE_EQ(c.cell_y(0), mesh.cell_y(2));
}

TEST(ChunkTest, RejectsInvalidShapes) {
  const GlobalMesh2D mesh(10, 10);
  EXPECT_THROW(Chunk2D(ChunkExtent{0, 0, 0, 10}, mesh, 1), TeaError);
  EXPECT_THROW(Chunk2D(ChunkExtent{0, 0, 10, 10}, mesh, 0), TeaError);
}

}  // namespace
}  // namespace tealeaf
