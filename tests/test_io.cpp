#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "io/csv.hpp"
#include "io/json.hpp"
#include "io/ppm.hpp"
#include "io/vtk.hpp"

namespace tealeaf {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Ppm, HeatColourEndpoints) {
  const io::Rgb cold = io::heat_colour(0.0);
  const io::Rgb hot = io::heat_colour(1.0);
  EXPECT_EQ(cold.b, 255);  // blue = cold
  EXPECT_EQ(cold.r, 0);
  EXPECT_EQ(hot.r, 255);   // red = hot
  EXPECT_EQ(hot.b, 0);
  // Out-of-range values clamp instead of wrapping.
  const io::Rgb below = io::heat_colour(-3.0);
  EXPECT_EQ(below.b, 255);
  const io::Rgb above = io::heat_colour(7.0);
  EXPECT_EQ(above.r, 255);
}

TEST(Ppm, WritesWellFormedBinaryFile) {
  Field2D<double> f(10, 6, 0, 0.0);
  for (int k = 0; k < 6; ++k)
    for (int j = 0; j < 10; ++j) f(j, k) = j + k;
  const std::string path = tmp_path("heat.ppm");
  io::write_ppm(f, path);

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::string magic;
  int w = 0, h = 0, maxval = 0;
  in >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(w, 10);
  EXPECT_EQ(h, 6);
  EXPECT_EQ(maxval, 255);
  in.get();  // single whitespace after header
  std::vector<char> pixels(10 * 6 * 3);
  in.read(pixels.data(), static_cast<std::streamsize>(pixels.size()));
  EXPECT_EQ(in.gcount(), static_cast<std::streamsize>(pixels.size()));
  // First written row is k = ny-1 (image top = domain top); its first
  // pixel is field(0, 5) = 5 of range [0,14] → cool colour (blue-ish).
  EXPECT_GT(static_cast<unsigned char>(pixels[2]),
            static_cast<unsigned char>(pixels[0]));
}

TEST(Ppm, ExplicitRangeClamps) {
  Field2D<double> f(4, 4, 0, 100.0);
  const std::string path = tmp_path("clamped.ppm");
  io::write_ppm(f, path, 0.0, 1.0);  // all values above hi
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open());
}

TEST(Csv, WritesRowsAndMirrorsInMemory) {
  const std::string path = tmp_path("series.csv");
  {
    io::CsvWriter csv(path);
    csv.header({"nodes", "seconds", "label"});
    csv.row(8, 1.25, "CG - 1");
    csv.row(16, 0.75, "PPCG - 16");
    ASSERT_EQ(csv.lines().size(), 3u);
    EXPECT_EQ(csv.lines()[0], "nodes,seconds,label");
    EXPECT_EQ(csv.lines()[1], "8,1.25,CG - 1");
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "nodes,seconds,label");
  std::getline(in, line);
  EXPECT_EQ(line, "8,1.25,CG - 1");
}

TEST(Csv, InMemoryOnlyWhenPathEmpty) {
  io::CsvWriter csv("");
  csv.row("a", 1);
  EXPECT_EQ(csv.lines().size(), 1u);
}

TEST(Vtk, EmitsStructuredPointsWithFields) {
  const GlobalMesh2D mesh(4, 3, 0.0, 4.0, 0.0, 3.0);
  Field2D<double> u(4, 3, 0, 1.5);
  Field2D<double> rho(4, 3, 0, 2.0);
  const std::string path = tmp_path("dump.vtk");
  io::write_vtk(mesh, {{"temperature", &u}, {"density", &rho}}, path);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("DATASET STRUCTURED_POINTS"), std::string::npos);
  EXPECT_NE(text.find("DIMENSIONS 4 3 1"), std::string::npos);
  EXPECT_NE(text.find("SCALARS temperature double 1"), std::string::npos);
  EXPECT_NE(text.find("SCALARS density double 1"), std::string::npos);
  EXPECT_NE(text.find("POINT_DATA 12"), std::string::npos);
}

TEST(Vtk, RejectsMismatchedShapes) {
  const GlobalMesh2D mesh(4, 3);
  Field2D<double> wrong(5, 3, 0, 0.0);
  EXPECT_THROW(
      io::write_vtk(mesh, {{"u", &wrong}}, tmp_path("bad.vtk")),
      TeaError);
}

TEST(Json, BuildsAndDumpsDeterministically) {
  io::JsonValue doc = io::JsonValue::object();
  doc.set("name", "sweep");
  doc.set("cells", 3);
  doc.set("ok", true);
  io::JsonValue arr = io::JsonValue::array();
  arr.push_back(1.5);
  arr.push_back(io::JsonValue());  // null
  doc.set("values", std::move(arr));
  EXPECT_EQ(doc.dump(),
            R"({"name":"sweep","cells":3,"ok":true,"values":[1.5,null]})");
  // Insertion order is preserved, so repeated dumps are identical.
  EXPECT_EQ(doc.dump(), doc.dump());
}

TEST(Json, ParsesItsOwnOutputExactly) {
  io::JsonValue doc = io::JsonValue::object();
  doc.set("label", "line1\nline2 \"quoted\" \\ tab\t");
  doc.set("tiny", 5.7338617125237919e-07);
  doc.set("negative", -42);
  const io::JsonValue back = io::JsonValue::parse(doc.dump(2));
  EXPECT_EQ(back.at("label").as_string(), doc.at("label").as_string());
  EXPECT_DOUBLE_EQ(back.at("tiny").as_number(), 5.7338617125237919e-07);
  EXPECT_DOUBLE_EQ(back.at("negative").as_number(), -42.0);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(io::JsonValue::parse("{"), TeaError);
  EXPECT_THROW(io::JsonValue::parse("[1, 2,]"), TeaError);
  EXPECT_THROW(io::JsonValue::parse("{\"a\": 1} trailing"), TeaError);
  EXPECT_THROW(io::JsonValue::parse("\"unterminated"), TeaError);
  EXPECT_THROW(io::JsonValue::parse("nope"), TeaError);
  // Numbers must consume their whole token — no valid-prefix parses.
  EXPECT_THROW(io::JsonValue::parse("[1.2.3]"), TeaError);
  EXPECT_THROW(io::JsonValue::parse("1-2"), TeaError);
  EXPECT_THROW(io::JsonValue::parse("+1"), TeaError);
}

TEST(Json, TypedAccessorsEnforceKinds) {
  const io::JsonValue v = io::JsonValue::parse(R"({"a": [1, 2]})");
  EXPECT_THROW((void)v.as_number(), TeaError);
  EXPECT_THROW((void)v.at("missing"), TeaError);
  EXPECT_EQ(v.at("a").size(), 2u);
  EXPECT_DOUBLE_EQ(v.at("a").at(1).as_number(), 2.0);
}

}  // namespace
}  // namespace tealeaf
