#include "mesh/chunk.hpp"

namespace tealeaf {

Chunk::Chunk(const ChunkExtent& extent, const GlobalMesh& mesh,
             int halo_depth)
    : extent_(extent), mesh_(mesh), halo_depth_(halo_depth) {
  TEA_REQUIRE(extent.nx > 0 && extent.ny > 0 && extent.nz > 0,
              "chunk must own cells");
  TEA_REQUIRE(halo_depth >= 1, "solvers need at least one halo layer");
  allocate({.fp64 = base_fields(mesh.dims)});
  row_scratch_.assign(
      2 * static_cast<std::size_t>(extent.ny) * extent.nz, 0.0);
}

FieldSet Chunk::base_fields(int dims) {
  FieldSet base{FieldId::kDensity, FieldId::kEnergy1, FieldId::kU,
                FieldId::kU0,      FieldId::kKx,      FieldId::kKy};
  if (dims == 3) base |= {FieldId::kKz};
  return base;
}

template <class T>
Field<T> Chunk::make_field() const {
  return mesh_.dims == 3 ? Field<T>::make3d(extent_.nx, extent_.ny,
                                            extent_.nz, halo_depth_, T{})
                         : Field<T>(extent_.nx, extent_.ny, halo_depth_, T{});
}

FieldBanks Chunk::allocated() const {
  FieldBanks held;
  for (int i = 0; i < kNumFieldIds; ++i) {
    const auto id = static_cast<FieldId>(i);
    if (field(id).size() > 0) held.fp64 |= {id};
    if (field32(id).size() > 0) held.fp32 |= {id};
  }
  return held;
}

void Chunk::allocate(const FieldBanks& fields) {
  // Both banks share one geometry, so the assembled-operator column
  // offsets index either.
  for (int i = 0; i < kNumFieldIds; ++i) {
    const auto id = static_cast<FieldId>(i);
    if (fields.fp64.contains(id) && field(id).size() == 0) {
      field(id) = make_field<double>();
    }
    if (fields.fp32.contains(id) && field32(id).size() == 0) {
      field32(id) = make_field<float>();
    }
  }
}

bool Chunk::at_boundary(Face face) const {
  switch (face) {
    case Face::kLeft: return extent_.x0 == 0;
    case Face::kRight: return extent_.x0 + extent_.nx == mesh_.nx;
    case Face::kBottom: return extent_.y0 == 0;
    case Face::kTop: return extent_.y0 + extent_.ny == mesh_.ny;
    case Face::kBack: return extent_.z0 == 0;
    case Face::kFront: return extent_.z0 + extent_.nz == mesh_.nz;
  }
  TEA_ASSERT(false, "invalid face");
}

}  // namespace tealeaf
