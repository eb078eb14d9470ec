#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "mesh/decomposition.hpp"
#include "mesh/field.hpp"
#include "mesh/mesh.hpp"
#include "ops/operator_kind.hpp"

namespace tealeaf {

template <class T>
struct CsrMatrixT;
using CsrMatrix = CsrMatrixT<double>;
using CsrMatrix32 = CsrMatrixT<float>;

/// Identifiers for the per-chunk solver fields (upstream TeaLeaf's
/// `chunk_type` set, less its write-only `energy0`).  Used to select
/// fields for halo exchanges, generic access and allocation.  kKz is built
/// and read by the 3-D (7-point) stencil only.
enum class FieldId : int {
  kDensity = 0,  ///< material density ρ
  kEnergy1,      ///< specific energy being advanced
  kU,            ///< solution vector (temperature ρ·e)
  kU0,           ///< right-hand side (initial temperature)
  kP,            ///< CG search direction
  kR,            ///< residual
  kW,            ///< operator application scratch (w = A p)
  kZ,            ///< preconditioned residual / inner-solve accumulator
  kSd,           ///< Chebyshev / PPCG step direction
  kRtemp,        ///< PPCG inner residual
  kKx,           ///< x-face conduction coefficient (scaled by rx)
  kKy,           ///< y-face conduction coefficient (scaled by ry)
  kCp,           ///< block-Jacobi Thomas forward coefficients
  kBfp,          ///< block-Jacobi Thomas back-substitution factors
  kKz,           ///< z-face conduction coefficient (3-D only, scaled by rz)
};

inline constexpr int kNumFieldIds = 15;

/// A set of field ids.
class FieldSet {
 public:
  constexpr FieldSet() = default;
  constexpr FieldSet(std::initializer_list<FieldId> ids) {
    for (const FieldId id : ids) bits_ |= bit(id);
  }

  [[nodiscard]] constexpr bool contains(FieldId id) const {
    return (bits_ & bit(id)) != 0;
  }
  /// True when every id of `other` is in this set.
  [[nodiscard]] constexpr bool covers(FieldSet other) const {
    return (other.bits_ & ~bits_) == 0;
  }
  [[nodiscard]] constexpr bool empty() const { return bits_ == 0; }
  constexpr FieldSet& operator|=(FieldSet other) {
    bits_ |= other.bits_;
    return *this;
  }
  [[nodiscard]] friend constexpr FieldSet operator|(FieldSet a, FieldSet b) {
    return a |= b;
  }
  [[nodiscard]] constexpr bool operator==(const FieldSet&) const = default;

 private:
  static constexpr std::uint32_t bit(FieldId id) {
    return std::uint32_t{1} << static_cast<int>(id);
  }
  std::uint32_t bits_ = 0;
};

/// One set per storage bank: the fp64 fields and their fp32 twins.  What
/// a chunk holds (Chunk::allocated) or what a solve uses (solve_fields,
/// solvers/solver.hpp).
struct FieldBanks {
  FieldSet fp64{};
  FieldSet fp32{};

  [[nodiscard]] bool covers(const FieldBanks& other) const {
    return fp64.covers(other.fp64) && fp32.covers(other.fp32);
  }
};

/// One simulated rank's subdomain: geometry plus the solver fields it
/// holds, each allocated with `halo_depth` ghost layers (in z too for 3-D
/// meshes).  One class serves both problem dimensions — a 2-D chunk is
/// the nz == 1 case with no z halo and the classic storage layout.
///
/// A chunk is built holding the base set (base_fields): the material,
/// u, u0 and the conduction coefficients.  The work fields a solver uses
/// and the fp32 bank are added by allocate() — SimCluster::allocate, for
/// the set solve_fields (solvers/solver.hpp) names — so a chunk holds
/// only what the solves run on it have used (docs/architecture.md,
/// "Field residency").  A field it does not hold reads as an empty Field
/// (size 0); indexing one is a library bug.
///
/// `halo_depth` must be at least the deepest matrix-powers halo the solver
/// configuration will request (upstream: 2 by default, up to 16 for the
/// communication-avoiding PPCG on GPUs).
class Chunk {
 public:
  /// Build the chunk holding base_fields(mesh.dims), zero-filled: run it
  /// on the thread that owns the rank (see SimCluster's constructor), as
  /// the fill is the first touch of the fields' pages.
  Chunk(const ChunkExtent& extent, const GlobalMesh& mesh, int halo_depth);

  /// Density, energy, u, u0, Kx, Ky and, in 3-D, Kz: the fields every
  /// session step builds whatever the solver.
  [[nodiscard]] static FieldSet base_fields(int dims);

  [[nodiscard]] int nx() const { return extent_.nx; }
  [[nodiscard]] int ny() const { return extent_.ny; }
  [[nodiscard]] int nz() const { return extent_.nz; }
  [[nodiscard]] int dims() const { return mesh_.dims; }
  [[nodiscard]] int halo_depth() const { return halo_depth_; }
  [[nodiscard]] const ChunkExtent& extent() const { return extent_; }
  [[nodiscard]] const GlobalMesh& mesh() const { return mesh_; }

  /// Number of interior rows a flattened (plane, row) sweep visits — the
  /// unit of the tiled execution engine's row accounting.
  [[nodiscard]] int num_rows() const { return extent_.ny * extent_.nz; }

  /// Global cell-centre coordinates of local cell (j, k[, l]).
  [[nodiscard]] double cell_x(int j) const {
    return mesh_.cell_x(extent_.x0 + j);
  }
  [[nodiscard]] double cell_y(int k) const {
    return mesh_.cell_y(extent_.y0 + k);
  }
  [[nodiscard]] double cell_z(int l) const {
    return mesh_.cell_z(extent_.z0 + l);
  }

  /// The fp64 field `id`; an empty Field when the chunk does not hold it.
  [[nodiscard]] Field<double>& field(FieldId id) { return fields_[idx(id)]; }
  [[nodiscard]] const Field<double>& field(FieldId id) const {
    return fields_[idx(id)];
  }

  /// fp32 twin of field(): the second storage bank of the mixed-precision
  /// execution layer.  Same geometry and halo as the fp64 bank (identical
  /// strides, so assembled-operator column offsets index both); empty
  /// until a single or mixed solve allocates it — double-only runs never
  /// pay for it.
  [[nodiscard]] Field<float>& field32(FieldId id) {
    return fields32_[idx(id)];
  }
  [[nodiscard]] const Field<float>& field32(FieldId id) const {
    return fields32_[idx(id)];
  }

  /// Scalar-generic field access for templated kernel cores:
  /// field_t<double> is field(), field_t<float> is field32().  The kernels
  /// and halo exchanges reach fields through it, so it requires the field
  /// to be allocated: a solver body that drifts from solve_fields stops
  /// with "field not allocated" instead of indexing an empty field.
  template <class T>
  [[nodiscard]] Field<T>& field_t(FieldId id);
  template <class T>
  [[nodiscard]] const Field<T>& field_t(FieldId id) const;

  /// The fields this chunk holds, per bank: the ids whose field() or
  /// field32() is not empty.
  [[nodiscard]] FieldBanks allocated() const;

  /// Allocate, zero-filled, every field of `fields` this chunk lacks (the
  /// rest keep their values).  The fill is the NUMA first touch: call it
  /// from the thread that owns this rank, as SimCluster::allocate does.
  void allocate(const FieldBanks& fields);

  /// True once the chunk holds any fp32 field.
  [[nodiscard]] bool fp32_enabled() const { return !allocated().fp32.empty(); }

  /// When active, op_dispatch routes the kernels over the fp32 views and
  /// halo exchanges move the fp32 bank.  Flipped by the single/mixed
  /// drivers in run_solver; never active on the default double path.
  [[nodiscard]] bool fp32_active() const { return fp32_active_; }
  void set_fp32_active(bool active) {
    TEA_REQUIRE(!active || fp32_enabled(),
                "fp32 bank must be allocated before activation");
    fp32_active_ = active;
  }

  // Named accessors for readability in kernels.
  Field<double>& density() { return fields_[idx(FieldId::kDensity)]; }
  Field<double>& energy() { return fields_[idx(FieldId::kEnergy1)]; }
  Field<double>& u() { return fields_[idx(FieldId::kU)]; }
  Field<double>& u0() { return fields_[idx(FieldId::kU0)]; }
  Field<double>& p() { return fields_[idx(FieldId::kP)]; }
  Field<double>& r() { return fields_[idx(FieldId::kR)]; }
  Field<double>& w() { return fields_[idx(FieldId::kW)]; }
  Field<double>& z() { return fields_[idx(FieldId::kZ)]; }
  Field<double>& sd() { return fields_[idx(FieldId::kSd)]; }
  Field<double>& rtemp() { return fields_[idx(FieldId::kRtemp)]; }
  Field<double>& kx() { return fields_[idx(FieldId::kKx)]; }
  Field<double>& ky() { return fields_[idx(FieldId::kKy)]; }
  Field<double>& kz() { return fields_[idx(FieldId::kKz)]; }
  Field<double>& cp() { return fields_[idx(FieldId::kCp)]; }
  Field<double>& bfp() { return fields_[idx(FieldId::kBfp)]; }

  const Field<double>& density() const {
    return fields_[idx(FieldId::kDensity)];
  }
  const Field<double>& u() const { return fields_[idx(FieldId::kU)]; }
  const Field<double>& u0() const { return fields_[idx(FieldId::kU0)]; }
  const Field<double>& r() const { return fields_[idx(FieldId::kR)]; }
  const Field<double>& kx() const { return fields_[idx(FieldId::kKx)]; }
  const Field<double>& ky() const { return fields_[idx(FieldId::kKy)]; }
  const Field<double>& kz() const { return fields_[idx(FieldId::kKz)]; }

  /// True when this chunk touches the physical domain boundary on `face`.
  /// A 2-D chunk is always at the (degenerate) z boundaries.
  [[nodiscard]] bool at_boundary(Face face) const;

  /// Which operator representation the kernels traverse for this chunk.
  /// Stencil by default; SolveSession::prepare (or a test helper) swaps in
  /// an assembled CSR matrix, and the kernels dispatch on this the way they
  /// dispatch on dims().
  [[nodiscard]] OperatorKind op_kind() const { return op_kind_; }
  [[nodiscard]] const CsrMatrix* csr() const { return csr_.get(); }
  [[nodiscard]] const CsrMatrix32* csr32() const { return csr32_.get(); }

  /// Install an assembled CSR operator (op_kind() becomes kCsr).  The
  /// matrix is a shared, immutable snapshot — re-assemble after
  /// coefficients change.
  void set_assembled_operator(std::shared_ptr<const CsrMatrix> csr) {
    TEA_REQUIRE(csr != nullptr, "assembled operator needs a CSR matrix");
    op_kind_ = OperatorKind::kCsr;
    csr_ = std::move(csr);
  }

  /// fp32 twin of the assembled matrix (assembled from the fp32
  /// coefficient bank, NOT downcast).  Installed by the single/mixed
  /// drivers when op_kind() is kCsr; nullptr drops it.
  void set_assembled_operator32(std::shared_ptr<const CsrMatrix32> csr) {
    TEA_REQUIRE(op_kind_ != OperatorKind::kStencil,
                "stencil operator carries no assembled matrix");
    csr32_ = std::move(csr);
  }

  /// Back to the matrix-free stencil; drops the assembled matrices.
  void clear_assembled_operator() {
    op_kind_ = OperatorKind::kStencil;
    csr_.reset();
    csr32_.reset();
  }

  /// Per-row reduction scratch of the tiled execution engine: two double
  /// slots per interior row (slot [2ρ] and [2ρ+1] for flattened row
  /// ρ = l·ny + k).  Row-blocked kernels deposit per-row partials here and
  /// the engine combines them in row order, so the sum is independent of
  /// the tile decomposition and of which thread computed which block.
  [[nodiscard]] double* row_scratch() { return row_scratch_.data(); }
  [[nodiscard]] const double* row_scratch() const {
    return row_scratch_.data();
  }

 private:
  static std::size_t idx(FieldId id) { return static_cast<std::size_t>(id); }
  /// `f`, checked to be allocated (field_t).
  template <class F>
  static F& held(F& f) {
    TEA_ASSERT(f.size() > 0,
               "field not allocated: allocate solve_fields first");
    return f;
  }
  /// A zero-filled field of this chunk's geometry.
  template <class T>
  [[nodiscard]] Field<T> make_field() const;

  ChunkExtent extent_;
  GlobalMesh mesh_;
  int halo_depth_;
  std::array<Field<double>, kNumFieldIds> fields_;
  std::array<Field<float>, kNumFieldIds> fields32_;
  bool fp32_active_ = false;
  std::vector<double> row_scratch_;
  OperatorKind op_kind_ = OperatorKind::kStencil;
  std::shared_ptr<const CsrMatrix> csr_;
  std::shared_ptr<const CsrMatrix32> csr32_;
};

template <>
inline Field<double>& Chunk::field_t<double>(FieldId id) {
  return held(field(id));
}
template <>
inline const Field<double>& Chunk::field_t<double>(FieldId id) const {
  return held(field(id));
}
template <>
inline Field<float>& Chunk::field_t<float>(FieldId id) {
  return held(field32(id));
}
template <>
inline const Field<float>& Chunk::field_t<float>(FieldId id) const {
  return held(field32(id));
}

/// Compatibility spelling from before the dimension-generic core.
using Chunk2D = Chunk;

}  // namespace tealeaf
