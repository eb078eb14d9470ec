#pragma once

#include <array>
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

/// Identifiers for the per-chunk solver fields (mirrors the field set of
/// upstream TeaLeaf's `chunk_type`).  Used to select fields for halo
/// exchanges and generic access.  kKz exists on every chunk but is only
/// built/read by the 3-D (7-point) stencil.
enum class FieldId : int {
  kDensity = 0,  ///< material density ρ
  kEnergy0,      ///< specific energy at step start
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

inline constexpr int kNumFieldIds = 16;

/// One simulated rank's subdomain: geometry plus the full set of solver
/// fields, each allocated with `halo_depth` ghost layers (in z too for
/// 3-D meshes).  One class serves both problem dimensions — a 2-D chunk
/// is the nz == 1 case with no z halo and the classic storage layout.
///
/// `halo_depth` must be at least the deepest matrix-powers halo the solver
/// configuration will request (upstream: 2 by default, up to 16 for the
/// communication-avoiding PPCG on GPUs).
class Chunk {
 public:
  Chunk(const ChunkExtent& extent, const GlobalMesh& mesh, int halo_depth);

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

  [[nodiscard]] Field<double>& field(FieldId id);
  [[nodiscard]] const Field<double>& field(FieldId id) const;

  /// fp32 twin of field(): the second storage bank of the mixed-precision
  /// execution layer.  Same geometry and halo as the fp64 bank (identical
  /// strides, so assembled-operator column offsets index both), allocated
  /// lazily by enable_fp32() — double-only runs never pay for it.
  [[nodiscard]] Field<float>& field32(FieldId id);
  [[nodiscard]] const Field<float>& field32(FieldId id) const;

  /// Scalar-generic field access for templated kernel cores:
  /// field_t<double> is field(), field_t<float> is field32().
  template <class T>
  [[nodiscard]] Field<T>& field_t(FieldId id);
  template <class T>
  [[nodiscard]] const Field<T>& field_t(FieldId id) const;

  /// Allocate the fp32 field bank (no-op when already allocated).  Like
  /// the fp64 ctor fill, the zero-fill is the NUMA first touch: call it
  /// from the thread that owns this rank.
  void enable_fp32();
  [[nodiscard]] bool fp32_enabled() const { return !fields32_.empty(); }

  /// When active, op_dispatch routes the kernels over the fp32 views and
  /// halo exchanges move the fp32 bank.  Flipped by the single/mixed
  /// drivers in run_solver; never active on the default double path.
  [[nodiscard]] bool fp32_active() const { return fp32_active_; }
  void set_fp32_active(bool active) {
    TEA_REQUIRE(!active || fp32_enabled(),
                "fp32 bank must be enabled before activation");
    fp32_active_ = active;
  }

  // Named accessors for readability in kernels.
  Field<double>& density() { return fields_[idx(FieldId::kDensity)]; }
  Field<double>& energy0() { return fields_[idx(FieldId::kEnergy0)]; }
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
  /// drivers when op_kind() is kCsr.
  void set_assembled_operator32(std::shared_ptr<const CsrMatrix32> csr) {
    TEA_REQUIRE(op_kind_ != OperatorKind::kStencil,
                "stencil operator carries no assembled matrix");
    TEA_REQUIRE(csr != nullptr, "assembled fp32 operator needs a CSR matrix");
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

  ChunkExtent extent_;
  GlobalMesh mesh_;
  int halo_depth_;
  std::array<Field<double>, kNumFieldIds> fields_;
  /// Lazily allocated fp32 twin bank (empty until enable_fp32()).
  std::vector<Field<float>> fields32_;
  bool fp32_active_ = false;
  std::vector<double> row_scratch_;
  OperatorKind op_kind_ = OperatorKind::kStencil;
  std::shared_ptr<const CsrMatrix> csr_;
  std::shared_ptr<const CsrMatrix32> csr32_;
};

template <>
inline Field<double>& Chunk::field_t<double>(FieldId id) {
  return field(id);
}
template <>
inline const Field<double>& Chunk::field_t<double>(FieldId id) const {
  return field(id);
}
template <>
inline Field<float>& Chunk::field_t<float>(FieldId id) {
  return field32(id);
}
template <>
inline const Field<float>& Chunk::field_t<float>(FieldId id) const {
  return field32(id);
}

/// Compatibility spelling from before the dimension-generic core.
using Chunk2D = Chunk;

}  // namespace tealeaf
