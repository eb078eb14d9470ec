#pragma once

// The true residual of a cluster's solution, computed by a copy of the
// end-to-end benchmark's oracle (bench/e2e/tealeaf_e2e.cpp), which checks
// every benchmark timestep.  testing::relative_residual (test_helpers.hpp)
// calls kernels::calc_residual, so it cannot stand in for this one.

#include <cmath>
#include <vector>

#include "comm/sim_comm.hpp"

namespace tealeaf::testing {

// ---- correctness oracle ---------------------------------------------------
// Written from the matrix definition and reading fields only through the
// public Chunk accessors; nothing here calls ops/kernels:
//
//   (A v)(g) = (1 + Σ_faces K)·v(g) − Σ_faces K·v(neighbour)
//
// where the x-face between cells g−x̂ and g carries Kx(g), stored by the
// owner of g (likewise y, z), and K = 0 on every physical-boundary face.

class Oracle {
 public:
  explicit Oracle(const SimCluster& cl) : cl_(cl), mesh_(cl.mesh()) {
    const Decomposition& d = cl.decomposition();
    col_.resize(static_cast<std::size_t>(mesh_.nx));
    row_.resize(static_cast<std::size_t>(mesh_.ny));
    plane_.resize(static_cast<std::size_t>(mesh_.nz));
    for (int r = 0; r < cl.nranks(); ++r) {
      const ChunkExtent& e = cl.chunk(r).extent();
      for (int i = 0; i < e.nx; ++i) col_[e.x0 + i] = d.coord_x(r);
      for (int i = 0; i < e.ny; ++i) row_[e.y0 + i] = d.coord_y(r);
      for (int i = 0; i < e.nz; ++i) plane_[e.z0 + i] = d.coord_z(r);
    }
  }

  /// ‖u0 − A·u‖₂ / ‖u0 − A·u0‖₂: the true residual relative to the one
  /// the solve started from (every solver starts from u = u0).
  [[nodiscard]] double relative_residual() const {
    long double rr = 0.0L;
    long double r0 = 0.0L;
    for (int r = 0; r < cl_.nranks(); ++r) {
      const Chunk& c = cl_.chunk(r);
      for (int l = 0; l < c.nz(); ++l)
        for (int k = 0; k < c.ny(); ++k)
          for (int j = 0; j < c.nx(); ++j) {
            const double b = c.u0()(j, k, l);
            const double res = b - apply(c, FieldId::kU, j, k, l);
            const double res0 = b - apply(c, FieldId::kU0, j, k, l);
            rr += static_cast<long double>(res) * res;
            r0 += static_cast<long double>(res0) * res0;
          }
    }
    return r0 > 0.0L ? static_cast<double>(std::sqrt(rr / r0)) : 0.0;
  }

 private:
  /// Value of field `f` at local cell (j, k, l) of chunk `c`, which may
  /// lie one cell outside the chunk: then it is read from its owner.
  [[nodiscard]] double fetch(const Chunk& c, FieldId f, int j, int k,
                             int l) const {
    if (j >= 0 && j < c.nx() && k >= 0 && k < c.ny() && l >= 0 &&
        l < c.nz()) {
      return c.field(f)(j, k, l);
    }
    const ChunkExtent& e = c.extent();
    const int gx = e.x0 + j, gy = e.y0 + k, gz = e.z0 + l;
    const Chunk& o = cl_.chunk(
        cl_.decomposition().rank_at(col_[gx], row_[gy], plane_[gz]));
    const ChunkExtent& oe = o.extent();
    return o.field(f)(gx - oe.x0, gy - oe.y0, gz - oe.z0);
  }

  /// (A·v)(g) at local cell (j, k, l) of `c`, for v = field `v`.
  [[nodiscard]] double apply(const Chunk& c, FieldId v, int j, int k,
                             int l) const {
    const ChunkExtent& e = c.extent();
    const int gx = e.x0 + j, gy = e.y0 + k, gz = e.z0 + l;
    double diag = 1.0;
    double off = 0.0;
    // Low face: coefficient stored here; high face: stored by the
    // neighbour across it.
    const auto faces = [&](FieldId kf, int dj, int dk, int dl, bool has_lo,
                           bool has_hi) {
      if (has_lo) {
        const double kface = c.field(kf)(j, k, l);
        diag += kface;
        off += kface * fetch(c, v, j - dj, k - dk, l - dl);
      }
      if (has_hi) {
        const double kface = fetch(c, kf, j + dj, k + dk, l + dl);
        diag += kface;
        off += kface * fetch(c, v, j + dj, k + dk, l + dl);
      }
    };
    faces(FieldId::kKx, 1, 0, 0, gx > 0, gx + 1 < mesh_.nx);
    faces(FieldId::kKy, 0, 1, 0, gy > 0, gy + 1 < mesh_.ny);
    if (mesh_.dims == 3) {
      faces(FieldId::kKz, 0, 0, 1, gz > 0, gz + 1 < mesh_.nz);
    }
    return diag * c.field(v)(j, k, l) - off;
  }

  const SimCluster& cl_;
  GlobalMesh mesh_;
  std::vector<int> col_, row_, plane_;  ///< process-grid coordinate per cell
};

}  // namespace tealeaf::testing
