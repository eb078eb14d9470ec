#include "ops/sparse_matrix.hpp"

#include "mesh/chunk.hpp"
#include "util/error.hpp"

namespace tealeaf {

template <class T>
CsrMatrixT<T> assemble_from_stencil_t(const Chunk& c) {
  const int nx = c.nx(), ny = c.ny(), nz = c.nz();
  const bool three_d = c.dims() == 3;
  // The float instantiation assembles from the fp32 coefficient bank in
  // float arithmetic, preserving the stencil's entry order and diagonal
  // association — the bitwise stencil ≡ CSR contract, per scalar.
  const Field<T>& kx = c.field_t<T>(FieldId::kKx);
  const Field<T>& ky = c.field_t<T>(FieldId::kKy);
  const Field<T>& kz =
      three_d ? c.field_t<T>(FieldId::kKz) : c.field_t<T>(FieldId::kKx);
  const Field<T>& geom = kx;  // any field: all share one geometry
  const int per_row = three_d ? 7 : 5;

  CsrMatrixT<T> m;
  m.nrows = static_cast<std::int64_t>(nx) * ny * nz;
  m.row_ptr.resize(m.nrows + 1);
  m.cols.resize(m.nrows * per_row);
  m.vals.resize(m.nrows * per_row);
  // Boundary-face zeros are kept, so every row has the full stencil arity
  // and the pairwise accumulation in the kernels never regroups.

  std::int64_t e = 0;
  for (std::int64_t r = 0; r <= m.nrows; ++r) m.row_ptr[r] = r * per_row;
  for (int l = 0; l < nz; ++l) {
    for (int k = 0; k < ny; ++k) {
      for (int j = 0; j < nx; ++j) {
        const T ky_lo = ky(j, k, l), ky_hi = ky(j, k + 1, l);
        const T kx_lo = kx(j, k, l), kx_hi = kx(j + 1, k, l);
        // Same association as the matrix-free diagonal:
        // ((1 + (ky_hi+ky_lo)) + (kx_hi+kx_lo)) [+ (kz_hi+kz_lo)].
        T diag = T(1) + (ky_hi + ky_lo) + (kx_hi + kx_lo);
        if (three_d) diag += kz(j, k, l + 1) + kz(j, k, l);
        m.cols[e] = static_cast<std::int64_t>(geom.index(j, k, l));
        m.vals[e++] = diag;
        m.cols[e] = static_cast<std::int64_t>(geom.index(j, k + 1, l));
        m.vals[e++] = -ky_hi;
        m.cols[e] = static_cast<std::int64_t>(geom.index(j, k - 1, l));
        m.vals[e++] = -ky_lo;
        m.cols[e] = static_cast<std::int64_t>(geom.index(j + 1, k, l));
        m.vals[e++] = -kx_hi;
        m.cols[e] = static_cast<std::int64_t>(geom.index(j - 1, k, l));
        m.vals[e++] = -kx_lo;
        if (three_d) {
          m.cols[e] = static_cast<std::int64_t>(geom.index(j, k, l + 1));
          m.vals[e++] = -kz(j, k, l + 1);
          m.cols[e] = static_cast<std::int64_t>(geom.index(j, k, l - 1));
          m.vals[e++] = -kz(j, k, l);
        }
      }
    }
  }
  TEA_ASSERT(e == static_cast<std::int64_t>(m.vals.size()),
             "assembled entry count mismatch");
  return m;
}

template CsrMatrixT<double> assemble_from_stencil_t<double>(const Chunk&);
template CsrMatrixT<float> assemble_from_stencil_t<float>(const Chunk&);

CsrMatrix assemble_from_stencil(const Chunk& c) {
  return assemble_from_stencil_t<double>(c);
}

}  // namespace tealeaf
