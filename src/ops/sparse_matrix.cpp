#include "ops/sparse_matrix.hpp"

#include <algorithm>
#include <numeric>

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

template <class T>
double SellMatrixT<T>::fill_ratio() const {
  const std::int64_t padded =
      slice_ptr.empty() ? 0 : slice_ptr.back();
  const std::int64_t true_nnz =
      std::accumulate(row_len.begin(), row_len.end(), std::int64_t{0});
  return true_nnz > 0 ? static_cast<double>(padded) /
                            static_cast<double>(true_nnz)
                      : 1.0;
}

template double SellMatrixT<double>::fill_ratio() const;
template double SellMatrixT<float>::fill_ratio() const;

template <class T>
SellMatrixT<T> sell_from_csr_t(const CsrMatrixT<T>& csr, int C, int sigma) {
  TEA_REQUIRE(C > 0 && sigma > 0, "SELL-C-sigma needs positive C and sigma");
  SellMatrixT<T> s;
  s.chunk_c = C;
  s.sigma = sigma;
  s.nrows = csr.nrows;
  s.row_len.resize(csr.nrows);
  for (std::int64_t r = 0; r < csr.nrows; ++r)
    s.row_len[r] = csr.row_len(r);

  // Sort rows by descending length inside each σ window — a storage
  // permutation only (stable, so equal-length rows keep sweep order and a
  // stencil-assembled matrix gets the identity permutation).
  std::vector<std::int64_t> order(csr.nrows);
  std::iota(order.begin(), order.end(), std::int64_t{0});
  for (std::int64_t w = 0; w < csr.nrows; w += sigma) {
    const std::int64_t hi = std::min<std::int64_t>(w + sigma, csr.nrows);
    std::stable_sort(order.begin() + w, order.begin() + hi,
                     [&](std::int64_t a, std::int64_t b) {
                       return s.row_len[a] > s.row_len[b];
                     });
  }
  s.slot.resize(csr.nrows);
  for (std::int64_t p = 0; p < csr.nrows; ++p) s.slot[order[p]] = p;

  const std::int64_t nslices = (csr.nrows + C - 1) / C;
  s.slice_ptr.resize(nslices + 1);
  s.slice_ptr[0] = 0;
  for (std::int64_t sl = 0; sl < nslices; ++sl) {
    int width = 0;
    for (std::int64_t p = sl * C;
         p < std::min<std::int64_t>((sl + 1) * C, csr.nrows); ++p)
      width = std::max(width, s.row_len[order[p]]);
    s.slice_ptr[sl + 1] =
        s.slice_ptr[sl] + static_cast<std::int64_t>(width) * C;
  }
  s.cols.assign(s.slice_ptr[nslices], 0);
  s.vals.assign(s.slice_ptr[nslices], T(0));
  for (std::int64_t r = 0; r < csr.nrows; ++r) {
    const std::int64_t p = s.slot[r];
    const std::int64_t base = s.slice_ptr[p / C] + p % C;
    const std::int64_t src = csr.row_ptr[r];
    for (int i = 0; i < s.row_len[r]; ++i) {
      s.cols[base + static_cast<std::int64_t>(i) * C] = csr.cols[src + i];
      s.vals[base + static_cast<std::int64_t>(i) * C] = csr.vals[src + i];
    }
  }
  return s;
}

template SellMatrixT<double> sell_from_csr_t<double>(const CsrMatrixT<double>&,
                                                     int, int);
template SellMatrixT<float> sell_from_csr_t<float>(const CsrMatrixT<float>&,
                                                   int, int);

SellMatrix sell_from_csr(const CsrMatrix& csr, int C, int sigma) {
  return sell_from_csr_t<double>(csr, C, sigma);
}

}  // namespace tealeaf
