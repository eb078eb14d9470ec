#pragma once

#include <cstdint>
#include <vector>

namespace tealeaf {

class Chunk;

/// Assembled sparse matrix over one chunk's interior cells, CSR layout,
/// templated on the storage scalar (double for the classic path, float
/// for the fp32 execution layer — same structure, half the val bytes).
///
/// Rows are interior cells in flattened sweep order, row = (l·ny + k)·nx + j.
/// Column indices are *storage offsets into the chunk's Field arrays* (all
/// solver fields of a chunk share one geometry — the fp32 field bank uses
/// the same halo, so the same offsets index both banks), so SpMV gathers
/// straight from any field's backing store — halo cells included, which is
/// what makes the assembled path work unchanged under multi-rank halo
/// exchange.
///
/// Entry order within a row is significant: the kernels accumulate entries
/// pairwise (entry 0, then (1,2), (3,4), ... and a possible odd tail), so a
/// matrix assembled from the stencil — entry order diag, ky(k+1), ky(k−1),
/// kx(j+1), kx(j−1)[, kz(l+1), kz(l−1)], off-diagonals stored *signed*
/// (negative) and boundary-face zeros kept — reproduces the matrix-free
/// arithmetic bit for bit, in either scalar.  Entry 0 of every row must be
/// the diagonal.
template <class T>
struct CsrMatrixT {
  std::int64_t nrows = 0;
  std::vector<std::int64_t> row_ptr;  ///< nrows + 1 offsets into cols/vals
  std::vector<std::int64_t> cols;     ///< Field storage offsets
  std::vector<T> vals;                ///< signed entry values, diag first

  [[nodiscard]] std::int64_t nnz() const {
    return static_cast<std::int64_t>(vals.size());
  }
  [[nodiscard]] double nnz_per_row() const {
    return nrows > 0 ? static_cast<double>(nnz()) / static_cast<double>(nrows)
                     : 0.0;
  }
  [[nodiscard]] int row_len(std::int64_t r) const {
    return static_cast<int>(row_ptr[r + 1] - row_ptr[r]);
  }
};

using CsrMatrix = CsrMatrixT<double>;
using CsrMatrix32 = CsrMatrixT<float>;

/// Assemble the chunk's conduction stencil into CSR with the exact entry
/// layout the bitwise-equivalence contract requires (diag computed with the
/// stencil's association, signed off-diagonals, boundary zeros kept).  The
/// float instantiation reads the chunk's fp32 coefficient bank and computes
/// the diagonal in float arithmetic — NOT a downcast of double-assembled
/// values — so the stencil ≡ CSR contract carries to the second scalar.
template <class T>
[[nodiscard]] CsrMatrixT<T> assemble_from_stencil_t(const Chunk& c);

[[nodiscard]] CsrMatrix assemble_from_stencil(const Chunk& c);

}  // namespace tealeaf
