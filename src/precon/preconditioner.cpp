#include "precon/preconditioner.hpp"

#include <algorithm>
#include <type_traits>

#include "ops/kernels.hpp"
#include "ops/operator_view.hpp"
#include "util/error.hpp"

namespace tealeaf {

const char* to_string(PreconType t) {
  switch (t) {
    case PreconType::kNone: return "none";
    case PreconType::kJacobiDiag: return "jac_diag";
    case PreconType::kJacobiBlock: return "jac_block";
    case PreconType::kMultigrid: return "multigrid";
  }
  return "?";
}

namespace kernels {

/// The strips run along k within one (j, l) column, so the 3-D blocks are
/// the per-plane instances of the 2-D ones and never couple planes (or
/// chunks) — the preconditioner still needs no communication.
void block_jacobi_init(Chunk& c) {
  // Per column (j, l), factorise each 4-cell tridiagonal block:
  //   sub(k)  = the signed k−1 coupling (within-strip only)
  //   diag(k) = the full operator diagonal
  //   sup(k)  = the signed k+1 coupling
  // all read through the chunk's OperatorView (stencil: −Ky faces;
  // assembled: the stored row entries).  bfp(k) stores the inverted pivot
  // 1/(diag - sub·cp(k-1)); cp(k) stores sup·bfp(k).  Strip truncation at
  // the chunk top falls out naturally.  Under the mixed-precision layer
  // the factorisation runs entirely in the view's scalar — the strip
  // recurrences are elementwise work, not reductions.
  op_dispatch(c, [&](const auto& A) {
    using S = typename std::decay_t<decltype(A)>::Scalar;
    auto& cp_s = c.field_t<S>(FieldId::kCp);
    auto& bfp_s = c.field_t<S>(FieldId::kBfp);
    for (int l = 0; l < c.nz(); ++l) {
      for (int k0 = 0; k0 < c.ny(); k0 += kJacBlockSize) {
        const int k1 = std::min(k0 + kJacBlockSize, c.ny());
        for (int j = 0; j < c.nx(); ++j) {
          S prev_cp = S(0);
          for (int k = k0; k < k1; ++k) {
            const S sub = (k == k0) ? S(0) : A.coupling_k(j, k, l, -1);
            const S sup =
                (k == k1 - 1) ? S(0) : A.coupling_k(j, k, l, +1);
            const S pivot = A.diag(j, k, l) - sub * prev_cp;
            bfp_s(j, k, l) = S(1) / pivot;
            cp_s(j, k, l) = sup * bfp_s(j, k, l);
            prev_cp = cp_s(j, k, l);
          }
        }
      }
    }
  });
}

void block_jacobi_solve(Chunk& c, FieldId src_id, FieldId dst_id,
                        const Bounds& tb) {
  TEA_ASSERT(tb.klo >= 0 && tb.klo % kJacBlockSize == 0 &&
                 tb.khi <= c.ny() &&
                 (tb.khi % kJacBlockSize == 0 || tb.khi == c.ny()) &&
                 tb.llo >= 0 && tb.lhi <= c.nz(),
             "block-Jacobi box must cover whole strips of the interior");
  op_dispatch(c, [&](const auto& A) {
    using S = typename std::decay_t<decltype(A)>::Scalar;
    const auto& src = c.field_t<S>(src_id);
    auto& dst = c.field_t<S>(dst_id);
    const auto& cp = c.field_t<S>(FieldId::kCp);
    const auto& bfp = c.field_t<S>(FieldId::kBfp);
    for (int l = tb.llo; l < tb.lhi; ++l) {
      for (int k0 = tb.klo; k0 < tb.khi; k0 += kJacBlockSize) {
        const int k1 = std::min(k0 + kJacBlockSize, c.ny());
        for (int j = 0; j < c.nx(); ++j) {
          // Thomas forward sweep: y_k = (b_k − sub_k·y_{k−1})·bfp_k.
          S prev = S(0);
          for (int k = k0; k < k1; ++k) {
            const S sub = (k == k0) ? S(0) : A.coupling_k(j, k, l, -1);
            prev = (src(j, k, l) - sub * prev) * bfp(j, k, l);
            dst(j, k, l) = prev;
          }
          // Back substitution: x_k = y_k − cp_k·x_{k+1}.
          for (int k = k1 - 2; k >= k0; --k) {
            dst(j, k, l) -= cp(j, k, l) * dst(j, k + 1, l);
          }
        }
      }
    }
  });
}

void diag_solve(Chunk& c, FieldId src_id, FieldId dst_id, const Bounds& b) {
  op_dispatch(c, [&](const auto& A) {
    using S = typename std::decay_t<decltype(A)>::Scalar;
    const auto& src = c.field_t<S>(src_id);
    auto& dst = c.field_t<S>(dst_id);
    for (int l = b.llo; l < b.lhi; ++l)
      for (int k = b.klo; k < b.khi; ++k)
        for (int j = b.jlo; j < b.jhi; ++j)
          dst(j, k, l) = src(j, k, l) / A.diag(j, k, l);
  });
}

void apply_preconditioner(Chunk& c, PreconType type, FieldId src,
                          FieldId dst) {
  switch (type) {
    case PreconType::kNone:
      copy(c, dst, src, interior_bounds(c));
      return;
    case PreconType::kJacobiDiag:
      diag_solve(c, src, dst, interior_bounds(c));
      return;
    case PreconType::kJacobiBlock:
      block_jacobi_solve(c, src, dst, interior_bounds(c));
      return;
    case PreconType::kMultigrid:
      break;  // the CG body runs the team-wide V-cycle itself
  }
  TEA_ASSERT(false, "invalid per-chunk preconditioner type");
}

}  // namespace kernels

}  // namespace tealeaf
