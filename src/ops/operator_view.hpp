#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "mesh/chunk.hpp"
#include "ops/bounds.hpp"
#include "ops/operator_kind.hpp"
#include "ops/sparse_matrix.hpp"

/// Forces a function or lambda inline into its caller.  The kernels call
/// the view primitives once a cell; GCC's inliner leaves some
/// instantiations out of line, and the call then clobbers memory for the
/// vectorizer ("statement clobbers memory" under -fopt-info-vec), which
/// leaves the loop scalar.  The kernels' AVX2 copies (ops/kernels.hpp)
/// need it for more: a callee left out of line compiles for the baseline
/// target, so the copy runs baseline code.  Neither copy enables FMA, so
/// inlining contracts no arithmetic.  Spelled after a lambda's parameter
/// list, before a function's declaration; other compilers get nothing.
#if defined(__GNUC__)
#define TEALEAF_FORCE_INLINE __attribute__((always_inline))
#else
#define TEALEAF_FORCE_INLINE
#endif

namespace tealeaf {

/// OperatorView: the one surface every per-row kernel core traverses the
/// linear operator through.  Two implementations — the matrix-free
/// stencil (`StencilView<Dims>`) and the assembled CSR matrix (`CsrView`)
/// — share five primitives:
///
///   diag(j,k,l)                  the diagonal entry of the cell's row
///   apply(src, j,k,l)            (A·src) at the cell
///   neigh_plus(seed, src, ...)   seed + Σ positive couplings · src(nbr)
///                                (the Jacobi-update accumulation)
///   coupling_k(j,k,l,dk)        the *signed* off-diagonal entry toward
///                                (j, k+dk, l) — block-Jacobi's sub/sup
///
/// Every view is additionally templated on the storage scalar `T`
/// (exposed as `View::Scalar`): elementwise arithmetic runs in T, so the
/// double instantiation is bit-for-bit the historical code and the float
/// instantiation is the fp32 execution layer.  Reductions over view
/// results always accumulate in double (the kernels' contract).
///
/// Bitwise contract: a CSR matrix assembled from the stencil (entry
/// order diag, ky±, kx±[, kz±]; off-diagonals stored signed; boundary
/// zeros kept) produces bit-identical results to StencilView because the
/// assembled paths accumulate entries pairwise in that fixed order, and
/// IEEE-754 negation/sign-symmetry make (−a)+(−b) ≡ −(a+b) and
/// acc+(−x) ≡ acc−x exact — in either scalar.
///
/// `kInTileUpdate` marks the one view/geometry combination (2-D stencil)
/// whose tile kernels may update a tile's inner rows before the team
/// barrier; every other view defers all updates to the post-barrier edge
/// pass.

template <int Dims, class T = double>
struct StencilView {
  using Scalar = T;
  static constexpr bool kInTileUpdate = (Dims == 2);
  const Field<T>* kx;
  const Field<T>* ky;
  const Field<T>* kz;  // unused when Dims == 2

  explicit StencilView(const Chunk& c)
      : kx(&c.field_t<T>(FieldId::kKx)),
        ky(&c.field_t<T>(FieldId::kKy)),
        kz(Dims == 3 ? &c.field_t<T>(FieldId::kKz) : nullptr) {}
  StencilView(const Field<T>* kx_in, const Field<T>* ky_in,
              const Field<T>* kz_in)
      : kx(kx_in), ky(ky_in), kz(kz_in) {}

  [[nodiscard]] TEALEAF_FORCE_INLINE T diag(int j, int k, int l) const {
    if constexpr (Dims == 3) {
      return T(1) + ((*ky)(j, k + 1, l) + (*ky)(j, k, l)) +
             ((*kx)(j + 1, k, l) + (*kx)(j, k, l)) +
             ((*kz)(j, k, l + 1) + (*kz)(j, k, l));
    } else {
      return T(1) + ((*ky)(j, k + 1, l) + (*ky)(j, k, l)) +
             ((*kx)(j + 1, k, l) + (*kx)(j, k, l));
    }
  }

  [[nodiscard]] TEALEAF_FORCE_INLINE T apply(const Field<T>& src, int j,
                                            int k, int l) const {
    if constexpr (Dims == 3) {
      return diag(j, k, l) * src(j, k, l) -
             ((*ky)(j, k + 1, l) * src(j, k + 1, l) +
              (*ky)(j, k, l) * src(j, k - 1, l)) -
             ((*kx)(j + 1, k, l) * src(j + 1, k, l) +
              (*kx)(j, k, l) * src(j - 1, k, l)) -
             ((*kz)(j, k, l + 1) * src(j, k, l + 1) +
              (*kz)(j, k, l) * src(j, k, l - 1));
    } else {
      return (T(1) + ((*ky)(j, k + 1, l) + (*ky)(j, k, l)) +
              ((*kx)(j + 1, k, l) + (*kx)(j, k, l))) *
                 src(j, k, l) -
             ((*ky)(j, k + 1, l) * src(j, k + 1, l) +
              (*ky)(j, k, l) * src(j, k - 1, l)) -
             ((*kx)(j + 1, k, l) * src(j + 1, k, l) +
              (*kx)(j, k, l) * src(j - 1, k, l));
    }
  }

  [[nodiscard]] TEALEAF_FORCE_INLINE T neigh_plus(T seed, const Field<T>& src,
                                                 int j, int k, int l) const {
    T acc = seed;
    acc += ((*ky)(j, k + 1, l) * src(j, k + 1, l) +
            (*ky)(j, k, l) * src(j, k - 1, l));
    acc += ((*kx)(j + 1, k, l) * src(j + 1, k, l) +
            (*kx)(j, k, l) * src(j - 1, k, l));
    if constexpr (Dims == 3) {
      acc += ((*kz)(j, k, l + 1) * src(j, k, l + 1) +
              (*kz)(j, k, l) * src(j, k, l - 1));
    }
    return acc;
  }

  [[nodiscard]] T coupling_k(int j, int k, int l, int dk) const {
    return dk < 0 ? -(*ky)(j, k, l) : -(*ky)(j, k + 1, l);
  }
};

namespace detail {

/// One assembled row: n entries v[i]/c[i] in stored order.  The two
/// accumulations below define the assembled arithmetic — entry 0 (the
/// diagonal), then strict pairs, then a possible odd tail — which is what
/// makes stencil-assembled matrices bitwise-reproduce the matrix-free
/// grouping, per scalar.
template <class T>
[[nodiscard]] TEALEAF_FORCE_INLINE inline T row_apply_n(const T* v,
                                                        const std::int64_t* c,
                                                        int n, const T* s) {
  T acc = v[0] * s[c[0]];
  int i = 1;
  for (; i + 1 < n; i += 2) acc += (v[i] * s[c[i]] + v[i + 1] * s[c[i + 1]]);
  if (i < n) acc += v[i] * s[c[i]];
  return acc;
}

template <class T>
[[nodiscard]] TEALEAF_FORCE_INLINE inline T row_neigh_plus_n(
    const T* v, const std::int64_t* c, int n, T seed, const T* s) {
  T acc = seed;
  int i = 1;
  for (; i + 1 < n; i += 2)
    acc += ((-v[i]) * s[c[i]] + (-v[i + 1]) * s[c[i + 1]]);
  if (i < n) acc += (-v[i]) * s[c[i]];
  return acc;
}

/// Rows assembled from the stencil hold 5 (2-D) or 7 (3-D) entries,
/// boundary zeros kept; for those lengths the same body runs with a
/// constant count, which unrolls it.  Other rows (.mtx inputs) take the
/// counted loop.
template <class T>
[[nodiscard]] TEALEAF_FORCE_INLINE inline T row_apply(const T* v,
                                                      const std::int64_t* c,
                                                      int n, const T* s) {
  if (n == 5) return row_apply_n(v, c, 5, s);
  if (n == 7) return row_apply_n(v, c, 7, s);
  return row_apply_n(v, c, n, s);
}

template <class T>
[[nodiscard]] TEALEAF_FORCE_INLINE inline T row_neigh_plus(
    const T* v, const std::int64_t* c, int n, T seed, const T* s) {
  if (n == 5) return row_neigh_plus_n(v, c, 5, seed, s);
  if (n == 7) return row_neigh_plus_n(v, c, 7, seed, s);
  return row_neigh_plus_n(v, c, n, seed, s);
}

template <class T>
[[nodiscard]] inline T row_coupling(const T* v, const std::int64_t* c, int n,
                                    std::int64_t target_col) {
  for (int i = 0; i < n; ++i)
    if (c[i] == target_col) return v[i];
  return T(0);
}

/// Select the chunk's assembled matrix by scalar.
template <class T>
[[nodiscard]] inline const CsrMatrixT<T>* csr_of(const Chunk& c) {
  if constexpr (std::is_same_v<T, float>) {
    return c.csr32();
  } else {
    return c.csr();
  }
}

}  // namespace detail

template <class T = double>
struct CsrViewT {
  using Scalar = T;
  static constexpr bool kInTileUpdate = false;
  const CsrMatrixT<T>* m;
  int nx, ny;

  explicit CsrViewT(const Chunk& c)
      : m(detail::csr_of<T>(c)), nx(c.nx()), ny(c.ny()) {
    TEA_ASSERT(m != nullptr, "chunk has no assembled CSR operator");
  }

  [[nodiscard]] TEALEAF_FORCE_INLINE std::int64_t row(int j, int k,
                                                      int l) const {
    return (static_cast<std::int64_t>(l) * ny + k) * nx + j;
  }

  [[nodiscard]] TEALEAF_FORCE_INLINE T diag(int j, int k, int l) const {
    return m->vals[m->row_ptr[row(j, k, l)]];
  }
  [[nodiscard]] TEALEAF_FORCE_INLINE T apply(const Field<T>& src, int j, int k,
                                            int l) const {
    const std::int64_t r = row(j, k, l), b = m->row_ptr[r];
    return detail::row_apply(m->vals.data() + b, m->cols.data() + b,
                             m->row_len(r), src.data());
  }
  [[nodiscard]] TEALEAF_FORCE_INLINE T neigh_plus(T seed, const Field<T>& src,
                                                 int j, int k, int l) const {
    const std::int64_t r = row(j, k, l), b = m->row_ptr[r];
    return detail::row_neigh_plus(m->vals.data() + b, m->cols.data() + b,
                                  m->row_len(r), seed, src.data());
  }
  [[nodiscard]] T coupling_k(int j, int k, int l, int dk) const {
    // The neighbour's diagonal column is its cell's storage offset; find
    // the entry of our row pointing at it (≤ 7 entries for assembled
    // stencils, short rows for .mtx inputs).
    const std::int64_t target = m->cols[m->row_ptr[row(j, k + dk, l)]];
    const std::int64_t r = row(j, k, l), b = m->row_ptr[r];
    return detail::row_coupling(m->vals.data() + b, m->cols.data() + b,
                                m->row_len(r), target);
  }
};

using CsrView = CsrViewT<double>;

/// Call `fn` with the chunk's operator view — the operator-kind analogue
/// of the dims() dispatch the kernels already do, with the storage scalar
/// as the third dispatched axis: a chunk whose fp32 bank is active gets
/// the float instantiation of the same view, so every kernel (and with
/// them every engine) runs on either scalar without a second code path.
template <class Fn>
TEALEAF_FORCE_INLINE inline void op_dispatch(const Chunk& c, Fn&& fn) {
  if (c.fp32_active()) {
    if (c.op_kind() == OperatorKind::kCsr) {
      fn(CsrViewT<float>(c));
    } else if (c.dims() == 3) {
      fn(StencilView<3, float>(c));
    } else {
      fn(StencilView<2, float>(c));
    }
    return;
  }
  if (c.op_kind() == OperatorKind::kCsr) {
    fn(CsrView(c));
  } else if (c.dims() == 3) {
    fn(StencilView<3>(c));
  } else {
    fn(StencilView<2>(c));
  }
}

}  // namespace tealeaf
