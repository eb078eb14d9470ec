#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "mesh/chunk.hpp"
#include "ops/bounds.hpp"
#include "ops/operator_kind.hpp"
#include "ops/sparse_matrix.hpp"

namespace tealeaf {

/// OperatorView: the one surface every per-row kernel core traverses the
/// linear operator through.  Three implementations — the matrix-free
/// stencil (`StencilView<Dims>`), assembled CSR (`CsrView`) and assembled
/// SELL-C-σ (`SellView`) — share five primitives:
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
/// Bitwise contract: a CSR/SELL matrix assembled from the stencil (entry
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

  [[nodiscard]] T diag(int j, int k, int l) const {
    if constexpr (Dims == 3) {
      return T(1) + ((*ky)(j, k + 1, l) + (*ky)(j, k, l)) +
             ((*kx)(j + 1, k, l) + (*kx)(j, k, l)) +
             ((*kz)(j, k, l + 1) + (*kz)(j, k, l));
    } else {
      return T(1) + ((*ky)(j, k + 1, l) + (*ky)(j, k, l)) +
             ((*kx)(j + 1, k, l) + (*kx)(j, k, l));
    }
  }

  [[nodiscard]] T apply(const Field<T>& src, int j, int k, int l) const {
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

  [[nodiscard]] T neigh_plus(T seed, const Field<T>& src, int j, int k,
                             int l) const {
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

/// Cursor over one assembled row: n entries, val(i)/col(i) in stored
/// order.  The two accumulations below define the assembled arithmetic —
/// entry 0 (the diagonal), then strict pairs, then a possible odd tail —
/// which is what makes stencil-assembled matrices bitwise-reproduce the
/// matrix-free grouping, per scalar.
template <class Cursor, class T>
[[nodiscard]] inline T row_apply(const Cursor& c, const T* s) {
  T acc = c.val(0) * s[c.col(0)];
  int i = 1;
  for (; i + 1 < c.n; i += 2)
    acc += (c.val(i) * s[c.col(i)] + c.val(i + 1) * s[c.col(i + 1)]);
  if (i < c.n) acc += c.val(i) * s[c.col(i)];
  return acc;
}

template <class Cursor, class T>
[[nodiscard]] inline T row_neigh_plus(const Cursor& c, T seed, const T* s) {
  T acc = seed;
  int i = 1;
  for (; i + 1 < c.n; i += 2)
    acc += ((-c.val(i)) * s[c.col(i)] + (-c.val(i + 1)) * s[c.col(i + 1)]);
  if (i < c.n) acc += (-c.val(i)) * s[c.col(i)];
  return acc;
}

template <class Cursor>
[[nodiscard]] inline auto row_coupling(const Cursor& c,
                                       std::int64_t target_col)
    -> decltype(c.val(0)) {
  for (int i = 0; i < c.n; ++i)
    if (c.col(i) == target_col) return c.val(i);
  return decltype(c.val(0))(0);
}

template <class T>
struct CsrCursor {
  const T* v;
  const std::int64_t* c;
  int n;
  [[nodiscard]] T val(int i) const { return v[i]; }
  [[nodiscard]] std::int64_t col(int i) const { return c[i]; }
};

template <class T>
struct SellCursor {
  const T* v;
  const std::int64_t* c;
  int stride;  // slice height C
  int n;
  [[nodiscard]] T val(int i) const {
    return v[static_cast<std::int64_t>(i) * stride];
  }
  [[nodiscard]] std::int64_t col(int i) const {
    return c[static_cast<std::int64_t>(i) * stride];
  }
};

/// Select the chunk's assembled matrices by scalar.
template <class T>
[[nodiscard]] inline const CsrMatrixT<T>* csr_of(const Chunk& c) {
  if constexpr (std::is_same_v<T, float>) {
    return c.csr32();
  } else {
    return c.csr();
  }
}
template <class T>
[[nodiscard]] inline const SellMatrixT<T>* sell_of(const Chunk& c) {
  if constexpr (std::is_same_v<T, float>) {
    return c.sell32();
  } else {
    return c.sell();
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

  [[nodiscard]] std::int64_t row(int j, int k, int l) const {
    return (static_cast<std::int64_t>(l) * ny + k) * nx + j;
  }
  [[nodiscard]] detail::CsrCursor<T> cursor(std::int64_t r) const {
    const std::int64_t b = m->row_ptr[r];
    return {m->vals.data() + b, m->cols.data() + b,
            static_cast<int>(m->row_ptr[r + 1] - b)};
  }

  [[nodiscard]] T diag(int j, int k, int l) const {
    return m->vals[m->row_ptr[row(j, k, l)]];
  }
  [[nodiscard]] T apply(const Field<T>& src, int j, int k, int l) const {
    return detail::row_apply(cursor(row(j, k, l)), src.data());
  }
  [[nodiscard]] T neigh_plus(T seed, const Field<T>& src, int j, int k,
                             int l) const {
    return detail::row_neigh_plus(cursor(row(j, k, l)), seed, src.data());
  }
  [[nodiscard]] T coupling_k(int j, int k, int l, int dk) const {
    // The neighbour's diagonal column is its cell's storage offset; find
    // the entry of our row pointing at it (≤ 7 entries for assembled
    // stencils, short rows for .mtx inputs).
    const std::int64_t target = m->cols[m->row_ptr[row(j, k + dk, l)]];
    return detail::row_coupling(cursor(row(j, k, l)), target);
  }
};

using CsrView = CsrViewT<double>;

template <class T = double>
struct SellViewT {
  using Scalar = T;
  static constexpr bool kInTileUpdate = false;
  const SellMatrixT<T>* m;
  int nx, ny;

  explicit SellViewT(const Chunk& c)
      : m(detail::sell_of<T>(c)), nx(c.nx()), ny(c.ny()) {
    TEA_ASSERT(m != nullptr, "chunk has no assembled SELL-C-σ operator");
  }

  [[nodiscard]] std::int64_t row(int j, int k, int l) const {
    return (static_cast<std::int64_t>(l) * ny + k) * nx + j;
  }
  [[nodiscard]] detail::SellCursor<T> cursor(std::int64_t r) const {
    const std::int64_t p = m->slot[r];
    const std::int64_t base =
        m->slice_ptr[p / m->chunk_c] + p % m->chunk_c;
    return {m->vals.data() + base, m->cols.data() + base, m->chunk_c,
            m->row_len[r]};
  }

  [[nodiscard]] T diag(int j, int k, int l) const {
    return cursor(row(j, k, l)).val(0);
  }
  [[nodiscard]] T apply(const Field<T>& src, int j, int k, int l) const {
    return detail::row_apply(cursor(row(j, k, l)), src.data());
  }
  [[nodiscard]] T neigh_plus(T seed, const Field<T>& src, int j, int k,
                             int l) const {
    return detail::row_neigh_plus(cursor(row(j, k, l)), seed, src.data());
  }
  [[nodiscard]] T coupling_k(int j, int k, int l, int dk) const {
    const std::int64_t target = cursor(row(j, k + dk, l)).col(0);
    return detail::row_coupling(cursor(row(j, k, l)), target);
  }
};

using SellView = SellViewT<double>;

/// Call `fn` with the chunk's operator view — the operator-kind analogue
/// of the dims() dispatch the kernels already do, with the storage scalar
/// as the third dispatched axis: a chunk whose fp32 bank is active gets
/// the float instantiation of the same view, so every kernel (and with
/// them every engine) runs on either scalar without a second code path.
template <class Fn>
inline void op_dispatch(const Chunk& c, Fn&& fn) {
  if (c.fp32_active()) {
    switch (c.op_kind()) {
      case OperatorKind::kCsr:
        fn(CsrViewT<float>(c));
        return;
      case OperatorKind::kSellCSigma:
        fn(SellViewT<float>(c));
        return;
      case OperatorKind::kStencil:
        break;
    }
    if (c.dims() == 3) {
      fn(StencilView<3, float>(c));
    } else {
      fn(StencilView<2, float>(c));
    }
    return;
  }
  switch (c.op_kind()) {
    case OperatorKind::kCsr:
      fn(CsrView(c));
      return;
    case OperatorKind::kSellCSigma:
      fn(SellView(c));
      return;
    case OperatorKind::kStencil:
      break;
  }
  if (c.dims() == 3) {
    fn(StencilView<3>(c));
  } else {
    fn(StencilView<2>(c));
  }
}

}  // namespace tealeaf
