#include "ops/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "ops/operator_view.hpp"
#include "util/error.hpp"

/// An entry point's two copies (kernels.hpp, TEALEAF_KERNEL_CLONES):
/// baseline x86-64 and AVX2.  Never FMA: GCC contracts a·b + c in C++
/// even under -std=c++20, and a fused multiply-add rounds once where the
/// source rounds twice, so every solve's bits would change.  A copy is
/// only as wide as what inlines into it, so every callee below is forced
/// inline (TEALEAF_FORCE_INLINE).
#if TEALEAF_KERNEL_CLONES
#define TEALEAF_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define TEALEAF_CLONES
#endif

namespace tealeaf::kernels {

namespace {

#if TEALEAF_KERNEL_CLONES
// One function in two versions, bound by the loader from the CPU the way
// it binds the entry points' copies.
__attribute__((target("default"))) const char* bound_isa() {
  return "baseline";
}
__attribute__((target("avx2"))) const char* bound_isa() { return "avx2"; }
#endif

/// Iterate the (plane, row) pairs of a box in flattened-row order.
template <class Fn>
TEALEAF_FORCE_INLINE inline void for_rows(const Bounds& b, Fn&& fn) {
  for (int l = b.llo; l < b.lhi; ++l)
    for (int k = b.klo; k < b.khi; ++k) fn(l, k);
}

/// Dispatch on the chunk's active storage scalar for kernels that touch
/// fields without traversing the operator (copy/fill/axpy/dot/...) — the
/// scalar analogue of op_dispatch.  The double branch is the historical
/// code path, bit for bit.
template <class Fn>
TEALEAF_FORCE_INLINE inline void scalar_dispatch(const Chunk& c, Fn&& fn) {
  if (c.fp32_active()) {
    fn(float{});
  } else {
    fn(double{});
  }
}

/// y = a·y + b·x over `bnd`: the Chebyshev direction update of
/// block-Jacobi's edge pass, which cannot fuse the strip solve.
TEALEAF_FORCE_INLINE inline void axpby(Chunk& c, FieldId y_id, double a,
                                       double b, FieldId x_id,
                                       const Bounds& bnd) {
  scalar_dispatch(c, [&](auto tag) TEALEAF_FORCE_INLINE {
    using S = decltype(tag);
    auto& y = c.field_t<S>(y_id);
    const auto& x = c.field_t<S>(x_id);
    const S av = static_cast<S>(a);
    const S bv = static_cast<S>(b);
    for_rows(bnd, [&](int l, int k) TEALEAF_FORCE_INLINE {
      for (int j = bnd.jlo; j < bnd.jhi; ++j)
        y(j, k, l) = av * y(j, k, l) + bv * x(j, k, l);
    });
  });
}

// ---- per-row reduction cores --------------------------------------------
// Every reducing kernel accumulates one partial per row and combines the
// rows in (plane, row) order; the whole-chunk kernels and the row-blocked
// (tiled) ones call the SAME cores, so the sum is a pure function of the
// row decomposition — never of tile size or thread assignment.  The cores
// are templated on the OperatorView (stencil / CSR) and, through
// View::Scalar, on the storage scalar: elementwise arithmetic runs in the
// scalar (fp32 under the mixed-precision layer), while every reduction
// accumulates in double over double-converted operands and every solver
// scalar (alpha, beta, theta) is cast to the storage scalar exactly once
// per row core.  The double instantiation compiles to the historical
// arithmetic — each cast is a no-op — which is the structural guarantee
// behind the tl_precision=double bitwise-identity contract.

/// Σ a·b over [j0, j1) of row (l, k), accumulated in ascending j.
template <class S>
TEALEAF_FORCE_INLINE inline double dot_span(const Field<S>& a,
                                            const Field<S>& b, int j0, int j1,
                                            int k, int l) {
  double acc = 0.0;
  for (int j = j0; j < j1; ++j)
    acc += static_cast<double>(a(j, k, l)) * static_cast<double>(b(j, k, l));
  return acc;
}

template <class S>
TEALEAF_FORCE_INLINE inline double dot_row(const Field<S>& a, const Field<S>& b,
                                           int nx, int k, int l) {
  return dot_span(a, b, 0, nx, k, l);
}

/// dot_span of rows k..k+3 of plane l into out[0..3].  Each row keeps its
/// own accumulator in ascending j, so each partial is bitwise dot_span's;
/// the four independent add chains overlap where one row's chain waits on
/// every add before it.
template <class S>
TEALEAF_FORCE_INLINE inline void dot_span4(const Field<S>& a, const Field<S>& b,
                                           int j0, int j1, int k, int l,
                                           double* out) {
  const S* a0 = &a(0, k, l);
  const S* b0 = &b(0, k, l);
  const std::int64_t as = a.stride();
  const std::int64_t bs = b.stride();
  double acc0 = 0.0;
  double acc1 = 0.0;
  double acc2 = 0.0;
  double acc3 = 0.0;
  for (int j = j0; j < j1; ++j) {
    acc0 += static_cast<double>(a0[j]) * static_cast<double>(b0[j]);
    acc1 += static_cast<double>(a0[as + j]) * static_cast<double>(b0[bs + j]);
    acc2 += static_cast<double>(a0[2 * as + j]) *
            static_cast<double>(b0[2 * bs + j]);
    acc3 += static_cast<double>(a0[3 * as + j]) *
            static_cast<double>(b0[3 * bs + j]);
  }
  out[0] = acc0;
  out[1] = acc1;
  out[2] = acc2;
  out[3] = acc3;
}

/// One operator row: dst = A·src over [b.jlo, b.jhi).
template <class View, class S = typename View::Scalar>
TEALEAF_FORCE_INLINE inline void smvp_row(const View& A, const Field<S>& src,
                                          Field<S>& dst, const Bounds& b, int k,
                                          int l) {
  for (int j = b.jlo; j < b.jhi; ++j) dst(j, k, l) = A.apply(src, j, k, l);
}

/// One operator row with the dot folded in: dst = A·src over
/// [b.jlo, b.jhi), returning the interior part of Σ src·dst (0.0 when row
/// (l,k) is outside the interior).  src and dst must be distinct fields.
/// The operator store and the dot run as separate j-loops: with the
/// interior test inside one loop, the store does not vectorize.  The dot
/// reads back the stored values in ascending j, so the sum is bitwise the
/// fused loop's.
template <class View, class S = typename View::Scalar>
TEALEAF_FORCE_INLINE inline double smvp_dot_row(const View& A,
                                                const Field<S>& src,
                                                Field<S>& dst, const Bounds& b,
                                                const Bounds& in, int k,
                                                int l) {
  smvp_row(A, src, dst, b, k, l);
  if (!in.contains(0, k, l)) return 0.0;
  return dot_span(src, dst, std::max(b.jlo, in.jlo), std::min(b.jhi, in.jhi),
                  k, l);
}

/// One Chronopoulos-Gear operator row: writes the pair (Σ other·src,
/// Σ dst·src).  The operator apply and the dot products run as separate
/// j-loops over the row (still in L1 for the second loop): a single loop
/// carrying two fp64 reductions does not vectorize, and was slower than
/// separate smvp + dot + dot sweeps.  Each sum still accumulates in
/// ascending j.
template <class View, class S = typename View::Scalar>
TEALEAF_FORCE_INLINE inline void smvp_dot2_row(const View& A,
                                               const Field<S>& src,
                                               Field<S>& dst,
                                               const Field<S>& other,
                                               const Bounds& b,
                                               const Bounds& in, int k, int l,
                                               double* pair_out) {
  for (int j = b.jlo; j < b.jhi; ++j) dst(j, k, l) = A.apply(src, j, k, l);
  double dot_other = 0.0;
  double dot_dst = 0.0;
  if (k >= in.klo && k < in.khi && l >= in.llo && l < in.lhi) {
    const int j1 = std::min(b.jhi, in.jhi);
    for (int j = std::max(b.jlo, in.jlo); j < j1; ++j) {
      const double sv = static_cast<double>(src(j, k, l));
      dot_other += static_cast<double>(other(j, k, l)) * sv;
      dot_dst += static_cast<double>(dst(j, k, l)) * sv;
    }
  }
  pair_out[0] = dot_other;
  pair_out[1] = dot_dst;
}

/// One row of the CG update u += α·p, r −= α·w.
template <class S>
TEALEAF_FORCE_INLINE inline void cg_calc_ur_row(Chunk& c, double alpha, int k,
                                                int l) {
  auto& u = c.field_t<S>(FieldId::kU);
  auto& r = c.field_t<S>(FieldId::kR);
  const auto& p = c.field_t<S>(FieldId::kP);
  const auto& w = c.field_t<S>(FieldId::kW);
  const S a = static_cast<S>(alpha);
  for (int j = 0; j < c.nx(); ++j) {
    u(j, k, l) += a * p(j, k, l);
    r(j, k, l) -= a * w(j, k, l);
  }
}

/// One row of the fused CG update + ⟨r,z⟩ for the local preconditioners.
template <class View>
TEALEAF_FORCE_INLINE inline double calc_ur_dot_row(Chunk& c, const View& A,
                                                   double alpha, bool diag,
                                                   int k, int l) {
  using S = typename View::Scalar;
  auto& u = c.field_t<S>(FieldId::kU);
  auto& r = c.field_t<S>(FieldId::kR);
  const auto& p = c.field_t<S>(FieldId::kP);
  const auto& w = c.field_t<S>(FieldId::kW);
  const S a = static_cast<S>(alpha);
  if constexpr (std::is_same_v<S, double>) {
    double acc = 0.0;
    if (diag) {
      auto& z = c.field_t<S>(FieldId::kZ);  // unallocated without a precon
      for (int j = 0; j < c.nx(); ++j) {
        u(j, k, l) += a * p(j, k, l);
        const S rv = r(j, k, l) - a * w(j, k, l);
        r(j, k, l) = rv;
        const S zv = rv / A.diag(j, k, l);
        z(j, k, l) = zv;
        acc += static_cast<double>(rv) * static_cast<double>(zv);
      }
    } else {
      for (int j = 0; j < c.nx(); ++j) {
        u(j, k, l) += a * p(j, k, l);
        const S rv = r(j, k, l) - a * w(j, k, l);
        r(j, k, l) = rv;
        acc += static_cast<double>(rv) * static_cast<double>(rv);
      }
    }
    return acc;
  } else {
    // fp32: the update stores, then the fp64 dot over the stored values
    // in ascending j — bitwise the fused loop's sum (see
    // jacobi_update_row for why the loops are split).
    if (!diag) {
      cg_calc_ur_row<S>(c, alpha, k, l);
      return dot_row(r, r, c.nx(), k, l);
    }
    auto& z = c.field_t<S>(FieldId::kZ);
    for (int j = 0; j < c.nx(); ++j) {
      u(j, k, l) += a * p(j, k, l);
      r(j, k, l) -= a * w(j, k, l);
      z(j, k, l) = r(j, k, l) / A.diag(j, k, l);
    }
    return dot_row(r, z, c.nx(), k, l);
  }
}

/// One row of the pointwise Chronopoulos-Gear update.  One j-loop per
/// field: a single loop over all six fields did not vectorize and was
/// slower than the separate vector kernels it replaces.  Per-cell
/// arithmetic is unchanged.
template <class View>
TEALEAF_FORCE_INLINE inline void cg_chrono_update_row(Chunk& c, const View& A,
                                                      double alpha, double beta,
                                                      bool diag, bool local,
                                                      int k, int l) {
  using S = typename View::Scalar;
  auto& u = c.field_t<S>(FieldId::kU);
  auto& r = c.field_t<S>(FieldId::kR);
  auto& p = c.field_t<S>(FieldId::kP);
  auto& sd = c.field_t<S>(FieldId::kSd);
  auto& z = c.field_t<S>(FieldId::kZ);
  const auto& w = c.field_t<S>(FieldId::kW);
  const S a = static_cast<S>(alpha);
  const S bt = static_cast<S>(beta);
  const int nx = c.nx();
  for (int j = 0; j < nx; ++j) p(j, k, l) = z(j, k, l) + bt * p(j, k, l);
  for (int j = 0; j < nx; ++j) sd(j, k, l) = w(j, k, l) + bt * sd(j, k, l);
  for (int j = 0; j < nx; ++j) u(j, k, l) += a * p(j, k, l);
  for (int j = 0; j < nx; ++j) r(j, k, l) -= a * sd(j, k, l);
  if (!local) return;
  if (diag) {
    for (int j = 0; j < nx; ++j) z(j, k, l) = r(j, k, l) / A.diag(j, k, l);
  } else {
    for (int j = 0; j < nx; ++j) z(j, k, l) = r(j, k, l);
  }
}

/// One row of the Jacobi save phase (r = u, halo columns included).
template <class S>
TEALEAF_FORCE_INLINE inline void jacobi_save_row(Chunk& c, int k, int l) {
  auto& r = c.field_t<S>(FieldId::kR);
  const auto& u = c.field_t<S>(FieldId::kU);
  for (int j = -1; j < c.nx() + 1; ++j) r(j, k, l) = u(j, k, l);
}

/// The fp32 Jacobi update store of row (l, k):
/// u = (u0 + Σ positive couplings · r) / diag.
template <class View>
TEALEAF_FORCE_INLINE inline void jacobi_store_row(Chunk& c, const View& A,
                                                  int k, int l) {
  using S = typename View::Scalar;
  auto& u = c.field_t<S>(FieldId::kU);
  const auto& r = c.field_t<S>(FieldId::kR);
  const auto& u0 = c.field_t<S>(FieldId::kU0);
  for (int j = 0; j < c.nx(); ++j) {
    u(j, k, l) = A.neigh_plus(u0(j, k, l), r, j, k, l) / A.diag(j, k, l);
  }
}

/// Σ|a − b| over row (l, k), in double and ascending j.
template <class S>
TEALEAF_FORCE_INLINE inline double abs_diff_row(const Field<S>& a,
                                                const Field<S>& b, int nx,
                                                int k, int l) {
  double acc = 0.0;
  for (int j = 0; j < nx; ++j) {
    acc += std::fabs(static_cast<double>(a(j, k, l)) -
                     static_cast<double>(b(j, k, l)));
  }
  return acc;
}

/// abs_diff_row of rows k..k+3 of plane l into out[0..3], one accumulator
/// a row, so each sum is bitwise abs_diff_row's (as dot_span4).
template <class S>
TEALEAF_FORCE_INLINE inline void abs_diff_row4(const Field<S>& a,
                                               const Field<S>& b, int nx,
                                               int k, int l, double* out) {
  const S* a0 = &a(0, k, l);
  const S* b0 = &b(0, k, l);
  const std::int64_t as = a.stride();
  const std::int64_t bs = b.stride();
  double acc0 = 0.0;
  double acc1 = 0.0;
  double acc2 = 0.0;
  double acc3 = 0.0;
  for (int j = 0; j < nx; ++j) {
    acc0 += std::fabs(static_cast<double>(a0[j]) -
                      static_cast<double>(b0[j]));
    acc1 += std::fabs(static_cast<double>(a0[as + j]) -
                      static_cast<double>(b0[bs + j]));
    acc2 += std::fabs(static_cast<double>(a0[2 * as + j]) -
                      static_cast<double>(b0[2 * bs + j]));
    acc3 += std::fabs(static_cast<double>(a0[3 * as + j]) -
                      static_cast<double>(b0[3 * bs + j]));
  }
  out[0] = acc0;
  out[1] = acc1;
  out[2] = acc2;
  out[3] = acc3;
}

/// One row of the Jacobi update sweep; returns Σ|u_new − u_old|.
template <class View>
TEALEAF_FORCE_INLINE inline double jacobi_update_row(Chunk& c, const View& A,
                                                     int k, int l) {
  using S = typename View::Scalar;
  auto& u = c.field_t<S>(FieldId::kU);
  const auto& r = c.field_t<S>(FieldId::kR);
  const auto& u0 = c.field_t<S>(FieldId::kU0);
  if constexpr (std::is_same_v<S, double>) {
    double err = 0.0;
    for (int j = 0; j < c.nx(); ++j) {
      const S uv = A.neigh_plus(u0(j, k, l), r, j, k, l) / A.diag(j, k, l);
      u(j, k, l) = uv;
      err += std::fabs(uv - r(j, k, l));
    }
    return err;
  } else {
    // fp32: run the update store and the error reduction as separate
    // j-loops.  Per-element arithmetic and the accumulation order are
    // unchanged (same values in the same order as the fused form), but a
    // single loop mixing fp32 compute with the fp64 error accumulator
    // defeats the vectorizer — the scalar divss sweep was SLOWER than
    // fp64.  The double path keeps its fused single pass, which already
    // vectorizes and would pay a second pass over the row for nothing.
    jacobi_store_row(c, A, k, l);
    return abs_diff_row(u, r, c.nx(), k, l);
  }
}

/// One row of the Chebyshev update (shared by the in-tile pass and the
/// deferred edge pass).
template <class View, class S = typename View::Scalar>
TEALEAF_FORCE_INLINE inline void cheby_update_row(const View& A, Field<S>& res,
                                                  Field<S>& dir, Field<S>& acc,
                                                  const Field<S>& w,
                                                  double alpha, double beta,
                                                  bool diag_precon,
                                                  const Bounds& b, int k,
                                                  int l) {
  const S a = static_cast<S>(alpha);
  const S bt = static_cast<S>(beta);
  // One loop per preconditioner: a select inside the loop keeps it from
  // vectorizing.  Without jac_diag m⁻¹ = 1, so bt·res is bt·m⁻¹·res bit
  // for bit.
  if (diag_precon) {
    for (int j = b.jlo; j < b.jhi; ++j) {
      res(j, k, l) -= w(j, k, l);
      const S m_inv = S(1) / A.diag(j, k, l);
      dir(j, k, l) = a * dir(j, k, l) + bt * m_inv * res(j, k, l);
      acc(j, k, l) += dir(j, k, l);
    }
    return;
  }
  for (int j = b.jlo; j < b.jhi; ++j) {
    res(j, k, l) -= w(j, k, l);
    dir(j, k, l) = a * dir(j, k, l) + bt * res(j, k, l);
    acc(j, k, l) += dir(j, k, l);
  }
}

// ---- operator-dispatched kernel bodies -----------------------------------

template <class View, class S = typename View::Scalar>
TEALEAF_FORCE_INLINE inline double smvp_dot_impl(Chunk& c, const View& A,
                                                 const Field<S>& src,
                                                 Field<S>& dst,
                                                 const Bounds& b) {
  const Bounds in = interior_bounds(c);
  double acc = 0.0;
  for_rows(b, [&](int l, int k) TEALEAF_FORCE_INLINE {
    acc += smvp_dot_row(A, src, dst, b, in, k, l);
  });
  return acc;
}

template <class View>
TEALEAF_FORCE_INLINE inline double calc_residual_impl(Chunk& c, const View& A) {
  using S = typename View::Scalar;
  const auto& u = c.field_t<S>(FieldId::kU);
  const auto& u0 = c.field_t<S>(FieldId::kU0);
  auto& w = c.field_t<S>(FieldId::kW);
  auto& r = c.field_t<S>(FieldId::kR);
  double acc = 0.0;
  for_rows(interior_bounds(c), [&](int l, int k) TEALEAF_FORCE_INLINE {
    for (int j = 0; j < c.nx(); ++j) {
      const S wv = A.apply(u, j, k, l);
      w(j, k, l) = wv;
      const S rv = u0(j, k, l) - wv;
      r(j, k, l) = rv;
      acc += static_cast<double>(rv) * static_cast<double>(rv);
    }
  });
  return acc;
}

template <class View, class S = typename View::Scalar>
TEALEAF_FORCE_INLINE inline void cheby_init_dir_impl(Chunk& c, const View& A,
                                                     const Field<S>& res,
                                                     Field<S>& dir,
                                                     double theta,
                                                     bool diag_precon,
                                                     const Bounds& b) {
  (void)c;
  const S theta_inv = static_cast<S>(1.0 / theta);
  // One loop per preconditioner, as in cheby_update_row.
  for_rows(b, [&](int l, int k) TEALEAF_FORCE_INLINE {
    if (diag_precon) {
      for (int j = b.jlo; j < b.jhi; ++j) {
        const S m_inv = S(1) / A.diag(j, k, l);
        dir(j, k, l) = m_inv * res(j, k, l) * theta_inv;
      }
      return;
    }
    for (int j = b.jlo; j < b.jhi; ++j) {
      dir(j, k, l) = res(j, k, l) * theta_inv;
    }
  });
}

template <class View, class S = typename View::Scalar>
TEALEAF_FORCE_INLINE inline void cheby_step_tile_impl(Chunk& c, const View& A,
                                                      Field<S>& res,
                                                      Field<S>& dir,
                                                      Field<S>& acc,
                                                      double alpha, double beta,
                                                      PreconType precon,
                                                      const Bounds& b,
                                                      const Bounds& tb) {
  // Two sweeps: w = A·dir over the tile, then the update.  A row-lagged
  // single sweep (update row k−1 as soon as w row k is in place) computes
  // the same cells but ran 2–5× slower on one x86-64 core.
  auto& w = c.field_t<S>(FieldId::kW);
  for_rows(tb, [&](int l, int k) TEALEAF_FORCE_INLINE {
    for (int j = b.jlo; j < b.jhi; ++j) w(j, k, l) = A.apply(dir, j, k, l);
  });
  // A neighbouring block's stencil reads dir rows tb.klo and tb.khi−1, so
  // those keep their pristine values until every block's stencil sweep is
  // done (team barrier); cheby_step_tile_edges then finishes them.  Any
  // other operator's reach spans rows or planes of other tiles, and the
  // strip solve reads every row of the tile, so their whole update defers
  // to the edge pass.
  if constexpr (View::kInTileUpdate) {
    if (precon == PreconType::kJacobiBlock) return;
    const bool diag = (precon == PreconType::kJacobiDiag);
    for (int k = tb.klo + 1; k < tb.khi - 1; ++k) {
      cheby_update_row(A, res, dir, acc, w, alpha, beta, diag, b, k, 0);
    }
  }
}

template <class View, class S = typename View::Scalar>
TEALEAF_FORCE_INLINE inline void cheby_step_tile_edges_impl(Chunk& c,
                                                            const View& A,
                                                            Field<S>& res,
                                                            Field<S>& dir,
                                                            Field<S>& acc,
                                                            double alpha,
                                                            double beta,
                                                            bool diag_precon,
                                                            const Bounds& b,
                                                            const Bounds& tb) {
  auto& w = c.field_t<S>(FieldId::kW);
  if constexpr (View::kInTileUpdate) {
    if (tb.khi <= tb.klo) return;
    cheby_update_row(A, res, dir, acc, w, alpha, beta, diag_precon, b,
                     tb.klo, 0);
    if (tb.khi - 1 > tb.klo) {
      cheby_update_row(A, res, dir, acc, w, alpha, beta, diag_precon, b,
                       tb.khi - 1, 0);
    }
  } else {
    for_rows(tb, [&](int l, int k) TEALEAF_FORCE_INLINE {
      cheby_update_row(A, res, dir, acc, w, alpha, beta, diag_precon, b, k,
                       l);
    });
  }
}

template <class View>
TEALEAF_FORCE_INLINE inline void jacobi_tile_impl(Chunk& c, const View& A,
                                                  const Bounds& tb,
                                                  double* row_sums) {
  using S = typename View::Scalar;
  // Save phase: the tile's rows plus the halo rows and planes its boundary
  // position uniquely owns, so the union over all tiles is exactly the
  // halo-extended set the update stencils read.
  const int s0 = (tb.klo == 0) ? -1 : tb.klo;
  const int s1 = (tb.khi == c.ny()) ? c.ny() + 1 : tb.khi;
  for (int l = tb.llo; l < tb.lhi; ++l) {
    for (int k = s0; k < s1; ++k) jacobi_save_row<S>(c, k, l);
    if (c.dims() == 3 && l == 0) {
      for (int k = tb.klo; k < tb.khi; ++k) jacobi_save_row<S>(c, k, -1);
    }
    if (c.dims() == 3 && l == c.nz() - 1) {
      for (int k = tb.klo; k < tb.khi; ++k) jacobi_save_row<S>(c, k, c.nz());
    }
  }
  // Update phase, as a second sweep over the tile: lagging the update one
  // row behind the saves in the same loop computes the same values, but
  // that one-loop form of the Chebyshev step ran 2–5× slower.  On the 2-D
  // stencil the stencils of rows tb.klo+1 … tb.khi−2 read only this
  // tile's saves; the edge rows wait for the neighbouring blocks' saves
  // (team barrier, then jacobi_tile_edges).  Other operators read rows or
  // planes of other tiles, so every update defers.
  if constexpr (View::kInTileUpdate) {
    int k = tb.klo + 1;
    if constexpr (std::is_same_v<S, float>) {
      // fp32: four rows' stores, then their error sums side by side.  One
      // row's sum is a chain of dependent adds; four chains overlap.  A
      // store reads only saved rows, so it may run before the sums of the
      // rows above it.
      const auto& u = c.field_t<S>(FieldId::kU);
      const auto& r = c.field_t<S>(FieldId::kR);
      for (; k + 4 <= tb.khi - 1; k += 4) {
        for (int i = 0; i < 4; ++i) jacobi_store_row(c, A, k + i, 0);
        abs_diff_row4(u, r, c.nx(), k, 0, row_sums + k);
      }
    }
    for (; k < tb.khi - 1; ++k) row_sums[k] = jacobi_update_row(c, A, k, 0);
  } else {
    (void)A;
    (void)row_sums;
  }
}

template <class View>
TEALEAF_FORCE_INLINE inline void jacobi_tile_edges_impl(Chunk& c, const View& A,
                                                        const Bounds& tb,
                                                        double* row_sums) {
  if constexpr (View::kInTileUpdate) {
    if (tb.khi <= tb.klo) return;
    row_sums[tb.klo] = jacobi_update_row(c, A, tb.klo, 0);
    if (tb.khi - 1 > tb.klo) {
      row_sums[tb.khi - 1] = jacobi_update_row(c, A, tb.khi - 1, 0);
    }
  } else {
    for_rows(tb, [&](int l, int k) TEALEAF_FORCE_INLINE {
      row_sums[l * c.ny() + k] = jacobi_update_row(c, A, k, l);
    });
  }
}

template <int Dims>
void init_conduction_impl(Chunk& c, Coefficient coef, double rx, double ry,
                          double rz) {
  auto& kx = c.kx();
  auto& ky = c.ky();
  const auto& density = c.density();
  const int h = c.halo_depth();
  kx.fill(0.0);
  ky.fill(0.0);

  const auto face_coeff = [&](int ja, int ka, int la, int jb, int kb,
                              int lb) {
    const double da = density(ja, ka, la);
    const double db = density(jb, kb, lb);
    const double ca = (coef == Coefficient::kConductivity) ? da : 1.0 / da;
    const double cb = (coef == Coefficient::kConductivity) ? db : 1.0 / db;
    // Upstream tea_leaf_common_init: (Ka+Kb)/(2·Ka·Kb) — the reciprocal
    // of the harmonic mean, keeping flux continuous across the face.
    return (ca + cb) / (2.0 * ca * cb);
  };

  // Planes covered by the x/y face builds: the full z halo where a z
  // neighbour exists (extended sweeps read Kx/Ky through the overlap),
  // the interior slab otherwise.  2-D chunks have the single degenerate
  // plane.
  const int llo =
      (Dims == 3) ? (c.at_boundary(Face::kBack) ? 0 : -h) : 0;
  const int lhi =
      (Dims == 3) ? (c.at_boundary(Face::kFront) ? c.nz() : c.nz() + h) : 1;

  // Face index j couples cells (j-1,k,l) and (j,k,l).  Faces on the
  // physical boundary are skipped and stay zero (Neumann condition);
  // faces between chunks use the density halo, which the driver exchanges
  // to full depth beforehand.
  const int jlo_x = c.at_boundary(Face::kLeft) ? 1 : -h + 1;
  const int jhi_x = c.at_boundary(Face::kRight) ? c.nx() : c.nx() + h;
  const int klo_x = c.at_boundary(Face::kBottom) ? 0 : -h;
  const int khi_x = c.at_boundary(Face::kTop) ? c.ny() : c.ny() + h;
  for (int l = llo; l < lhi; ++l)
    for (int k = klo_x; k < khi_x; ++k)
      for (int j = jlo_x; j < jhi_x; ++j)
        kx(j, k, l) = rx * face_coeff(j - 1, k, l, j, k, l);

  const int jlo_y = c.at_boundary(Face::kLeft) ? 0 : -h;
  const int jhi_y = c.at_boundary(Face::kRight) ? c.nx() : c.nx() + h;
  const int klo_y = c.at_boundary(Face::kBottom) ? 1 : -h + 1;
  const int khi_y = c.at_boundary(Face::kTop) ? c.ny() : c.ny() + h;
  for (int l = llo; l < lhi; ++l)
    for (int k = klo_y; k < khi_y; ++k)
      for (int j = jlo_y; j < jhi_y; ++j)
        ky(j, k, l) = ry * face_coeff(j, k - 1, l, j, k, l);

  if constexpr (Dims == 3) {
    auto& kz = c.kz();
    kz.fill(0.0);
    // Face index l couples cells (j,k,l-1) and (j,k,l).
    const int llo_z = c.at_boundary(Face::kBack) ? 1 : -h + 1;
    const int lhi_z = c.at_boundary(Face::kFront) ? c.nz() : c.nz() + h;
    for (int l = llo_z; l < lhi_z; ++l)
      for (int k = klo_x; k < khi_x; ++k)
        for (int j = jlo_y; j < jhi_y; ++j)
          kz(j, k, l) = rz * face_coeff(j, k, l - 1, j, k, l);
  } else {
    (void)rz;
  }
}

}  // namespace

const char* vector_isa() {
#if TEALEAF_KERNEL_CLONES
  return bound_isa();
#else
  return "baseline";
#endif
}

double diag_at(const Chunk& c, int j, int k, int l) {
  double d = 0.0;
  op_dispatch(c, [&](const auto& A) {
    d = static_cast<double>(A.diag(j, k, l));
  });
  return d;
}

void init_u_u0(Chunk& c) {
  auto& u = c.u();
  auto& u0 = c.u0();
  const auto& density = c.density();
  const auto& energy = c.energy();
  const int h = c.halo_depth();
  const int hz = (c.dims() == 3) ? h : 0;
  // Fill the halo-extended region too: the first operator application
  // (residual bootstrap) happens before any halo exchange of u in the
  // driver, and extended sweeps may read u in the overlap.
  for (int l = -hz; l < c.nz() + hz; ++l) {
    for (int k = -h; k < c.ny() + h; ++k) {
      for (int j = -h; j < c.nx() + h; ++j) {
        const double t = energy(j, k, l) * density(j, k, l);
        u(j, k, l) = t;
        u0(j, k, l) = t;
      }
    }
  }
  // The work vectors the chunk holds start at zero; one it does not hold
  // is empty, and its fill does nothing.
  for (const FieldId f : {FieldId::kP, FieldId::kR, FieldId::kW, FieldId::kZ,
                          FieldId::kSd, FieldId::kRtemp}) {
    c.field(f).fill(0.0);
  }
}

void init_conduction(Chunk& c, Coefficient coef, double rx, double ry,
                     double rz) {
  if (c.dims() == 3) {
    init_conduction_impl<3>(c, coef, rx, ry, rz);
  } else {
    init_conduction_impl<2>(c, coef, rx, ry, rz);
  }
}

TEALEAF_CLONES void smvp(Chunk& c, FieldId src_id, FieldId dst_id,
                         const Bounds& b) {
  op_dispatch(c, [&](const auto& A) TEALEAF_FORCE_INLINE {
    using S = typename std::decay_t<decltype(A)>::Scalar;
    const auto& src = c.field_t<S>(src_id);
    auto& dst = c.field_t<S>(dst_id);
    for_rows(b, [&](int l, int k) TEALEAF_FORCE_INLINE {
      for (int j = b.jlo; j < b.jhi; ++j) dst(j, k, l) = A.apply(src, j, k, l);
    });
  });
}

TEALEAF_CLONES double smvp_dot(Chunk& c, FieldId src_id, FieldId dst_id,
                               const Bounds& b) {
  TEA_ASSERT(src_id != dst_id, "smvp_dot: src and dst must be distinct");
  double acc = 0.0;
  op_dispatch(c, [&](const auto& A) TEALEAF_FORCE_INLINE {
    using S = typename std::decay_t<decltype(A)>::Scalar;
    const auto& src = c.field_t<S>(src_id);
    auto& dst = c.field_t<S>(dst_id);
    acc = smvp_dot_impl(c, A, src, dst, b);
  });
  return acc;
}

TEALEAF_CLONES void copy(Chunk& c, FieldId dst_id, FieldId src_id,
                         const Bounds& b) {
  scalar_dispatch(c, [&](auto tag) TEALEAF_FORCE_INLINE {
    using S = decltype(tag);
    const auto& src = c.field_t<S>(src_id);
    auto& dst = c.field_t<S>(dst_id);
    for_rows(b, [&](int l, int k) TEALEAF_FORCE_INLINE {
      for (int j = b.jlo; j < b.jhi; ++j) dst(j, k, l) = src(j, k, l);
    });
  });
}

TEALEAF_CLONES void axpy(Chunk& c, FieldId y_id, double a, FieldId x_id,
                         const Bounds& b) {
  scalar_dispatch(c, [&](auto tag) TEALEAF_FORCE_INLINE {
    using S = decltype(tag);
    auto& y = c.field_t<S>(y_id);
    const auto& x = c.field_t<S>(x_id);
    const S av = static_cast<S>(a);
    for_rows(b, [&](int l, int k) TEALEAF_FORCE_INLINE {
      for (int j = b.jlo; j < b.jhi; ++j) y(j, k, l) += av * x(j, k, l);
    });
  });
}

TEALEAF_CLONES void xpby(Chunk& c, FieldId y_id, FieldId x_id, double bcoef,
                         const Bounds& b) {
  scalar_dispatch(c, [&](auto tag) TEALEAF_FORCE_INLINE {
    using S = decltype(tag);
    auto& y = c.field_t<S>(y_id);
    const auto& x = c.field_t<S>(x_id);
    const S bv = static_cast<S>(bcoef);
    for_rows(b, [&](int l, int k) TEALEAF_FORCE_INLINE {
      for (int j = b.jlo; j < b.jhi; ++j)
        y(j, k, l) = x(j, k, l) + bv * y(j, k, l);
    });
  });
}

double dot(const Chunk& c, FieldId a_id, FieldId b_id) {
  double acc = 0.0;
  scalar_dispatch(c, [&](auto tag) {
    using S = decltype(tag);
    const auto& a = c.field_t<S>(a_id);
    const auto& b = c.field_t<S>(b_id);
    for_rows(interior_bounds(c),
             [&](int l, int k) { acc += dot_row(a, b, c.nx(), k, l); });
  });
  return acc;
}

double norm2_sq(const Chunk& c, FieldId f_id) { return dot(c, f_id, f_id); }

double calc_residual(Chunk& c) {
  double acc = 0.0;
  op_dispatch(c, [&](const auto& A) { acc = calc_residual_impl(c, A); });
  return acc;
}

TEALEAF_CLONES void cheby_init_dir(Chunk& c, FieldId res_id, FieldId dir_id,
                                   double theta, PreconType precon,
                                   const Bounds& b) {
  if (precon == PreconType::kJacobiBlock) {
    block_jacobi_solve(c, res_id, FieldId::kW, b);
    res_id = FieldId::kW;
  }
  const bool diag = (precon == PreconType::kJacobiDiag);
  op_dispatch(c, [&](const auto& A) TEALEAF_FORCE_INLINE {
    using S = typename std::decay_t<decltype(A)>::Scalar;
    const auto& res = c.field_t<S>(res_id);
    auto& dir = c.field_t<S>(dir_id);
    cheby_init_dir_impl(c, A, res, dir, theta, diag, b);
  });
}

// ---- row-blocked (tiled) kernels -----------------------------------------

// The row dots run four rows at a time on stencil chunks.  Assembled
// (CSR) chunks keep one row at a time: grouped, the mixed CSR pipe solve
// read 3-5% slower (docs/benchmarks.md, "Small solves on the threads they
// can use").

void dot_rows(const Chunk& c, FieldId a_id, FieldId b_id, const Bounds& tb,
              double* row_sums) {
  const bool grouped = c.op_kind() == OperatorKind::kStencil;
  scalar_dispatch(c, [&](auto tag) {
    using S = decltype(tag);
    const auto& a = c.field_t<S>(a_id);
    const auto& b = c.field_t<S>(b_id);
    for (int l = tb.llo; l < tb.lhi; ++l) {
      int k = tb.klo;
      if (grouped) {
        for (; k + 4 <= tb.khi; k += 4) {
          dot_span4(a, b, 0, c.nx(), k, l, row_sums + l * c.ny() + k);
        }
      }
      for (; k < tb.khi; ++k) {
        row_sums[l * c.ny() + k] = dot_row(a, b, c.nx(), k, l);
      }
    }
  });
}

TEALEAF_CLONES void smvp_dot_rows(Chunk& c, FieldId src_id, FieldId dst_id,
                                  const Bounds& b, const Bounds& tb,
                                  double* row_sums) {
  TEA_ASSERT(src_id != dst_id, "smvp_dot_rows: src and dst must be distinct");
  const Bounds in = interior_bounds(c);
  const int j0 = std::max(b.jlo, in.jlo);
  const int j1 = std::min(b.jhi, in.jhi);
  op_dispatch(c, [&](const auto& A) TEALEAF_FORCE_INLINE {
    using View = std::decay_t<decltype(A)>;
    using S = typename View::Scalar;
    const auto& src = c.field_t<S>(src_id);
    auto& dst = c.field_t<S>(dst_id);
    const int group = std::is_same_v<View, CsrViewT<S>> ? 1 : 4;
    // Store up to `group` rows, then their dots: four interior rows in
    // one dot_span4, any other row alone.  One store loop serves both:
    // with a copy of it per case GCC ran out of inlining budget and
    // called the stencil's apply per cell (5x slower on 3-D chunks).
    for (int l = tb.llo; l < tb.lhi; ++l) {
      for (int k = tb.klo; k < tb.khi; k += group) {
        const int n = std::min(group, tb.khi - k);
        for (int i = 0; i < n; ++i) smvp_row(A, src, dst, b, k + i, l);
        if (n == 4 && in.contains(0, k, l) && in.contains(0, k + 3, l)) {
          dot_span4(src, dst, j0, j1, k, l, row_sums + l * c.ny() + k);
          continue;
        }
        for (int i = 0; i < n; ++i) {
          if (in.contains(0, k + i, l)) {
            row_sums[l * c.ny() + k + i] =
                dot_span(src, dst, j0, j1, k + i, l);
          }
        }
      }
    }
  });
}

TEALEAF_CLONES void smvp_dot2_rows(Chunk& c, FieldId src_id, FieldId dst_id,
                                   FieldId other_id, const Bounds& b,
                                   const Bounds& tb, double* row_sums) {
  const Bounds in = interior_bounds(c);
  op_dispatch(c, [&](const auto& A) TEALEAF_FORCE_INLINE {
    using S = typename std::decay_t<decltype(A)>::Scalar;
    const auto& src = c.field_t<S>(src_id);
    const auto& other = c.field_t<S>(other_id);
    auto& dst = c.field_t<S>(dst_id);
    for_rows(tb, [&](int l, int k) TEALEAF_FORCE_INLINE {
      double pair[2];
      smvp_dot2_row(A, src, dst, other, b, in, k, l, pair);
      if (in.contains(0, k, l)) {
        row_sums[2 * (l * c.ny() + k)] = pair[0];
        row_sums[2 * (l * c.ny() + k) + 1] = pair[1];
      }
    });
  });
}

TEALEAF_CLONES void cg_calc_ur_rows(Chunk& c, double alpha, const Bounds& tb) {
  scalar_dispatch(c, [&](auto tag) TEALEAF_FORCE_INLINE {
    using S = decltype(tag);
    for_rows(tb, [&](int l, int k) TEALEAF_FORCE_INLINE {
      cg_calc_ur_row<S>(c, alpha, k, l);
    });
  });
}

TEALEAF_CLONES void calc_ur_dot_rows(Chunk& c, double alpha, PreconType precon,
                                     const Bounds& tb, double* row_sums) {
  if (precon == PreconType::kJacobiBlock) {
    cg_calc_ur_rows(c, alpha, tb);
    block_jacobi_solve(c, FieldId::kR, FieldId::kZ, tb);
    dot_rows(c, FieldId::kR, FieldId::kZ, tb, row_sums);
    return;
  }
  const bool diag = (precon == PreconType::kJacobiDiag);
  op_dispatch(c, [&](const auto& A) TEALEAF_FORCE_INLINE {
    for_rows(tb, [&](int l, int k) TEALEAF_FORCE_INLINE {
      row_sums[l * c.ny() + k] = calc_ur_dot_row(c, A, alpha, diag, k, l);
    });
  });
}

TEALEAF_CLONES void cg_chrono_update_rows(Chunk& c, double alpha, double beta,
                                          PreconType precon, const Bounds& tb) {
  const bool diag = (precon == PreconType::kJacobiDiag);
  const bool block = (precon == PreconType::kJacobiBlock);
  op_dispatch(c, [&](const auto& A) TEALEAF_FORCE_INLINE {
    for_rows(tb, [&](int l, int k) TEALEAF_FORCE_INLINE {
      cg_chrono_update_row(c, A, alpha, beta, diag, !block, k, l);
    });
  });
  if (block) block_jacobi_solve(c, FieldId::kR, FieldId::kZ, tb);
}

TEALEAF_CLONES void cheby_step_tile(Chunk& c, FieldId res_id, FieldId dir_id,
                                    FieldId acc_id, double alpha, double beta,
                                    PreconType precon, const Bounds& b,
                                    const Bounds& tb) {
  op_dispatch(c, [&](const auto& A) TEALEAF_FORCE_INLINE {
    using S = typename std::decay_t<decltype(A)>::Scalar;
    auto& res = c.field_t<S>(res_id);
    auto& dir = c.field_t<S>(dir_id);
    auto& acc = c.field_t<S>(acc_id);
    cheby_step_tile_impl(c, A, res, dir, acc, alpha, beta, precon, b, tb);
  });
}

TEALEAF_CLONES void cheby_step_tile_edges(Chunk& c, FieldId res_id,
                                          FieldId dir_id, FieldId acc_id,
                                          double alpha, double beta,
                                          PreconType precon, const Bounds& b,
                                          const Bounds& tb) {
  if (precon == PreconType::kJacobiBlock) {
    // The strip solve reads every row of the tile, so res −= w runs on
    // all of them first; then w = M⁻¹·res, dir = α·dir + β·w, acc += dir.
    axpy(c, res_id, -1.0, FieldId::kW, tb);
    block_jacobi_solve(c, res_id, FieldId::kW, tb);
    axpby(c, dir_id, alpha, beta, FieldId::kW, tb);
    axpy(c, acc_id, 1.0, dir_id, tb);
    return;
  }
  const bool diag = (precon == PreconType::kJacobiDiag);
  op_dispatch(c, [&](const auto& A) TEALEAF_FORCE_INLINE {
    using S = typename std::decay_t<decltype(A)>::Scalar;
    auto& res = c.field_t<S>(res_id);
    auto& dir = c.field_t<S>(dir_id);
    auto& acc = c.field_t<S>(acc_id);
    cheby_step_tile_edges_impl(c, A, res, dir, acc, alpha, beta, diag, b,
                               tb);
  });
}

TEALEAF_CLONES void jacobi_tile(Chunk& c, const Bounds& tb, double* row_sums) {
  op_dispatch(c, [&](const auto& A) TEALEAF_FORCE_INLINE {
    jacobi_tile_impl(c, A, tb, row_sums);
  });
}

TEALEAF_CLONES void jacobi_tile_edges(Chunk& c, const Bounds& tb,
                                      double* row_sums) {
  op_dispatch(c, [&](const auto& A) TEALEAF_FORCE_INLINE {
    jacobi_tile_edges_impl(c, A, tb, row_sums);
  });
}

// ---- multigrid level cores ----------------------------------------------

namespace {

/// The level cores run on the same OperatorView surface as the chunk
/// kernels: a StencilView built over the level's coefficient fields (the
/// hierarchy is always stencil-shaped — coarse operators are re-built from
/// face coefficients, never assembled).  The hierarchy stays fp64: the
/// multigrid preconditioner is double-only (an fp32 V-cycle inside an
/// fp64 outer CG is a ROADMAP follow-on).
template <class Fn>
inline void mg_dispatch(const MGOperatorView& A, Fn&& fn) {
  if (A.kz != nullptr) {
    fn(StencilView<3>(A.kx, A.ky, A.kz));
  } else {
    fn(StencilView<2>(A.kx, A.ky, nullptr));
  }
}

}  // namespace

double mg_apply_stencil(const MGOperatorView& A, const Field<double>& src,
                        int j, int k, int l) {
  double v = 0.0;
  mg_dispatch(A, [&](const auto& V) { v = V.apply(src, j, k, l); });
  return v;
}

void mg_smooth_row(const MGOperatorView& A, const Field<double>& rhs,
                   const Field<double>& old_u, Field<double>& u,
                   double omega, int k, int l) {
  mg_dispatch(A, [&](const auto& V) {
    for (int j = 0; j < A.nx; ++j) {
      const double diag = V.diag(j, k, l);
      const double r = rhs(j, k, l) - V.apply(old_u, j, k, l);
      u(j, k, l) = old_u(j, k, l) + omega * r / diag;
    }
  });
}

void mg_residual_row(const MGOperatorView& A, const Field<double>& rhs,
                     const Field<double>& u, Field<double>& res, int k,
                     int l) {
  mg_dispatch(A, [&](const auto& V) {
    for (int j = 0; j < A.nx; ++j) {
      res(j, k, l) = rhs(j, k, l) - V.apply(u, j, k, l);
    }
  });
}

void mg_restrict_row(const Field<double>& fine_res, int fnx, int fny,
                     int fnz, Field<double>& coarse_rhs,
                     Field<double>& coarse_u, int cnx, int cny, int cnz,
                     int kc, int lc) {
  // Per-axis coarsening factors: equal extents mean the axis did not
  // coarsen (single child, identity index map, no 1/2 weight).
  const bool cx = cnx < fnx;
  const bool cy = cny < fny;
  const bool cz = cnz < fnz;
  const int k0 = cy ? 2 * kc : kc;
  const int k1 = cy ? std::min(2 * kc + 1, fny - 1) : k0;
  const int l0 = cz ? 2 * lc : lc;
  const int l1 = cz ? std::min(2 * lc + 1, fnz - 1) : l0;
  const double weight =
      (cx ? 0.5 : 1.0) * (cy ? 0.5 : 1.0) * (cz ? 0.5 : 1.0);
  for (int jc = 0; jc < cnx; ++jc) {
    const int j0 = cx ? 2 * jc : jc;
    const int j1 = cx ? std::min(2 * jc + 1, fnx - 1) : j0;
    // Child accumulation in the 2-D hierarchy's order — (j0,k0), (j1,k0),
    // (j0,k1), (j1,k1) per plane — adding a term only when its axis
    // actually coarsened (a held axis has ONE child; summing its
    // duplicate index would double the restricted value, since `weight`
    // carries no 1/2 for held axes).  A fully-coarsened z-degenerate
    // level walks the same four terms in the same order as the classic
    // code, bit for bit.  Odd trailing cells in a coarsened axis still
    // aggregate singly via the duplicated j1/k1/l1 index, weighted like
    // two children — the 2-D hierarchy's convention.
    const auto plane_sum = [&](int l) {
      double s = fine_res(j0, k0, l);
      if (cx) s += fine_res(j1, k0, l);
      if (cy) {
        s += fine_res(j0, k1, l);
        if (cx) s += fine_res(j1, k1, l);
      }
      return s;
    };
    double s = plane_sum(l0);
    if (cz) s += plane_sum(l1);
    coarse_rhs(jc, kc, lc) = weight * s;
    coarse_u(jc, kc, lc) = 0.0;
  }
}

void mg_prolong_row(const Field<double>& coarse_u, int cnx, int cny,
                    int cnz, Field<double>& fine_u, int fnx, int fny,
                    int fnz, int kf, int lf) {
  const bool cx = cnx < fnx;
  const bool cy = cny < fny;
  const bool cz = cnz < fnz;
  const int kc = cy ? std::min(kf / 2, cny - 1) : kf;
  const int lc = cz ? std::min(lf / 2, cnz - 1) : lf;
  for (int jf = 0; jf < fnx; ++jf) {
    const int jc = cx ? std::min(jf / 2, cnx - 1) : jf;
    fine_u(jf, kf, lf) += coarse_u(jc, kc, lc);
  }
}

}  // namespace tealeaf::kernels
