#include "amg/multigrid.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace tealeaf {

namespace {

constexpr int kPreSweeps = 2;      ///< pre-smoothing sweeps
constexpr int kPostSweeps = 2;     ///< post-smoothing sweeps
constexpr double kOmega = 0.8;     ///< Jacobi damping
constexpr int kCoarseSweeps = 64;  ///< smoother sweeps on the coarsest level
constexpr int kMinCoarse = 4;      ///< per-axis coarsening floor
constexpr int kMaxLevels = 24;

MGLevel make_level(int dims, int nx, int ny, int nz) {
  MGLevel lv;
  lv.dims = dims;
  lv.nx = nx;
  lv.ny = ny;
  lv.nz = nz;
  if (dims == 3) {
    lv.u = Field<double>::make3d(nx, ny, nz, 1, 0.0);
    lv.rhs = Field<double>::make3d(nx, ny, nz, 1, 0.0);
    lv.res = Field<double>::make3d(nx, ny, nz, 1, 0.0);
    lv.kx = Field<double>::make3d(nx, ny, nz, 1, 0.0);
    lv.ky = Field<double>::make3d(nx, ny, nz, 1, 0.0);
    lv.kz = Field<double>::make3d(nx, ny, nz, 1, 0.0);
  } else {
    lv.u = Field<double>(nx, ny, 1, 0.0);
    lv.rhs = Field<double>(nx, ny, 1, 0.0);
    lv.res = Field<double>(nx, ny, 1, 0.0);
    lv.kx = Field<double>(nx, ny, 1, 0.0);
    lv.ky = Field<double>(nx, ny, 1, 0.0);
    // kz stays empty: a 2-D level is the 5-point operator.
  }
  return lv;
}

int coarsen(int n) { return (n + 1) / 2; }

}  // namespace

double Multigrid::apply_stencil(const MGLevel& lv, const Field<double>& src,
                                int j, int k, int l) {
  return kernels::mg_apply_stencil(lv.op(), src, j, k, l);
}

Multigrid::Multigrid(const Field<double>& kx_fine,
                     const Field<double>& ky_fine, int nx, int ny)
    : dims_(2) {
  build(kx_fine, ky_fine, nullptr, nx, ny, 1);
}

Multigrid::Multigrid(const Field<double>& kx_fine,
                     const Field<double>& ky_fine,
                     const Field<double>& kz_fine, int nx, int ny, int nz)
    : dims_(3) {
  TEA_REQUIRE(nz >= 1, "multigrid needs a positive z extent");
  TEA_REQUIRE(kz_fine.halo() >= 1 && kz_fine.halo_z() >= 1,
              "kz needs a z halo for the +1 face plane");
  build(kx_fine, ky_fine, &kz_fine, nx, ny, nz);
}

void Multigrid::build(const Field<double>& kx_fine,
                      const Field<double>& ky_fine,
                      const Field<double>* kz_fine, int nx, int ny, int nz) {
  TEA_REQUIRE(nx >= 2 && ny >= 2, "multigrid needs at least a 2x2 grid");
  TEA_REQUIRE(kx_fine.halo() >= 1 && ky_fine.halo() >= 1,
              "coefficient fields need a halo for the +1 face row/column");
  MGLevel fine = make_level(dims_, nx, ny, nz);
  // Copy the fine coefficients including the face at index nx/ny/nz,
  // which a halo-1 field addresses as its first ghost column/row/plane.
  for (int l = 0; l < nz; ++l) {
    for (int k = 0; k < ny; ++k)
      for (int j = 0; j <= nx; ++j) fine.kx(j, k, l) = kx_fine(j, k, l);
    for (int k = 0; k <= ny; ++k)
      for (int j = 0; j < nx; ++j) fine.ky(j, k, l) = ky_fine(j, k, l);
  }
  if (dims_ == 3) {
    for (int l = 0; l <= nz; ++l)
      for (int k = 0; k < ny; ++k)
        for (int j = 0; j < nx; ++j) fine.kz(j, k, l) = (*kz_fine)(j, k, l);
  }
  levels_.push_back(std::move(fine));

  while (static_cast<int>(levels_.size()) < kMaxLevels) {
    const MGLevel& f = levels_.back();
    // Per-axis 2:1 coarsening while the axis extent exceeds the floor
    // (odd trailing cells aggregate singly); an axis at or below the
    // floor holds, so anisotropic grids keep coarsening their long axes
    // and nz = 1 reproduces the classic 2-D level ladder exactly.
    const bool cx = f.nx > kMinCoarse;
    const bool cy = f.ny > kMinCoarse;
    const bool cz = dims_ == 3 && f.nz > kMinCoarse;
    if (!cx && !cy && !cz) break;
    const int cnx = cx ? coarsen(f.nx) : f.nx;
    const int cny = cy ? coarsen(f.ny) : f.ny;
    const int cnz = cz ? coarsen(f.nz) : f.nz;
    MGLevel c = make_level(dims_, cnx, cny, cnz);

    // Face-coefficient restriction: a coarse face sits on the fine face
    // with the same normal position; average the (up to 2 per tangential
    // coarsened axis) fine faces it spans and rescale by 1/4 per
    // coarsening of its normal axis (the doubled spacing).  The
    // z-degenerate combination is arranged so a 2-D level runs exactly
    // the classic arithmetic.
    for (int lc = 0; lc < cnz; ++lc) {
      const int l0 = cz ? 2 * lc : lc;
      const int l1 = cz ? std::min(2 * lc + 1, f.nz - 1) : l0;
      for (int kc = 0; kc < cny; ++kc) {
        const int k0 = cy ? 2 * kc : kc;
        const int k1 = cy ? std::min(2 * kc + 1, f.ny - 1) : k0;
        for (int jc = 0; jc <= cnx; ++jc) {
          const int jf = cx ? std::min(2 * jc, f.nx) : jc;
          const auto row_avg = [&](int l) {
            return cy ? 0.5 * (f.kx(jf, k0, l) + f.kx(jf, k1, l))
                      : f.kx(jf, k0, l);
          };
          double avg = row_avg(l0);
          if (cz) avg = 0.5 * (avg + row_avg(l1));
          c.kx(jc, kc, lc) = (cx ? 0.25 : 1.0) * avg;
        }
      }
    }
    for (int lc = 0; lc < cnz; ++lc) {
      const int l0 = cz ? 2 * lc : lc;
      const int l1 = cz ? std::min(2 * lc + 1, f.nz - 1) : l0;
      for (int kc = 0; kc <= cny; ++kc) {
        const int kf = cy ? std::min(2 * kc, f.ny) : kc;
        for (int jc = 0; jc < cnx; ++jc) {
          const int j0 = cx ? 2 * jc : jc;
          const int j1 = cx ? std::min(2 * jc + 1, f.nx - 1) : j0;
          const auto row_avg = [&](int l) {
            return cx ? 0.5 * (f.ky(j0, kf, l) + f.ky(j1, kf, l))
                      : f.ky(j0, kf, l);
          };
          double avg = row_avg(l0);
          if (cz) avg = 0.5 * (avg + row_avg(l1));
          c.ky(jc, kc, lc) = (cy ? 0.25 : 1.0) * avg;
        }
      }
    }
    if (dims_ == 3) {
      for (int lc = 0; lc <= cnz; ++lc) {
        const int lf = cz ? std::min(2 * lc, f.nz) : lc;
        for (int kc = 0; kc < cny; ++kc) {
          const int k0 = cy ? 2 * kc : kc;
          const int k1 = cy ? std::min(2 * kc + 1, f.ny - 1) : k0;
          for (int jc = 0; jc < cnx; ++jc) {
            const int j0 = cx ? 2 * jc : jc;
            const int j1 = cx ? std::min(2 * jc + 1, f.nx - 1) : j0;
            const auto row_avg = [&](int k) {
              return cx ? 0.5 * (f.kz(j0, k, lf) + f.kz(j1, k, lf))
                        : f.kz(j0, k, lf);
            };
            double avg = row_avg(k0);
            if (cy) avg = 0.5 * (avg + row_avg(k1));
            c.kz(jc, kc, lc) = (cz ? 0.25 : 1.0) * avg;
          }
        }
      }
    }
    levels_.push_back(std::move(c));
  }
}

void Multigrid::smooth(MGLevel& lv, int sweeps, const Team& team) {
  const kernels::MGOperatorView A = lv.op();
  for (int s = 0; s < sweeps; ++s) {
    // Damped Jacobi: u += ω·(rhs − A·u)/diag, using res as the old-u copy
    // so the sweep is a true simultaneous update.
    team.for_range(0, lv.num_rows(), [&](int row) {
      const int l = row / lv.ny;
      const int k = row % lv.ny;
      for (int j = 0; j < lv.nx; ++j) lv.res(j, k, l) = lv.u(j, k, l);
    });
    team.barrier();  // the update stencil reads res rows (k±1, l±1)
    team.for_range(0, lv.num_rows(), [&](int row) {
      kernels::mg_smooth_row(A, lv.rhs, lv.res, lv.u, kOmega,
                             row % lv.ny, row / lv.ny);
    });
    team.barrier();  // the next sweep's copy reads the updated u
  }
}

void Multigrid::compute_residual(MGLevel& lv, const Team& team) {
  const kernels::MGOperatorView A = lv.op();
  team.for_range(0, lv.num_rows(), [&](int row) {
    kernels::mg_residual_row(A, lv.rhs, lv.u, lv.res, row % lv.ny,
                             row / lv.ny);
  });
  team.barrier();
}

void Multigrid::restrict_residual(const MGLevel& fine, MGLevel& coarse,
                                  const Team& team) {
  team.for_range(0, coarse.num_rows(), [&](int row) {
    kernels::mg_restrict_row(fine.res, fine.nx, fine.ny, fine.nz,
                             coarse.rhs, coarse.u, coarse.nx, coarse.ny,
                             coarse.nz, row % coarse.ny, row / coarse.ny);
  });
  team.barrier();
}

void Multigrid::prolong_add(const MGLevel& coarse, MGLevel& fine,
                            const Team& team) {
  team.for_range(0, fine.num_rows(), [&](int row) {
    kernels::mg_prolong_row(coarse.u, coarse.nx, coarse.ny, coarse.nz,
                            fine.u, fine.nx, fine.ny, fine.nz,
                            row % fine.ny, row / fine.ny);
  });
  team.barrier();
}

void Multigrid::v_cycle(const Field<double>& rhs, Field<double>& out,
                        const Team& team) {
  MGLevel& top = levels_.front();
  TEA_REQUIRE(rhs.nx() == top.nx && rhs.ny() == top.ny &&
                  rhs.nz() == top.nz,
              "rhs shape must match the fine grid");
  team.for_range(0, top.num_rows(), [&](int row) {
    const int l = row / top.ny;
    const int k = row % top.ny;
    for (int j = 0; j < top.nx; ++j) {
      top.rhs(j, k, l) = rhs(j, k, l);
      top.u(j, k, l) = 0.0;
    }
  });
  team.barrier();

  const int nl = num_levels();
  for (int l = 0; l < nl - 1; ++l) {
    smooth(levels_[l], kPreSweeps, team);
    compute_residual(levels_[l], team);
    restrict_residual(levels_[l], levels_[l + 1], team);
  }
  smooth(levels_[nl - 1], kCoarseSweeps, team);
  for (int l = nl - 2; l >= 0; --l) {
    prolong_add(levels_[l + 1], levels_[l], team);
    smooth(levels_[l], kPostSweeps, team);
  }

  team.for_range(0, top.num_rows(), [&](int row) {
    const int l = row / top.ny;
    const int k = row % top.ny;
    for (int j = 0; j < top.nx; ++j) out(j, k, l) = top.u(j, k, l);
  });
  team.barrier();
}

}  // namespace tealeaf
