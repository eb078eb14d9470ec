#include "amg/mg_pcg.hpp"

#include <cmath>
#include <vector>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace tealeaf {

namespace {

/// Row-ordered dot product: per-row partials land in `row_sums`, then
/// every thread sums the rows in flattened (plane, row) order — all
/// threads return the same value, whatever the thread count.
double reduce_rows(const Team& team, int nrows,
                   std::vector<double>& row_sums) {
  team.barrier();
  double total = 0.0;
  for (int row = 0; row < nrows; ++row) total += row_sums[row];
  team.barrier();  // row_sums free for the next reduction
  return total;
}

}  // namespace

MGPreconditionedCG::MGPreconditionedCG(const Field<double>& kx,
                                       const Field<double>& ky, int nx,
                                       int ny, const Options& opt)
    : nx_(nx), ny_(ny), nz_(1), opt_(opt) {
  Timer t;
  mg_ = std::make_unique<Multigrid>(kx, ky, nx, ny, opt.mg);
  setup_seconds_ = t.elapsed_s();
}

MGPreconditionedCG::MGPreconditionedCG(const Field<double>& kx,
                                       const Field<double>& ky, int nx,
                                       int ny)
    : MGPreconditionedCG(kx, ky, nx, ny, Options{}) {}

MGPreconditionedCG::MGPreconditionedCG(const Field<double>& kx,
                                       const Field<double>& ky,
                                       const Field<double>& kz, int nx,
                                       int ny, int nz, const Options& opt)
    : nx_(nx), ny_(ny), nz_(nz), opt_(opt) {
  Timer t;
  mg_ = std::make_unique<Multigrid>(kx, ky, kz, nx, ny, nz, opt.mg);
  setup_seconds_ = t.elapsed_s();
}

MGPreconditionedCG::MGPreconditionedCG(const Field<double>& kx,
                                       const Field<double>& ky,
                                       const Field<double>& kz, int nx,
                                       int ny, int nz)
    : MGPreconditionedCG(kx, ky, kz, nx, ny, nz, Options{}) {}

MGPreconditionedCG MGPreconditionedCG::from_chunk(const Chunk& chunk,
                                                  const Options& opt) {
  if (chunk.dims() == 3) {
    return MGPreconditionedCG(chunk.kx(), chunk.ky(), chunk.kz(),
                              chunk.nx(), chunk.ny(), chunk.nz(), opt);
  }
  return MGPreconditionedCG(chunk.kx(), chunk.ky(), chunk.nx(), chunk.ny(),
                            opt);
}

MGPreconditionedCG MGPreconditionedCG::from_chunk(const Chunk& chunk) {
  return from_chunk(chunk, Options{});
}

MGPCGResult MGPreconditionedCG::solve(const Field<double>& rhs,
                                      Field<double>& u) {
  TEA_REQUIRE(rhs.nx() == nx_ && rhs.ny() == ny_ && rhs.nz() == nz_,
              "rhs shape mismatch");
  TEA_REQUIRE(u.nx() == nx_ && u.ny() == ny_ && u.nz() == nz_ &&
                  u.halo() >= 1 && (mg_->dims() == 2 || u.halo_z() >= 1),
              "solution field must match the grid and carry a halo");
  Timer timer;
  MGPCGResult res;
  res.setup_seconds = setup_seconds_;

  const kernels::MGOperatorView A = mg_->level(0).op();
  const auto work_field = [&] {
    return mg_->dims() == 3 ? Field<double>::make3d(nx_, ny_, nz_, 1, 0.0)
                            : Field<double>(nx_, ny_, 1, 0.0);
  };
  Field<double> r = work_field();
  Field<double> z = work_field();
  Field<double> p = work_field();
  Field<double> w = work_field();
  const int nrows = ny_ * nz_;
  std::vector<double> row_sums(static_cast<std::size_t>(nrows), 0.0);
  const auto row_k = [this](int row) { return row % ny_; };
  const auto row_l = [this](int row) { return row / ny_; };

  // Every row loop — V-cycle smoothers included — workshares inside one
  // region around the whole solve.  All loop control derives from
  // row-ordered reductions, uniform across the team.  Breakdown cannot
  // throw from inside an OpenMP region, so it is flagged and rethrown
  // outside.
  bool breakdown = false;
  int iters = 0;
  bool converged = false;
  double final_metric = 0.0;
  parallel_region([&](const Team& team) {
    team.for_range(0, nrows, [&](int row) {
      kernels::mg_residual_row(A, rhs, u, r, row_k(row), row_l(row));
    });
    team.barrier();

    mg_->v_cycle(r, z, team);
    team.for_range(0, nrows, [&](int row) {
      const int k = row_k(row);
      const int l = row_l(row);
      double acc = 0.0;
      for (int j = 0; j < nx_; ++j) {
        p(j, k, l) = z(j, k, l);
        acc += r(j, k, l) * z(j, k, l);
      }
      row_sums[static_cast<std::size_t>(row)] = acc;
    });
    double rz = reduce_rows(team, nrows, row_sums);
    const double initial_norm = std::sqrt(std::fabs(rz));
    team.single([&] { res.initial_norm = initial_norm; });
    if (initial_norm == 0.0) {
      // Uniform branch; write the flag from one thread only.
      team.single([&] { converged = true; });
      return;
    }
    const double target = opt_.eps * initial_norm;

    double metric = rz;
    int it = 0;
    bool conv = false;
    while (it < opt_.max_iters) {
      team.for_range(0, nrows, [&](int row) {
        row_sums[static_cast<std::size_t>(row)] =
            kernels::mg_smvp_dot_row(A, p, w, row_k(row), row_l(row));
      });
      const double pw = reduce_rows(team, nrows, row_sums);
      if (!(pw > 0.0)) {
        // Uniform: every thread saw the same pw; one writes the flag.
        team.single([&] { breakdown = true; });
        break;
      }
      const double alpha = rz / pw;
      team.for_range(0, nrows, [&](int row) {
        const int k = row_k(row);
        const int l = row_l(row);
        for (int j = 0; j < nx_; ++j) {
          u(j, k, l) += alpha * p(j, k, l);
          r(j, k, l) -= alpha * w(j, k, l);
        }
      });
      team.barrier();
      mg_->v_cycle(r, z, team);
      team.for_range(0, nrows, [&](int row) {
        const int k = row_k(row);
        const int l = row_l(row);
        double acc = 0.0;
        for (int j = 0; j < nx_; ++j) acc += r(j, k, l) * z(j, k, l);
        row_sums[static_cast<std::size_t>(row)] = acc;
      });
      const double rz_new = reduce_rows(team, nrows, row_sums);
      const double beta = rz_new / rz;
      team.for_range(0, nrows, [&](int row) {
        const int k = row_k(row);
        const int l = row_l(row);
        for (int j = 0; j < nx_; ++j)
          p(j, k, l) = z(j, k, l) + beta * p(j, k, l);
      });
      team.barrier();
      rz = rz_new;
      metric = rz_new;
      ++it;
      if (std::sqrt(std::fabs(metric)) <= target) {
        conv = true;
        break;
      }
    }
    // Every thread computed the same scalars; publish from one.
    team.single([&] {
      iters = it;
      converged = conv;
      final_metric = metric;
    });
  });
  TEA_REQUIRE(!breakdown, "MG-PCG breakdown: ⟨p, A·p⟩ <= 0");
  res.iterations = iters;
  res.converged = converged;
  if (converged && iters == 0) {
    // Zero right-hand side: final_norm stays 0 like the original path.
    res.solve_seconds = timer.elapsed_s();
    return res;
  }
  res.final_norm = std::sqrt(std::fabs(final_metric));
  res.solve_seconds = timer.elapsed_s();
  return res;
}

}  // namespace tealeaf
