#pragma once

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#if defined(__linux__)
#include <sys/resource.h>
#endif

#include "comm/gather.hpp"
#include "comm/sim_comm.hpp"
#include "ops/kernels.hpp"
#include "ops/sparse_matrix.hpp"
#include "util/numeric.hpp"

namespace tealeaf::testing {

/// Deterministic, decomposition-independent material: density and energy
/// are functions of the *global* cell index (smooth bands plus a hashed
/// perturbation), so any rank layout sees exactly the same problem.
inline double test_density(int gj, int gk) {
  SplitMix64 h(static_cast<std::uint64_t>(gj) * 2654435761u +
               static_cast<std::uint64_t>(gk) * 40503u + 17u);
  const double bump = 0.5 * h.next_double();
  return 1.0 + 0.5 * std::sin(0.3 * gj) * std::cos(0.2 * gk) + bump;
}

inline double test_energy(int gj, int gk) {
  return 1.0 + 0.8 * std::exp(-0.01 * ((gj - 10) * (gj - 10) +
                                       (gk - 12) * (gk - 12)));
}

/// Build a cluster over an n×n mesh, fill the material fields with the
/// deterministic test problem, exchange them and initialise u/u0/Kx/Ky —
/// ready for any solver.  `rx_ry` controls the conditioning (larger =
/// harder).
inline std::unique_ptr<SimCluster2D> make_test_problem(
    int n, int nranks, int halo_depth, double rx_ry = 4.0) {
  const GlobalMesh2D mesh(n, n, 0.0, 10.0, 0.0, 10.0);
  auto cl = std::make_unique<SimCluster2D>(mesh, nranks, halo_depth);
  cl->for_each_chunk([&](int, Chunk2D& c) {
    for (int k = 0; k < c.ny(); ++k) {
      for (int j = 0; j < c.nx(); ++j) {
        const int gj = c.extent().x0 + j;
        const int gk = c.extent().y0 + k;
        c.density()(j, k) = test_density(gj, gk);
        c.energy()(j, k) = test_energy(gj, gk);
      }
    }
  });
  cl->exchange({FieldId::kDensity, FieldId::kEnergy1}, halo_depth);
  cl->for_each_chunk([&](int, Chunk2D& c) {
    kernels::init_u_u0(c);
    kernels::init_conduction(c, kernels::Coefficient::kConductivity, rx_ry,
                             rx_ry);
  });
  cl->reset_stats();
  return cl;
}

/// Install the requested operator representation on every chunk of a
/// ready-to-solve cluster: assemble the conduction stencil to CSR so
/// run_solver exercises the assembled SpMV path, or drop back to the
/// matrix-free stencil.  This is the test-side stand-in for
/// SolveSession::prepare.
inline void install_operator(SimCluster& cl, OperatorKind op) {
  cl.for_each_chunk([&](int, Chunk& c) {
    if (op == OperatorKind::kStencil) {
      c.clear_assembled_operator();
      return;
    }
    c.set_assembled_operator(
        std::make_shared<const CsrMatrix>(assemble_from_stencil(c)));
  });
}

/// Relative residual ‖u0 − A·u‖ / ‖u0‖ over the whole cluster, computed
/// from scratch (independent of any solver-internal bookkeeping) in r and
/// w, which it allocates when the cluster lacks them.
inline double relative_residual(SimCluster2D& cl) {
  cl.allocate({.fp64 = {FieldId::kR, FieldId::kW}});
  cl.exchange({FieldId::kU}, 1);
  const double rr = cl.sum_over_chunks(
      [](int, Chunk2D& c) { return kernels::calc_residual(c); });
  const double bb = cl.sum_over_chunks([](int, const Chunk2D& c) {
    return kernels::norm2_sq(c, FieldId::kU0);
  });
  return std::sqrt(rr / bb);
}

/// Max |a − b| over the global views of a field on two clusters (either
/// dimension).
inline double max_field_diff(const SimCluster& a, const SimCluster& b,
                             FieldId id) {
  const Field<double> fa = gather_field(a, id);
  const Field<double> fb = gather_field(b, id);
  double worst = 0.0;
  for (int l = 0; l < fa.nz(); ++l)
    for (int k = 0; k < fa.ny(); ++k)
      for (int j = 0; j < fa.nx(); ++j)
        worst = std::max(worst, std::fabs(fa(j, k, l) - fb(j, k, l)));
  return worst;
}

/// A single-plane 3-D cluster carrying exactly the 2-D test problem: same
/// material per (j, k) cell, same decomposition inputs.  The slab the
/// cross-dimension equality tests (test_geometry3d, the 3-D multigrid
/// suite in test_amg) solve: Kz ≡ 0, so the 7-point operator degenerates
/// to the 5-point one and every per-iteration scalar must reproduce the
/// 2-D solver's exactly.
inline std::unique_ptr<SimCluster> make_test_problem_slab3d(
    int n, int nranks, int halo_depth, double rx_ry = 4.0) {
  const GlobalMesh mesh =
      GlobalMesh::make3d(n, n, 1, 0.0, 10.0, 0.0, 10.0, 0.0, 10.0);
  auto cl = std::make_unique<SimCluster>(mesh, nranks, halo_depth);
  cl->for_each_chunk([&](int, Chunk& c) {
    for (int k = 0; k < c.ny(); ++k) {
      for (int j = 0; j < c.nx(); ++j) {
        const int gj = c.extent().x0 + j;
        const int gk = c.extent().y0 + k;
        c.density()(j, k, 0) = test_density(gj, gk);
        c.energy()(j, k, 0) = test_energy(gj, gk);
      }
    }
  });
  cl->exchange({FieldId::kDensity, FieldId::kEnergy1}, halo_depth);
  cl->for_each_chunk([&](int, Chunk& c) {
    kernels::init_u_u0(c);
    // rz scales Kz, which is identically zero on a single plane (both z
    // faces are physical boundaries) — any value gives the same operator.
    kernels::init_conduction(c, kernels::Coefficient::kConductivity, rx_ry,
                             rx_ry, rx_ry);
  });
  cl->reset_stats();
  return cl;
}

/// 3-D companion of make_test_problem: an n³ brick with a deterministic,
/// decomposition-independent material, ready for any solver.
inline std::unique_ptr<SimCluster> make_test_problem_3d(
    int n, int nranks, int halo_depth, double rxyz = 4.0) {
  auto cl = std::make_unique<SimCluster>(
      GlobalMesh::brick3d(n, n, n, 10.0), nranks, halo_depth);
  cl->for_each_chunk([&](int, Chunk& c) {
    for (int l = 0; l < c.nz(); ++l) {
      for (int k = 0; k < c.ny(); ++k) {
        for (int j = 0; j < c.nx(); ++j) {
          const int gj = c.extent().x0 + j;
          const int gk = c.extent().y0 + k;
          const int gl = c.extent().z0 + l;
          c.density()(j, k, l) = test_density(gj, gk + 31 * gl);
          c.energy()(j, k, l) = test_energy(gj + 17 * gl, gk);
        }
      }
    }
  });
  cl->exchange({FieldId::kDensity, FieldId::kEnergy1}, halo_depth);
  cl->for_each_chunk([&](int, Chunk& c) {
    kernels::init_u_u0(c);
    kernels::init_conduction(c, kernels::Coefficient::kConductivity, rxyz,
                             rxyz, rxyz);
  });
  cl->reset_stats();
  return cl;
}

/// The fields of both banks by name, "density energy1 … | u u0 …", for
/// comparisons whose failure should say which field differs.
inline std::string field_names(const FieldBanks& banks) {
  static const char* const kNames[kNumFieldIds] = {
      "density", "energy1", "u",  "u0", "p",  "r",   "w", "z",
      "sd",      "rtemp",   "kx", "ky", "cp", "bfp", "kz"};
  std::string out;
  const auto add = [&](FieldSet set) {
    for (int i = 0; i < kNumFieldIds; ++i) {
      if (set.contains(static_cast<FieldId>(i))) {
        out += std::string(" ") + kNames[i];
      }
    }
  };
  add(banks.fp64);
  out += " |";
  add(banks.fp32);
  return out;
}

/// Where MemoryLimit works: Linux, without ASan (which aborts an oversize
/// allocation instead of throwing std::bad_alloc).
#if defined(__SANITIZE_ADDRESS__)
#define TEALEAF_TEST_LIMITS_MEMORY 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TEALEAF_TEST_LIMITS_MEMORY 0
#endif
#endif
#if !defined(TEALEAF_TEST_LIMITS_MEMORY) && defined(__linux__)
#define TEALEAF_TEST_LIMITS_MEMORY 1
#elif !defined(TEALEAF_TEST_LIMITS_MEMORY)
#define TEALEAF_TEST_LIMITS_MEMORY 0
#endif

#if TEALEAF_TEST_LIMITS_MEMORY
/// Lowers this process's data limit (RLIMIT_DATA: its private writable
/// memory, every malloc arena included) to what it holds now plus
/// `headroom` bytes until destroyed, so an allocation beyond that throws
/// std::bad_alloc without using the memory.  Start the thread team first
/// (an empty parallel_region): a new thread's stack counts.
class MemoryLimit {
 public:
  explicit MemoryLimit(std::size_t headroom) {
    std::ifstream status("/proc/self/status");
    std::string key;
    std::size_t kb = 0;
    while (status >> key && key != "VmData:") {
    }
    status >> kb;
    if (kb == 0 || getrlimit(RLIMIT_DATA, &old_) != 0) {
      throw std::runtime_error("cannot read the data size or its limit");
    }
    rlimit low = old_;
    low.rlim_cur = static_cast<rlim_t>(kb) * 1024 + headroom;
    if (old_.rlim_cur != RLIM_INFINITY) {
      low.rlim_cur = std::min(low.rlim_cur, old_.rlim_cur);
    }
    if (setrlimit(RLIMIT_DATA, &low) != 0) {
      throw std::runtime_error("setrlimit(RLIMIT_DATA) failed");
    }
  }
  ~MemoryLimit() { setrlimit(RLIMIT_DATA, &old_); }
  MemoryLimit(const MemoryLimit&) = delete;
  MemoryLimit& operator=(const MemoryLimit&) = delete;

 private:
  rlimit old_{};
};
#endif

}  // namespace tealeaf::testing
