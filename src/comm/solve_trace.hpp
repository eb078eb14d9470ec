#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "ops/kernels.hpp"
#include "util/error.hpp"

namespace tealeaf {

using kernels::Kernel;

/// The phases of a solve its trace tells apart.  Projecting a run to
/// another mesh scales only kIteration.
enum class Phase : std::uint8_t {
  kSetup,      ///< everything outside the presteps and the main loop
  kPrestep,    ///< the eigenvalue-estimation CG presteps
  kIteration,  ///< the main loop
  kGuard,      ///< the mixed path's fp64 refinement guard
};
inline constexpr int kNumPhases = 4;

/// The kernels one collective's body runs, each counted as one launch
/// (at most four), and the halo extension of the pass's bounds.
class Kernels {
 public:
  Kernels() = default;
  Kernels(std::initializer_list<Kernel> list, int ext = 0) : ext_(ext) {
    TEA_ASSERT(list.size() <= list_.size(), "too many kernels in one pass");
    for (const Kernel k : list) list_[static_cast<std::size_t>(n_++)] = k;
  }
  [[nodiscard]] const Kernel* begin() const { return list_.data(); }
  [[nodiscard]] const Kernel* end() const { return list_.data() + n_; }
  [[nodiscard]] int ext() const { return ext_; }

 private:
  std::array<Kernel, 4> list_{};
  int n_ = 0;
  int ext_ = 0;
};

/// What one solve ran, as counted by the cluster that ran it: kernel
/// launches per (phase, kernel, halo extension, element size), halo
/// exchanges per (phase, depth, fields, element size) and allreduces per
/// phase.  Nothing in it depends on the rank count, so a trace recorded
/// on one decomposition prices at any other (model/scaling.hpp).
/// Counts are doubles so a projected trace can hold fractional ones.
struct SolveTrace {
  struct KernelCount {
    Phase phase;
    Kernel kernel;
    int ext;
    int elem_bytes;
    double count;
  };
  struct ExchangeCount {
    Phase phase;
    int depth;
    int fields;
    int elem_bytes;
    double count;
  };

  std::vector<KernelCount> kernels;
  std::vector<ExchangeCount> exchanges;
  std::array<double, kNumPhases> reductions{};
  /// The solve's preconditioner: a kernel's traffic can depend on it.
  PreconType precon = PreconType::kNone;
  /// Fill of an assembled operator (0 = the matrix-free stencil): its
  /// operator reads stream the stored rows.
  double nnz_per_row = 0.0;

  void add_kernel(Phase phase, Kernel kernel, int ext, int elem_bytes);
  void add_exchange(Phase phase, int depth, int fields, int elem_bytes);
  /// Multiply every count of `phase` by `factor`.
  void scale(Phase phase, double factor);
};

}  // namespace tealeaf
