#include "comm/solve_trace.hpp"

namespace tealeaf {

void SolveTrace::add_kernel(Phase phase, Kernel kernel, int ext,
                            int elem_bytes) {
  for (KernelCount& e : kernels) {
    if (e.phase == phase && e.kernel == kernel && e.ext == ext &&
        e.elem_bytes == elem_bytes) {
      e.count += 1.0;
      return;
    }
  }
  kernels.push_back({phase, kernel, ext, elem_bytes, 1.0});
}

void SolveTrace::add_exchange(Phase phase, int depth, int fields,
                              int elem_bytes) {
  for (ExchangeCount& e : exchanges) {
    if (e.phase == phase && e.depth == depth && e.fields == fields &&
        e.elem_bytes == elem_bytes) {
      e.count += 1.0;
      return;
    }
  }
  exchanges.push_back({phase, depth, fields, elem_bytes, 1.0});
}

void SolveTrace::scale(Phase phase, double factor) {
  for (KernelCount& e : kernels) {
    if (e.phase == phase) e.count *= factor;
  }
  for (ExchangeCount& e : exchanges) {
    if (e.phase == phase) e.count *= factor;
  }
  reductions[static_cast<std::size_t>(phase)] *= factor;
}

}  // namespace tealeaf
