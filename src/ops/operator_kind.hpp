#pragma once

#include <string>

#include "util/error.hpp"

namespace tealeaf {

/// Which representation of the linear operator the kernels traverse.
/// `kStencil` is the classic matrix-free 5/7-point path; `kCsr` is an
/// assembled sparse matrix stored per chunk (ops/sparse_matrix),
/// dispatched through the same per-row kernel cores via OperatorView.
enum class OperatorKind : int {
  kStencil = 0,  ///< matrix-free face-coefficient stencil
  kCsr,          ///< assembled compressed-sparse-row matrix
};

[[nodiscard]] inline const char* to_string(OperatorKind op) {
  switch (op) {
    case OperatorKind::kStencil: return "stencil";
    case OperatorKind::kCsr: return "csr";
  }
  return "?";
}

[[nodiscard]] inline OperatorKind operator_kind_from_string(
    const std::string& s) {
  if (s == "stencil") return OperatorKind::kStencil;
  if (s == "csr") return OperatorKind::kCsr;
  throw TeaError("unknown operator kind '" + s + "' (expected stencil or csr)");
}

}  // namespace tealeaf
