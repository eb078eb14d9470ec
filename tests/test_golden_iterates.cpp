// Golden iterate checksums: every native solver route, pinned to values
// recorded from an earlier build rather than to another engine's output.
//
// Cross-engine tests (untiled ≡ tiled) prove consistency between tile
// heights, but the engines share one solver body, so they would agree
// even if that body changed its arithmetic.  This suite is the engine
// oracle: each cell solves a small test problem and compares a 64-bit
// FNV-1a hash of the interior `u` bit patterns, the iteration and
// operator-apply counts, and the CommStats reduction and message counts
// against the table below.
//
// Cells: solver variant × tile height {fused (tile_rows = 0, one block
// per plane), tiled b6} × geometry {2d, 3d} × operator {stencil, csr} ×
// precision {double, mixed}.  Both heights run the same tile path and
// must carry identical values; the table still lists each cell so a
// height that drifts is named.  The values were recorded from the
// retired unfused schedule, whose rows were identical.  Every cell runs
// at 1 and at 3 threads: with the 2-rank test problems that covers both
// schedules of the row reductions (each rank's owner folds its own rows,
// or a barrier precedes the fold) on any host.  Every solve stops at a
// small iteration cap: convergence is not the point, and the
// per-iteration barriers get expensive when ctest runs many threaded
// tests at once.  The cap bounds all passes of a mixed solve together,
// so the mixed cells get 150 iterations (25 for the others): enough for
// every one of them to run at least two fp32 passes.
//
// mg-pcg — classic CG preconditioned by one multigrid V-cycle — has its
// own rows (u hash and iteration count), recorded from a zero initial
// guess on the serial path of the retired standalone mg-pcg solver; the
// CG body must reproduce them at every thread count and tile height.
//
// Every route also declares the work fields its solver uses (the
// residency table of docs/architecture.md): after a fresh cluster solves,
// each bank must hold exactly the declared fields, so a solver that
// starts using another field, or a field set that grows, fails here.
//
// The values come from the repo's default x86-64 build flags (Release,
// no -march), which is what CI builds.  A build with other flags may
// contract floating-point differently (e.g. FMA under -march=native) and
// fail this suite without a solver change.  A failing cell prints the row
// it produced, in the table's format.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>

#include "comm/gather.hpp"
#include "oracle.hpp"
#include "solvers/solver.hpp"
#include "test_helpers.hpp"
#include "util/log.hpp"

namespace tealeaf {
namespace {

using testing::install_operator;
using testing::make_test_problem;
using testing::make_test_problem_3d;

using enum FieldId;

struct Variant {
  const char* name;
  SolverType type;
  PreconType precon;
  bool chrono;    ///< CG's Chronopoulos–Gear recurrence
  int halo_depth; ///< matrix-powers depth on the stencil (csr uses 1)
  FieldSet work;  ///< the work fields the solver uses
};

// clang-format off
const Variant kVariants[] = {
    {"jacobi",          SolverType::kJacobi,    PreconType::kNone,        false, 1, {kR}},
    {"cg",              SolverType::kCG,        PreconType::kNone,        false, 1, {kP, kR, kW}},
    {"cg-block",        SolverType::kCG,        PreconType::kJacobiBlock, false, 1, {kP, kR, kW, kZ, kCp, kBfp}},
    {"cg-chrono-diag",  SolverType::kCG,        PreconType::kJacobiDiag,  true,  1, {kP, kR, kW, kZ, kSd}},
    {"cg-chrono-block", SolverType::kCG,        PreconType::kJacobiBlock, true,  1, {kP, kR, kW, kZ, kSd, kCp, kBfp}},
    {"cheby-diag",      SolverType::kChebyshev, PreconType::kJacobiDiag,  false, 1, {kP, kR, kW, kZ}},
    {"cheby-block",     SolverType::kChebyshev, PreconType::kJacobiBlock, false, 1, {kP, kR, kW, kZ, kCp, kBfp}},
    {"ppcg-mp2",        SolverType::kPPCG,      PreconType::kNone,        false, 2, {kP, kR, kW, kZ, kSd, kRtemp}},
    {"ppcg-block",      SolverType::kPPCG,      PreconType::kJacobiBlock, false, 1, {kP, kR, kW, kZ, kSd, kRtemp, kCp, kBfp}},
};
// clang-format on

/// What a route's banks hold: the fp64 bank the base set and the work
/// fields; under mixed precision the fp64 bank only adds the guard
/// residual's r and w, and the fp32 bank holds u, u0, the coefficients
/// and the work fields.
FieldBanks declared_fields(FieldSet work, Precision prec, int dims) {
  const FieldSet base = Chunk::base_fields(dims);
  if (prec == Precision::kDouble) return {base | work, {}};
  FieldSet operands{kU, kU0, kKx, kKy};
  if (dims == 3) operands |= {kKz};
  return {base | FieldSet{kR, kW}, operands | work};
}

/// Expect every chunk of `cl` to hold exactly `want`.
void expect_resident(const SimCluster& cl, const FieldBanks& want,
                     const std::string& where) {
  for (int r = 0; r < cl.nranks(); ++r) {
    EXPECT_EQ(testing::field_names(cl.chunk(r).allocated()),
              testing::field_names(want))
        << where << " rank " << r;
  }
}

struct Golden {
  const char* cell;
  std::uint64_t u_hash;
  int outer_iters;
  long long spmv_applies;
  long long reductions;
  long long messages;
};

// clang-format off
const Golden kGolden[] = {
    {"jacobi/fused/2d/stencil/double", 0x23302c693c78459bull, 25, 25, 25, 50},
    {"jacobi/fused/2d/stencil/mixed", 0x420fcceb25514f61ull, 146, 146, 149, 298},
    {"jacobi/fused/2d/csr/double", 0x23302c693c78459bull, 25, 25, 25, 50},
    {"jacobi/fused/2d/csr/mixed", 0x420fcceb25514f61ull, 146, 146, 149, 298},
    {"jacobi/fused/3d/stencil/double", 0xcf9160199e86ffc8ull, 25, 25, 25, 50},
    {"jacobi/fused/3d/stencil/mixed", 0x07d3141a658c1956ull, 118, 118, 121, 242},
    {"jacobi/fused/3d/csr/double", 0xcf9160199e86ffc8ull, 25, 25, 25, 50},
    {"jacobi/fused/3d/csr/mixed", 0x07d3141a658c1956ull, 118, 118, 121, 242},
    {"jacobi/tiled-b6/2d/stencil/double", 0x23302c693c78459bull, 25, 25, 25, 50},
    {"jacobi/tiled-b6/2d/stencil/mixed", 0x420fcceb25514f61ull, 146, 146, 149, 298},
    {"jacobi/tiled-b6/2d/csr/double", 0x23302c693c78459bull, 25, 25, 25, 50},
    {"jacobi/tiled-b6/2d/csr/mixed", 0x420fcceb25514f61ull, 146, 146, 149, 298},
    {"jacobi/tiled-b6/3d/stencil/double", 0xcf9160199e86ffc8ull, 25, 25, 25, 50},
    {"jacobi/tiled-b6/3d/stencil/mixed", 0x07d3141a658c1956ull, 118, 118, 121, 242},
    {"jacobi/tiled-b6/3d/csr/double", 0xcf9160199e86ffc8ull, 25, 25, 25, 50},
    {"jacobi/tiled-b6/3d/csr/mixed", 0x07d3141a658c1956ull, 118, 118, 121, 242},
    {"cg/fused/2d/stencil/double", 0x3ee1c92a306bb328ull, 25, 26, 51, 52},
    {"cg/fused/2d/stencil/mixed", 0x92811d8986ea1a61ull, 60, 62, 125, 130},
    {"cg/fused/2d/csr/double", 0x3ee1c92a306bb328ull, 25, 26, 51, 52},
    {"cg/fused/2d/csr/mixed", 0x92811d8986ea1a61ull, 60, 62, 125, 130},
    {"cg/fused/3d/stencil/double", 0xb22158056342a427ull, 25, 26, 51, 52},
    {"cg/fused/3d/stencil/mixed", 0x60ba06419dec8324ull, 52, 54, 109, 114},
    {"cg/fused/3d/csr/double", 0xb22158056342a427ull, 25, 26, 51, 52},
    {"cg/fused/3d/csr/mixed", 0x60ba06419dec8324ull, 52, 54, 109, 114},
    {"cg/tiled-b6/2d/stencil/double", 0x3ee1c92a306bb328ull, 25, 26, 51, 52},
    {"cg/tiled-b6/2d/stencil/mixed", 0x92811d8986ea1a61ull, 60, 62, 125, 130},
    {"cg/tiled-b6/2d/csr/double", 0x3ee1c92a306bb328ull, 25, 26, 51, 52},
    {"cg/tiled-b6/2d/csr/mixed", 0x92811d8986ea1a61ull, 60, 62, 125, 130},
    {"cg/tiled-b6/3d/stencil/double", 0xb22158056342a427ull, 25, 26, 51, 52},
    {"cg/tiled-b6/3d/stencil/mixed", 0x60ba06419dec8324ull, 52, 54, 109, 114},
    {"cg/tiled-b6/3d/csr/double", 0xb22158056342a427ull, 25, 26, 51, 52},
    {"cg/tiled-b6/3d/csr/mixed", 0x60ba06419dec8324ull, 52, 54, 109, 114},
    {"cg-block/fused/2d/stencil/double", 0x0309ea1afc79e7dfull, 25, 26, 51, 52},
    {"cg-block/fused/2d/stencil/mixed", 0x23d13f5cb9d2ba29ull, 45, 47, 95, 100},
    {"cg-block/fused/2d/csr/double", 0x0309ea1afc79e7dfull, 25, 26, 51, 52},
    {"cg-block/fused/2d/csr/mixed", 0x23d13f5cb9d2ba29ull, 45, 47, 95, 100},
    {"cg-block/fused/3d/stencil/double", 0x518a04cd382bff16ull, 25, 26, 51, 52},
    {"cg-block/fused/3d/stencil/mixed", 0xb0879a39dfad6d03ull, 48, 50, 101, 106},
    {"cg-block/fused/3d/csr/double", 0x518a04cd382bff16ull, 25, 26, 51, 52},
    {"cg-block/fused/3d/csr/mixed", 0xb0879a39dfad6d03ull, 48, 50, 101, 106},
    {"cg-block/tiled-b6/2d/stencil/double", 0x0309ea1afc79e7dfull, 25, 26, 51, 52},
    {"cg-block/tiled-b6/2d/stencil/mixed", 0x23d13f5cb9d2ba29ull, 45, 47, 95, 100},
    {"cg-block/tiled-b6/2d/csr/double", 0x0309ea1afc79e7dfull, 25, 26, 51, 52},
    {"cg-block/tiled-b6/2d/csr/mixed", 0x23d13f5cb9d2ba29ull, 45, 47, 95, 100},
    {"cg-block/tiled-b6/3d/stencil/double", 0x518a04cd382bff16ull, 25, 26, 51, 52},
    {"cg-block/tiled-b6/3d/stencil/mixed", 0xb0879a39dfad6d03ull, 48, 50, 101, 106},
    {"cg-block/tiled-b6/3d/csr/double", 0x518a04cd382bff16ull, 25, 26, 51, 52},
    {"cg-block/tiled-b6/3d/csr/mixed", 0xb0879a39dfad6d03ull, 48, 50, 101, 106},
    {"cg-chrono-diag/fused/2d/stencil/double", 0xa7392af65d8f5263ull, 25, 26, 26, 54},
    {"cg-chrono-diag/fused/2d/stencil/mixed", 0x750634c51871f970ull, 56, 58, 61, 126},
    {"cg-chrono-diag/fused/2d/csr/double", 0xa7392af65d8f5263ull, 25, 26, 26, 54},
    {"cg-chrono-diag/fused/2d/csr/mixed", 0x750634c51871f970ull, 56, 58, 61, 126},
    {"cg-chrono-diag/fused/3d/stencil/double", 0xebde34dcf86a833cull, 25, 26, 26, 54},
    {"cg-chrono-diag/fused/3d/stencil/mixed", 0xdee09e7bf95b2808ull, 54, 56, 59, 122},
    {"cg-chrono-diag/fused/3d/csr/double", 0xebde34dcf86a833cull, 25, 26, 26, 54},
    {"cg-chrono-diag/fused/3d/csr/mixed", 0xdee09e7bf95b2808ull, 54, 56, 59, 122},
    {"cg-chrono-diag/tiled-b6/2d/stencil/double", 0xa7392af65d8f5263ull, 25, 26, 26, 54},
    {"cg-chrono-diag/tiled-b6/2d/stencil/mixed", 0x750634c51871f970ull, 56, 58, 61, 126},
    {"cg-chrono-diag/tiled-b6/2d/csr/double", 0xa7392af65d8f5263ull, 25, 26, 26, 54},
    {"cg-chrono-diag/tiled-b6/2d/csr/mixed", 0x750634c51871f970ull, 56, 58, 61, 126},
    {"cg-chrono-diag/tiled-b6/3d/stencil/double", 0xebde34dcf86a833cull, 25, 26, 26, 54},
    {"cg-chrono-diag/tiled-b6/3d/stencil/mixed", 0xdee09e7bf95b2808ull, 54, 56, 59, 122},
    {"cg-chrono-diag/tiled-b6/3d/csr/double", 0xebde34dcf86a833cull, 25, 26, 26, 54},
    {"cg-chrono-diag/tiled-b6/3d/csr/mixed", 0xdee09e7bf95b2808ull, 54, 56, 59, 122},
    {"cg-chrono-block/fused/2d/stencil/double", 0x115e1a18f3c23514ull, 25, 26, 26, 54},
    {"cg-chrono-block/fused/2d/stencil/mixed", 0x066ad6f246cebaf6ull, 45, 47, 50, 104},
    {"cg-chrono-block/fused/2d/csr/double", 0x115e1a18f3c23514ull, 25, 26, 26, 54},
    {"cg-chrono-block/fused/2d/csr/mixed", 0x066ad6f246cebaf6ull, 45, 47, 50, 104},
    {"cg-chrono-block/fused/3d/stencil/double", 0x0bb0a4a6f57fc4e8ull, 25, 26, 26, 54},
    {"cg-chrono-block/fused/3d/stencil/mixed", 0x94b685d409e7a72aull, 48, 50, 53, 110},
    {"cg-chrono-block/fused/3d/csr/double", 0x0bb0a4a6f57fc4e8ull, 25, 26, 26, 54},
    {"cg-chrono-block/fused/3d/csr/mixed", 0x94b685d409e7a72aull, 48, 50, 53, 110},
    {"cg-chrono-block/tiled-b6/2d/stencil/double", 0x115e1a18f3c23514ull, 25, 26, 26, 54},
    {"cg-chrono-block/tiled-b6/2d/stencil/mixed", 0x066ad6f246cebaf6ull, 45, 47, 50, 104},
    {"cg-chrono-block/tiled-b6/2d/csr/double", 0x115e1a18f3c23514ull, 25, 26, 26, 54},
    {"cg-chrono-block/tiled-b6/2d/csr/mixed", 0x066ad6f246cebaf6ull, 45, 47, 50, 104},
    {"cg-chrono-block/tiled-b6/3d/stencil/double", 0x0bb0a4a6f57fc4e8ull, 25, 26, 26, 54},
    {"cg-chrono-block/tiled-b6/3d/stencil/mixed", 0x94b685d409e7a72aull, 48, 50, 53, 110},
    {"cg-chrono-block/tiled-b6/3d/csr/double", 0x0bb0a4a6f57fc4e8ull, 25, 26, 26, 54},
    {"cg-chrono-block/tiled-b6/3d/csr/mixed", 0x94b685d409e7a72aull, 48, 50, 53, 110},
    {"cheby-diag/fused/2d/stencil/double", 0xf5deb94d54370bf7ull, 25, 26, 28, 52},
    {"cheby-diag/fused/2d/stencil/mixed", 0x3127a442b0f2ce5eull, 77, 79, 44, 164},
    {"cheby-diag/fused/2d/csr/double", 0xf5deb94d54370bf7ull, 25, 26, 28, 52},
    {"cheby-diag/fused/2d/csr/mixed", 0x3127a442b0f2ce5eull, 77, 79, 44, 164},
    {"cheby-diag/fused/3d/stencil/double", 0x9876af19bf945702ull, 25, 26, 28, 52},
    {"cheby-diag/fused/3d/stencil/mixed", 0xd436eee4fc4b348cull, 97, 99, 48, 204},
    {"cheby-diag/fused/3d/csr/double", 0x9876af19bf945702ull, 25, 26, 28, 52},
    {"cheby-diag/fused/3d/csr/mixed", 0xd436eee4fc4b348cull, 97, 99, 48, 204},
    {"cheby-diag/tiled-b6/2d/stencil/double", 0xf5deb94d54370bf7ull, 25, 26, 28, 52},
    {"cheby-diag/tiled-b6/2d/stencil/mixed", 0x3127a442b0f2ce5eull, 77, 79, 44, 164},
    {"cheby-diag/tiled-b6/2d/csr/double", 0xf5deb94d54370bf7ull, 25, 26, 28, 52},
    {"cheby-diag/tiled-b6/2d/csr/mixed", 0x3127a442b0f2ce5eull, 77, 79, 44, 164},
    {"cheby-diag/tiled-b6/3d/stencil/double", 0x9876af19bf945702ull, 25, 26, 28, 52},
    {"cheby-diag/tiled-b6/3d/stencil/mixed", 0xd436eee4fc4b348cull, 97, 99, 48, 204},
    {"cheby-diag/tiled-b6/3d/csr/double", 0x9876af19bf945702ull, 25, 26, 28, 52},
    {"cheby-diag/tiled-b6/3d/csr/mixed", 0xd436eee4fc4b348cull, 97, 99, 48, 204},
    {"cheby-block/fused/2d/stencil/double", 0x805f7f14da5c90a4ull, 25, 26, 28, 52},
    {"cheby-block/fused/2d/stencil/mixed", 0x5b42ff9389294401ull, 52, 54, 39, 114},
    {"cheby-block/fused/2d/csr/double", 0x805f7f14da5c90a4ull, 25, 26, 28, 52},
    {"cheby-block/fused/2d/csr/mixed", 0x5b42ff9389294401ull, 52, 54, 39, 114},
    {"cheby-block/fused/3d/stencil/double", 0x3fbbdbf518af0171ull, 25, 26, 28, 52},
    {"cheby-block/fused/3d/stencil/mixed", 0x70622af51508fcb5ull, 72, 74, 43, 154},
    {"cheby-block/fused/3d/csr/double", 0x3fbbdbf518af0171ull, 25, 26, 28, 52},
    {"cheby-block/fused/3d/csr/mixed", 0x70622af51508fcb5ull, 72, 74, 43, 154},
    {"cheby-block/tiled-b6/2d/stencil/double", 0x805f7f14da5c90a4ull, 25, 26, 28, 52},
    {"cheby-block/tiled-b6/2d/stencil/mixed", 0x5b42ff9389294401ull, 52, 54, 39, 114},
    {"cheby-block/tiled-b6/2d/csr/double", 0x805f7f14da5c90a4ull, 25, 26, 28, 52},
    {"cheby-block/tiled-b6/2d/csr/mixed", 0x5b42ff9389294401ull, 52, 54, 39, 114},
    {"cheby-block/tiled-b6/3d/stencil/double", 0x3fbbdbf518af0171ull, 25, 26, 28, 52},
    {"cheby-block/tiled-b6/3d/stencil/mixed", 0x70622af51508fcb5ull, 72, 74, 43, 154},
    {"cheby-block/tiled-b6/3d/csr/double", 0x3fbbdbf518af0171ull, 25, 26, 28, 52},
    {"cheby-block/tiled-b6/3d/csr/mixed", 0x70622af51508fcb5ull, 72, 74, 43, 154},
    {"ppcg-mp2/fused/2d/stencil/double", 0x58054b4b5b2a7ac7ull, 20, 75, 42, 114},
    {"ppcg-mp2/fused/2d/stencil/mixed", 0x6de347f2af66d1f6ull, 20, 82, 47, 130},
    {"ppcg-mp2/fused/2d/csr/double", 0x58054b4b5b2a7ac7ull, 20, 75, 42, 150},
    {"ppcg-mp2/fused/2d/csr/mixed", 0x6de347f2af66d1f6ull, 20, 82, 47, 170},
    {"ppcg-mp2/fused/3d/stencil/double", 0x7e8d76da980a1c3full, 18, 61, 38, 94},
    {"ppcg-mp2/fused/3d/stencil/mixed", 0x19cb1ea372ee3860ull, 19, 75, 45, 120},
    {"ppcg-mp2/fused/3d/csr/double", 0x7e8d76da980a1c3full, 18, 61, 38, 122},
    {"ppcg-mp2/fused/3d/csr/mixed", 0x19cb1ea372ee3860ull, 19, 75, 45, 156},
    {"ppcg-mp2/tiled-b6/2d/stencil/double", 0x58054b4b5b2a7ac7ull, 20, 75, 42, 114},
    {"ppcg-mp2/tiled-b6/2d/stencil/mixed", 0x6de347f2af66d1f6ull, 20, 82, 47, 130},
    {"ppcg-mp2/tiled-b6/2d/csr/double", 0x58054b4b5b2a7ac7ull, 20, 75, 42, 150},
    {"ppcg-mp2/tiled-b6/2d/csr/mixed", 0x6de347f2af66d1f6ull, 20, 82, 47, 170},
    {"ppcg-mp2/tiled-b6/3d/stencil/double", 0x7e8d76da980a1c3full, 18, 61, 38, 94},
    {"ppcg-mp2/tiled-b6/3d/stencil/mixed", 0x19cb1ea372ee3860ull, 19, 75, 45, 120},
    {"ppcg-mp2/tiled-b6/3d/csr/double", 0x7e8d76da980a1c3full, 18, 61, 38, 122},
    {"ppcg-mp2/tiled-b6/3d/csr/mixed", 0x19cb1ea372ee3860ull, 19, 75, 45, 156},
    {"ppcg-block/fused/2d/stencil/double", 0xfb61dd02ab90b34cull, 17, 54, 36, 108},
    {"ppcg-block/fused/2d/stencil/mixed", 0x74235b1e5b83bb83ull, 18, 68, 43, 142},
    {"ppcg-block/fused/2d/csr/double", 0xfb61dd02ab90b34cull, 17, 54, 36, 108},
    {"ppcg-block/fused/2d/csr/mixed", 0x74235b1e5b83bb83ull, 18, 68, 43, 142},
    {"ppcg-block/fused/3d/stencil/double", 0xeaa5018211b9c877ull, 18, 61, 38, 122},
    {"ppcg-block/fused/3d/stencil/mixed", 0xc3b896542978213aull, 18, 68, 43, 142},
    {"ppcg-block/fused/3d/csr/double", 0xeaa5018211b9c877ull, 18, 61, 38, 122},
    {"ppcg-block/fused/3d/csr/mixed", 0xc3b896542978213aull, 18, 68, 43, 142},
    {"ppcg-block/tiled-b6/2d/stencil/double", 0xfb61dd02ab90b34cull, 17, 54, 36, 108},
    {"ppcg-block/tiled-b6/2d/stencil/mixed", 0x74235b1e5b83bb83ull, 18, 68, 43, 142},
    {"ppcg-block/tiled-b6/2d/csr/double", 0xfb61dd02ab90b34cull, 17, 54, 36, 108},
    {"ppcg-block/tiled-b6/2d/csr/mixed", 0x74235b1e5b83bb83ull, 18, 68, 43, 142},
    {"ppcg-block/tiled-b6/3d/stencil/double", 0xeaa5018211b9c877ull, 18, 61, 38, 122},
    {"ppcg-block/tiled-b6/3d/stencil/mixed", 0xc3b896542978213aull, 18, 68, 43, 142},
    {"ppcg-block/tiled-b6/3d/csr/double", 0xeaa5018211b9c877ull, 18, 61, 38, 122},
    {"ppcg-block/tiled-b6/3d/csr/mixed", 0xc3b896542978213aull, 18, 68, 43, 142},
};
// clang-format on

std::uint64_t hash_field(const Field<double>& u) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  for (int l = 0; l < u.nz(); ++l) {
    for (int k = 0; k < u.ny(); ++k) {
      for (int j = 0; j < u.nx(); ++j) {
        const double v = u(j, k, l);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        for (int b = 0; b < 8; ++b) {
          h ^= (bits >> (8 * b)) & 0xffu;
          h *= 1099511628211ull;  // FNV-1a prime
        }
      }
    }
  }
  return h;
}

const Golden* find_golden(const std::string& cell) {
  for (const Golden& g : kGolden) {
    if (cell == g.cell) return &g;
  }
  return nullptr;
}

std::string row_of(const Golden& g) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", 0x%016llxull, %d, %lld, %lld, %lld},", g.cell,
                static_cast<unsigned long long>(g.u_hash), g.outer_iters,
                g.spmv_applies, g.reductions, g.messages);
  return buf;
}

TEST(GoldenIterates, EveryRouteReproducesItsRecordedChecksum) {
  log::set_level(log::Level::kError);  // capped solves warn at max_iters
  struct Engine {
    const char* name;
    int tile_rows;
  };
  const Engine engines[] = {{"fused", 0}, {"tiled-b6", 6}};
  int checked = 0;
  for (const int threads : {1, 3}) {
    const ThreadScope scope(threads);
    for (const Variant& v : kVariants) {
      for (const Engine& s : engines) {
        for (const int dims : {2, 3}) {
          for (const OperatorKind op :
               {OperatorKind::kStencil, OperatorKind::kCsr}) {
            for (const Precision prec :
                 {Precision::kDouble, Precision::kMixed}) {
              SolverConfig cfg;
              cfg.type = v.type;
              cfg.precon = v.precon;
              cfg.fuse_cg_reductions = v.chrono;
              cfg.halo_depth =
                  op == OperatorKind::kStencil ? v.halo_depth : 1;
              cfg.op = op;
              cfg.precision = prec;
              cfg.tile_rows = s.tile_rows;
              cfg.eps = v.type == SolverType::kJacobi ? 1e-5 : 1e-9;
              cfg.max_iters = prec == Precision::kMixed ? 150 : 25;
              cfg.eigen_cg_iters = 12;
              cfg.inner_steps = 6;
              cfg.cheby_check_interval = 5;

              auto cl = dims == 3 ? make_test_problem_3d(10, 2, 2)
                                  : make_test_problem(20, 2, 2);
              install_operator(*cl, op);
              const SolveStats st = run_solver(*cl, cfg);

              const std::string cell =
                  std::string(v.name) + "/" + s.name + "/" +
                  (dims == 3 ? "3d" : "2d") + "/" + to_string(op) + "/" +
                  to_string(prec);
              const Golden got{cell.c_str(),
                               hash_field(gather_field(*cl, FieldId::kU)),
                               st.outer_iters,
                               st.spmv_applies,
                               static_cast<long long>(cl->stats().reductions),
                               static_cast<long long>(cl->stats().messages)};
              expect_resident(*cl, declared_fields(v.work, prec, dims),
                              cell + " at " + std::to_string(threads) +
                                  " threads");
              EXPECT_EQ(st.threads, testing::pinned_width(threads)) << cell;
              if (prec == Precision::kMixed) {
                EXPECT_GE(st.refine_steps, 1) << cell << " ran one pass";
              }
              const Golden* want = find_golden(cell);
              ++checked;
              if (want == nullptr) {
                ADD_FAILURE() << "no golden row for " << cell
                              << "; produced:\n" << row_of(got);
                continue;
              }
              EXPECT_TRUE(want->u_hash == got.u_hash &&
                          want->outer_iters == got.outer_iters &&
                          want->spmv_applies == got.spmv_applies &&
                          want->reductions == got.reductions &&
                          want->messages == got.messages)
                  << "cell " << cell << " at " << threads << " threads"
                  << "\n  want " << row_of(*want)
                  << "\n  got  " << row_of(got);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 2 * static_cast<int>(std::size(kGolden)));
}

/// The independent check behind the mixed rows: every mixed route, run to
/// convergence, leaves a solution whose true residual — computed by an
/// oracle that shares no code with ops/kernels — meets tl_eps (with a
/// factor 2 for the two residuals' rounding), although each fp32 pass
/// stops as soon as the contraction it asks for is bought.
TEST(GoldenIterates, MixedRoutesMeetTheirToleranceOnTheOracle) {
  for (const Variant& v : kVariants) {
    for (const int dims : {2, 3}) {
      for (const OperatorKind op :
           {OperatorKind::kStencil, OperatorKind::kCsr}) {
        SolverConfig cfg;
        cfg.type = v.type;
        cfg.precon = v.precon;
        cfg.fuse_cg_reductions = v.chrono;
        cfg.halo_depth = op == OperatorKind::kStencil ? v.halo_depth : 1;
        cfg.op = op;
        cfg.precision = Precision::kMixed;
        cfg.eps = 1e-9;
        auto cl = dims == 3 ? make_test_problem_3d(10, 2, 2)
                            : make_test_problem(20, 2, 2);
        install_operator(*cl, op);
        const SolveStats st = run_solver(*cl, cfg);
        const std::string route = std::string(v.name) + "/" +
                                  (dims == 3 ? "3d" : "2d") + "/" +
                                  to_string(op);
        ASSERT_TRUE(st.converged) << route << ": " << st.breakdown_reason;
        EXPECT_LE(testing::Oracle(*cl).relative_residual(), 2.0 * cfg.eps)
            << route;
      }
    }
  }
}

struct GoldenMG {
  const char* cell;
  int dims;  ///< 2: a 24² test problem, 3: a 12³ one (rx_ry = 6)
  std::uint64_t u_hash;
  int iterations;
};

const GoldenMG kGoldenMG[] = {
    {"mg-pcg/2d", 2, 0xb9433093d89c7d97ull, 8},
    {"mg-pcg/3d", 3, 0x1f67a7748a6c976aull, 10},
};

TEST(GoldenIterates, MgPcgReproducesItsSerialChecksumAtEveryThreadCount) {
  SolverConfig cfg;
  cfg.type = SolverType::kCG;
  cfg.precon = PreconType::kMultigrid;
  for (const GoldenMG& g : kGoldenMG) {
    SolveStats one;  // the first solve; the norms must match it too
    bool first = true;
    for (const int tile_rows : {0, 5}) {
      for (const int threads : {1, 2, 3, 4}) {
        const ThreadScope scope(threads);
        auto cl = g.dims == 3 ? make_test_problem_3d(12, 1, 2, 6.0)
                              : make_test_problem(24, 1, 2, 6.0);
        // The rows were recorded from u = 0; a session solve starts from
        // u = u0.
        cl->for_each_chunk([](int, Chunk& c) { c.u().fill(0.0); });
        cfg.tile_rows = tile_rows;
        const SolveStats res = run_solver(*cl, cfg);
        if (first) one = res;
        first = false;
        const std::string at = std::string(g.cell) + " at " +
                               std::to_string(threads) + " threads, b" +
                               std::to_string(tile_rows);
        EXPECT_TRUE(res.converged) << at;
        EXPECT_EQ(res.threads, testing::pinned_width(threads)) << at;
        EXPECT_EQ(res.outer_iters, g.iterations) << at;
        EXPECT_EQ(hash_field(gather_field(*cl, FieldId::kU)), g.u_hash)
            << at;
        EXPECT_EQ(res.initial_norm, one.initial_norm) << at;
        EXPECT_EQ(res.final_norm, one.final_norm) << at;
        expect_resident(*cl,
                        declared_fields({kP, kR, kW, kZ}, Precision::kDouble,
                                        g.dims),
                        at);
      }
    }
  }
}

}  // namespace
}  // namespace tealeaf
