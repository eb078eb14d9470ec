#include "server/batch.hpp"

#include <algorithm>
#include <memory>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace tealeaf {

bool batchable(const SolverConfig& cfg) {
  return cfg.precision == Precision::kDouble &&
         cfg.precon != PreconType::kMultigrid;
}

void solve_batched(std::vector<BatchItem>& items) {
  if (items.empty()) return;
  for (const BatchItem& it : items) {
    TEA_REQUIRE(it.cluster != nullptr, "solve_batched: null cluster");
    check_solvable(*it.cluster, it.config);
    TEA_REQUIRE(batchable(it.config),
                "solve_batched: single/mixed and multigrid configs run "
                "through run_solver, outside the batch engine");
    it.cluster->allocate(solve_fields(*it.cluster, it.config));
  }
  const int nitems = static_cast<int>(items.size());

  // Sub-team barriers are sized from the region's ACTUAL thread count,
  // which is only known inside, so thread 0 builds them and a region-wide
  // barrier publishes before any sub-team forms.
  std::vector<std::unique_ptr<SpinBarrier>> bars;
  int ngroups = 1;
  parallel_region([&](Team& region) {
    region.single([&] {
      const int nt = region.num_threads();
      ngroups = std::min(nitems, nt);
      bars.resize(ngroups);
      for (int g = 0; g < ngroups; ++g) {
        bars[g] = std::make_unique<SpinBarrier>(nt / ngroups +
                                                (g < nt % ngroups ? 1 : 0));
      }
    });
    region.barrier();

    const SubTeamSlot slot =
        sub_team_slot(region.thread_id(), region.num_threads(), ngroups);
    Team sub(slot.local_id, slot.size, bars[slot.group].get());

    // Each sub-team works through its strided share of the batch.
    // No region-wide barrier between items: sub-teams are independent
    // (distinct clusters) and their SpinBarrier alone orders each solve.
    for (int idx = slot.group; idx < nitems; idx += ngroups) {
      BatchItem& it = items[idx];
      const SolveStats st = run_solver_team(*it.cluster, it.config, sub);
      sub.single([&] { it.stats = st; });
    }
  });
}

}  // namespace tealeaf
