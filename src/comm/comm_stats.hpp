#pragma once

#include <cstdint>

#include "mesh/decomposition.hpp"

namespace tealeaf {

/// Byte-exact accounting of the communication a solver run would perform
/// on a real distributed machine.  Filled in by SimCluster; the
/// performance model prices the same communication from a solve's trace
/// (predict_comm_counts), and tests hold the two equal.
///
/// Conventions (matching upstream TeaLeaf's MPI layer):
///  * One halo exchange packs all requested fields per direction into a
///    single message, so an exchange contributes at most 4 messages per
///    rank (left/right in phase 1, bottom/top in phase 2).
///  * `messages` counts sends; a matching receive is implied.
///  * A global reduction counts once per allreduce call regardless of
///    rank count (the model expands it to a log-tree cost).
///  * `barriers` is the one count of this process's own threads: the team
///    barrier episodes inside solver bodies (thread 0's Team::barrier
///    calls), which a real machine's ranks would not pay.  The model does
///    not price them (predict_comm_counts leaves them 0).
struct CommStats {
  std::int64_t exchange_calls = 0;   ///< halo-exchange invocations
  std::int64_t messages = 0;         ///< point-to-point sends
  std::int64_t message_bytes = 0;    ///< payload bytes over all sends
  std::int64_t reductions = 0;       ///< global allreduce calls
  std::int64_t barriers = 0;         ///< team barrier episodes of solves

  void reset() { *this = CommStats{}; }

  CommStats& operator+=(const CommStats& o) {
    exchange_calls += o.exchange_calls;
    messages += o.messages;
    message_bytes += o.message_bytes;
    reductions += o.reductions;
    barriers += o.barriers;
    return *this;
  }
};

/// The messages and bytes of one halo exchange of `nfields` fields at
/// `depth` over a decomposition, `elem_bytes` per element on the wire (8
/// for fp64 fields, 4 when an fp32-active solve moves the fp32 bank).
/// The one description of the exchange geometry: SimCluster accounts its
/// exchanges through it, and the model prices traces with it.
[[nodiscard]] CommStats exchange_counts(const Decomposition& decomp,
                                        int depth, int nfields,
                                        int elem_bytes = 8);

}  // namespace tealeaf
