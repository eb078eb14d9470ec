#include "comm/sim_comm.hpp"

#include <exception>
#include <mutex>
#include <new>
#include <string>

#include "util/error.hpp"

namespace tealeaf {

CommStats exchange_counts(const Decomposition& decomp, int depth,
                          int nfields, int elem_bytes) {
  CommStats cc;
  cc.exchange_calls = 1;
  const auto send = [&](std::int64_t cells) {
    ++cc.messages;
    cc.message_bytes += static_cast<std::int64_t>(depth) * cells * nfields *
                        static_cast<std::int64_t>(elem_bytes);
  };
  // One send per rank per populated direction; all fields share the
  // message.  x payload: depth columns of ny·nz cells.  y payload: depth
  // rows of nx·nz cells plus only the x-halo corner columns that hold
  // neighbour data (a rank at a physical left/right boundary sends shorter
  // rows).  z payload: depth planes whose rows and columns the x and y
  // phases extended the same way.
  for (int r = 0; r < decomp.nranks(); ++r) {
    const ChunkExtent& e = decomp.extent(r);
    const auto has = [&](Face f) { return decomp.neighbor(r, f) >= 0; };
    for (const Face face : {Face::kLeft, Face::kRight}) {
      if (has(face)) send(static_cast<std::int64_t>(e.ny) * e.nz);
    }
    const std::int64_t row_len =
        e.nx + static_cast<std::int64_t>(has(Face::kLeft) + has(Face::kRight)) *
                   depth;
    for (const Face face : {Face::kBottom, Face::kTop}) {
      if (has(face)) send(row_len * e.nz);
    }
    const std::int64_t col_len =
        e.ny + static_cast<std::int64_t>(has(Face::kBottom) + has(Face::kTop)) *
                   depth;
    for (const Face face : {Face::kBack, Face::kFront}) {
      if (has(face)) send(row_len * col_len);
    }
  }
  return cc;
}

SimCluster::SimCluster(const GlobalMesh& mesh, int nranks, int halo_depth)
    : mesh_(mesh),
      decomp_(Decomposition::create(nranks, mesh)),
      halo_depth_(halo_depth) {
  TEA_REQUIRE(halo_depth >= 1, "halo depth must be >= 1");
  chunks_.resize(static_cast<std::size_t>(nranks));
  // NUMA first-touch: construct the chunks through Team::for_range — the
  // exact rank→thread mapping every fused-engine worksharing loop uses —
  // so the zero-fill of each chunk's fields (the first touch of those
  // pages) happens on the thread, and hence the NUMA node, that will
  // process the chunk for the rest of the run.
  for_each_rank({}, [&](int r) {
    chunks_[static_cast<std::size_t>(r)] =
        std::make_unique<Chunk>(decomp_.extent(r), mesh, halo_depth);
  });
  team_partials_.assign(static_cast<std::size_t>(nranks), 0.0);
  team_partials2_.assign(static_cast<std::size_t>(nranks), {0.0, 0.0});
}

void SimCluster::allocate(const FieldBanks& fields) {
  const bool held = std::all_of(
      chunks_.begin(), chunks_.end(),
      [&](const auto& c) { return c->allocated().covers(fields); });
  if (held) return;
  for_each_chunk([&](int, Chunk& c) { c.allocate(fields); });
}

void SimCluster::for_each_rank(const Kernels& kernels,
                               const std::function<void(int)>& body) {
  // The loop has no barrier, so a rank whose body throws keeps the first
  // failure and the region still joins; it is rethrown after.
  std::exception_ptr failure;
  std::mutex failure_mu;
  parallel_region([&](Team& t) {
    record(t, kernels);
    t.for_range(0, nranks(), [&](std::int64_t r) {
      try {
        body(static_cast<int>(r));
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failure_mu);
        if (!failure) failure = std::current_exception();
      }
    });
  });
  if (!failure) return;
  try {
    std::rethrow_exception(failure);
  } catch (const std::bad_alloc&) {
    std::string shape = std::to_string(mesh_.nx) + "x" +
                        std::to_string(mesh_.ny);
    if (mesh_.dims == 3) shape += "x" + std::to_string(mesh_.nz);
    throw TeaError("cannot allocate the " + shape + " mesh on " +
                   std::to_string(nranks()) +
                   (nranks() == 1 ? " rank" : " ranks") + ": out of memory");
  }
}

// Phase ordering matters: x completes for all ranks before y starts so
// that the y messages carry fresh corner columns, and (in 3-D) z runs last
// carrying the xy-halo rows so edges and corners propagate (see class
// comment).

void SimCluster::exchange(std::initializer_list<FieldId> fields, int depth) {
  // Validated before the region, where a throw would terminate.
  TEA_REQUIRE(depth >= 1 && depth <= halo_depth_,
              "exchange depth exceeds allocated halo");
  parallel_region([&](Team& t) { exchange(t, fields, depth); });
}

void SimCluster::exchange(const Team& team,
                          std::initializer_list<FieldId> field_list,
                          int depth) {
  // Contract check inside the solve's region, where a throw would
  // terminate the process (see parallel_region's docs) — callers must
  // validate the depth before entering the region, as the solvers do via
  // SolverConfig/halo checks.
  TEA_REQUIRE(depth >= 1 && depth <= halo_depth_,
              "exchange depth exceeds allocated halo");
  // The per-rank copy bodies read the list's backing array directly: no
  // per-call (and per-thread) allocation inside a solve.
  const FieldId* fields = field_list.begin();
  const int nfields = static_cast<int>(field_list.size());
  if (nfields == 0) return;
  const bool has_z = (mesh_.dims == 3);
  // Producers must finish before the x phase reads interiors, and each
  // later phase carries the earlier phases' halos.  With more threads than
  // ranks each phase workshares (rank, face) pairs — the per-face copies
  // touch disjoint halo regions.
  team.barrier();
  if (team.num_threads() > nranks()) {
    team.for_range(0, 2 * nranks(), [&](std::int64_t i) {
      exchange_x_rank_face(static_cast<int>(i >> 1),
                           (i & 1) ? Face::kRight : Face::kLeft, fields,
                           nfields, depth);
    });
    team.barrier();
    team.for_range(0, 2 * nranks(), [&](std::int64_t i) {
      exchange_y_rank_face(static_cast<int>(i >> 1),
                           (i & 1) ? Face::kTop : Face::kBottom, fields,
                           nfields, depth);
    });
    if (has_z) {
      team.barrier();
      team.for_range(0, 2 * nranks(), [&](std::int64_t i) {
        exchange_z_rank_face(static_cast<int>(i >> 1),
                             (i & 1) ? Face::kFront : Face::kBack, fields,
                             nfields, depth);
      });
    }
  } else {
    team.for_range(0, nranks(), [&](std::int64_t r) {
      exchange_x_rank(static_cast<int>(r), fields, nfields, depth);
    });
    team.barrier();
    team.for_range(0, nranks(), [&](std::int64_t r) {
      exchange_y_rank(static_cast<int>(r), fields, nfields, depth);
    });
    if (has_z) {
      team.barrier();
      team.for_range(0, nranks(), [&](std::int64_t r) {
        exchange_z_rank(static_cast<int>(r), fields, nfields, depth);
      });
    }
  }
  team.single([&] {
    stats_ += exchange_counts(decomp_, depth, nfields, elem_bytes());
    trace_.add_exchange(phase_, depth, nfields, elem_bytes());
  });
  team.barrier();
}

void SimCluster::exchange_x_rank(int rank, const FieldId* fields,
                                 int nfields, int depth) {
  exchange_x_rank_face(rank, Face::kLeft, fields, nfields, depth);
  exchange_x_rank_face(rank, Face::kRight, fields, nfields, depth);
}

void SimCluster::exchange_x_rank_face(int rank, Face face,
                                      const FieldId* fields, int nfields,
                                      int depth) {
  Chunk& me = *chunks_[static_cast<std::size_t>(rank)];
  // Each rank "sends" its edge columns into the neighbour's halo.  In the
  // simulation the copy is done by the receiving side reading the
  // neighbour's interior, which is bitwise the same data motion.
  const int nb = decomp_.neighbor(rank, face);
  if (nb < 0) return;
  Chunk& other = *chunks_[static_cast<std::size_t>(nb)];
  TEA_ASSERT(other.ny() == me.ny() && other.nz() == me.nz(),
             "x-neighbours must share rows and planes");
  // The copy body is generic over the storage bank: an fp32-active solve
  // moves the fp32 halos (half the bytes — the mixed-precision layer's
  // communication saving), the default path moves fp64 exactly as before.
  const auto copy_face = [&](auto& dst, const auto& src) {
    for (int d = 0; d < depth; ++d) {
      // Halo column -1-d maps to the right edge of the left neighbour;
      // column nx+d maps to the left edge of the right neighbour.
      const int dst_j = (face == Face::kLeft) ? -1 - d : me.nx() + d;
      const int src_j = (face == Face::kLeft) ? other.nx() - 1 - d : d;
      for (int l = 0; l < me.nz(); ++l)
        for (int k = 0; k < me.ny(); ++k)
          dst(dst_j, k, l) = src(src_j, k, l);
    }
  };
  for (int f = 0; f < nfields; ++f) {
    if (me.fp32_active()) {
      copy_face(me.field_t<float>(fields[f]),
                other.field_t<float>(fields[f]));
    } else {
      copy_face(me.field_t<double>(fields[f]),
                other.field_t<double>(fields[f]));
    }
  }
}

void SimCluster::exchange_y_rank(int rank, const FieldId* fields,
                                 int nfields, int depth) {
  exchange_y_rank_face(rank, Face::kBottom, fields, nfields, depth);
  exchange_y_rank_face(rank, Face::kTop, fields, nfields, depth);
}

void SimCluster::exchange_y_rank_face(int rank, Face face,
                                      const FieldId* fields, int nfields,
                                      int depth) {
  Chunk& me = *chunks_[static_cast<std::size_t>(rank)];
  // Rows travel with their x-halo corner columns so corners propagate —
  // but only columns that actually carry neighbour data: at a physical
  // left/right boundary the x-halo holds no exchanged values, so it is
  // neither copied nor charged to the message payload.
  const bool has_left = decomp_.neighbor(rank, Face::kLeft) >= 0;
  const bool has_right = decomp_.neighbor(rank, Face::kRight) >= 0;
  const int jlo = has_left ? -depth : 0;
  const int jhi = me.nx() + (has_right ? depth : 0);
  const int nb = decomp_.neighbor(rank, face);
  if (nb < 0) return;
  Chunk& other = *chunks_[static_cast<std::size_t>(nb)];
  TEA_ASSERT(other.nx() == me.nx() && other.nz() == me.nz(),
             "y-neighbours must share columns and planes");
  const auto copy_face = [&](auto& dst, const auto& src) {
    for (int d = 0; d < depth; ++d) {
      const int dst_k = (face == Face::kBottom) ? -1 - d : me.ny() + d;
      const int src_k = (face == Face::kBottom) ? other.ny() - 1 - d : d;
      for (int l = 0; l < me.nz(); ++l)
        for (int j = jlo; j < jhi; ++j)
          dst(j, dst_k, l) = src(j, src_k, l);
    }
  };
  for (int f = 0; f < nfields; ++f) {
    if (me.fp32_active()) {
      copy_face(me.field_t<float>(fields[f]),
                other.field_t<float>(fields[f]));
    } else {
      copy_face(me.field_t<double>(fields[f]),
                other.field_t<double>(fields[f]));
    }
  }
}

void SimCluster::exchange_z_rank(int rank, const FieldId* fields,
                                 int nfields, int depth) {
  exchange_z_rank_face(rank, Face::kBack, fields, nfields, depth);
  exchange_z_rank_face(rank, Face::kFront, fields, nfields, depth);
}

void SimCluster::exchange_z_rank_face(int rank, Face face,
                                      const FieldId* fields, int nfields,
                                      int depth) {
  Chunk& me = *chunks_[static_cast<std::size_t>(rank)];
  // z slabs travel with the x- and y-halo rows the earlier phases filled,
  // so edges and corners propagate — again only where a neighbour
  // actually supplied data (physical boundaries send trimmed slabs).
  const bool has_left = decomp_.neighbor(rank, Face::kLeft) >= 0;
  const bool has_right = decomp_.neighbor(rank, Face::kRight) >= 0;
  const bool has_bottom = decomp_.neighbor(rank, Face::kBottom) >= 0;
  const bool has_top = decomp_.neighbor(rank, Face::kTop) >= 0;
  const int jlo = has_left ? -depth : 0;
  const int jhi = me.nx() + (has_right ? depth : 0);
  const int klo = has_bottom ? -depth : 0;
  const int khi = me.ny() + (has_top ? depth : 0);
  const int nb = decomp_.neighbor(rank, face);
  if (nb < 0) return;
  Chunk& other = *chunks_[static_cast<std::size_t>(nb)];
  TEA_ASSERT(other.nx() == me.nx() && other.ny() == me.ny(),
             "z-neighbours must share columns and rows");
  const auto copy_face = [&](auto& dst, const auto& src) {
    for (int d = 0; d < depth; ++d) {
      const int dst_l = (face == Face::kBack) ? -1 - d : me.nz() + d;
      const int src_l = (face == Face::kBack) ? other.nz() - 1 - d : d;
      for (int k = klo; k < khi; ++k)
        for (int j = jlo; j < jhi; ++j)
          dst(j, k, dst_l) = src(j, k, src_l);
    }
  };
  for (int f = 0; f < nfields; ++f) {
    if (me.fp32_active()) {
      copy_face(me.field_t<float>(fields[f]),
                other.field_t<float>(fields[f]));
    } else {
      copy_face(me.field_t<double>(fields[f]),
                other.field_t<double>(fields[f]));
    }
  }
}

}  // namespace tealeaf
