#include "comm/sim_comm.hpp"

#include <exception>
#include <mutex>
#include <new>
#include <sstream>

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
  team_partials_.assign(static_cast<std::size_t>(2 * nranks), 0.0);
  team_partials2_.assign(static_cast<std::size_t>(2 * nranks), {0.0, 0.0});
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
  parallel_region(team_width(), [&](Team& t) {
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
    throw_out_of_memory();
  }
}

void SimCluster::throw_out_of_memory() const {
  std::ostringstream os;
  os << "cannot allocate the " << mesh_.nx << "x" << mesh_.ny;
  if (mesh_.dims == 3) os << "x" << mesh_.nz;
  os << " mesh on " << nranks() << (nranks() == 1 ? " rank" : " ranks")
     << ": out of memory";
  throw TeaError(os.str());
}

// Phase ordering matters: x completes for all ranks before y starts so
// that the y messages carry fresh corner columns, and (in 3-D) z runs last
// carrying the xy-halo rows so edges and corners propagate (see class
// comment).

void SimCluster::exchange(std::initializer_list<FieldId> fields, int depth) {
  // Validated before the region, where a throw would terminate.
  TEA_REQUIRE(depth >= 1 && depth <= halo_depth_,
              "exchange depth exceeds allocated halo");
  parallel_region(team_width(), [&](Team& t) { exchange(t, fields, depth); });
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
  // Producers must finish before the first phase reads interiors, and each
  // later phase carries the earlier phases' halos, so a barrier precedes
  // every phase that runs.  An axis the decomposition does not split has
  // no neighbours and copies nothing: it runs no phase and no barrier.
  // With more threads than ranks each phase workshares (rank, face) pairs
  // — the per-face copies touch disjoint halo regions.
  const bool by_face = team.num_threads() > nranks();
  const auto phase = [&](bool split, Face low, Face high) {
    if (!split) return;
    team.barrier();
    const auto run = [&](std::int64_t r, Face face) {
      exchange_face(static_cast<int>(r), face, fields, nfields, depth);
    };
    if (by_face) {
      team.for_range(0, 2 * nranks(), [&](std::int64_t i) {
        run(i >> 1, (i & 1) ? high : low);
      });
    } else {
      team.for_range(0, nranks(), [&](std::int64_t r) {
        run(r, low);
        run(r, high);
      });
    }
  };
  phase(decomp_.px() > 1, Face::kLeft, Face::kRight);
  phase(decomp_.py() > 1, Face::kBottom, Face::kTop);
  phase(mesh_.dims == 3 && decomp_.pz() > 1, Face::kBack, Face::kFront);
  team.single([&] {
    stats_ += exchange_counts(decomp_, depth, nfields, elem_bytes());
    trace_.add_exchange(phase_, depth, nfields, elem_bytes());
  });
  team.barrier();
}

void SimCluster::exchange_face(int rank, Face face, const FieldId* fields,
                               int nfields, int depth) {
  const int nb = decomp_.neighbor(rank, face);
  if (nb < 0) return;
  Chunk& me = *chunks_[static_cast<std::size_t>(rank)];
  const Chunk& other = *chunks_[static_cast<std::size_t>(nb)];
  // Each rank "sends" its edge layers into the neighbour's halo.  In the
  // simulation the copy is done by the receiving side reading the
  // neighbour's interior, which is bitwise the same data motion.
  const int axis = static_cast<int>(face) / 2;
  const bool low = static_cast<int>(face) % 2 == 0;
  const int n[3] = {me.nx(), me.ny(), me.nz()};
  const int other_n[3] = {other.nx(), other.ny(), other.nz()};
  // The halo box the face fills, [lo, hi) per axis (j, k, l).  The face
  // axis carries the depth layers.  Axes the earlier phases exchanged
  // carry their halos too, so edges and corners propagate — but only
  // toward sides with a neighbour: a physical boundary's halo holds no
  // exchanged values, so it is neither copied nor charged to the message
  // (exchange_counts).  Later axes span the interior.
  int lo[3];
  int hi[3];
  int shift[3] = {0, 0, 0};
  for (int a = 0; a < 3; ++a) {
    if (a == axis) {
      lo[a] = low ? -depth : n[a];
      hi[a] = lo[a] + depth;
      continue;
    }
    TEA_ASSERT(other_n[a] == n[a],
               "face neighbours must share the extents across their face");
    const bool earlier = a < axis;
    const auto has = [&](int side) {
      return decomp_.neighbor(rank, static_cast<Face>(2 * a + side)) >= 0;
    };
    lo[a] = earlier && has(0) ? -depth : 0;
    hi[a] = n[a] + (earlier && has(1) ? depth : 0);
  }
  // The source layers sit one chunk extent away along the axis: halo
  // layer -1-d is the low neighbour's layer n-1-d, layer n+d the high
  // neighbour's layer d.
  shift[axis] = low ? other_n[axis] : -n[axis];
  // Generic over the storage bank: an fp32-active solve moves the fp32
  // halos (half the bytes — the mixed-precision layer's communication
  // saving), the default path moves fp64.
  const auto copy_box = [&](auto& dst, const auto& src) {
    const int width = hi[0] - lo[0];
    for (int l = lo[2]; l < hi[2]; ++l) {
      for (int k = lo[1]; k < hi[1]; ++k) {
        auto* d = &dst(lo[0], k, l);
        const auto* s = &src(lo[0] + shift[0], k + shift[1], l + shift[2]);
        for (int j = 0; j < width; ++j) d[j] = s[j];
      }
    }
  };
  for (int f = 0; f < nfields; ++f) {
    if (me.fp32_active()) {
      copy_box(me.field_t<float>(fields[f]), other.field_t<float>(fields[f]));
    } else {
      copy_box(me.field_t<double>(fields[f]),
               other.field_t<double>(fields[f]));
    }
  }
}

}  // namespace tealeaf
