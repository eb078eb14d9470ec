#include "driver/states.hpp"

namespace tealeaf {

void apply_states(SimCluster& cl, const InputDeck& deck) {
  const double dx = cl.mesh().dx();
  const double dy = cl.mesh().dy();
  const double dz = cl.mesh().dz();
  const int dims = cl.mesh().dims;
  cl.for_each_chunk([&](int, Chunk& c) {
    auto& density = c.density();
    auto& energy = c.energy();
    for (int l = 0; l < c.nz(); ++l) {
      const double z = c.cell_z(l);
      for (int k = 0; k < c.ny(); ++k) {
        for (int j = 0; j < c.nx(); ++j) {
          const double x = c.cell_x(j);
          const double y = c.cell_y(k);
          for (const StateDef& st : deck.states) {
            if (st.contains(x, y, z, dx, dy, dz, dims)) {
              density(j, k, l) = st.density;
              energy(j, k, l) = st.energy;
            }
          }
        }
      }
    }
  });
}

}  // namespace tealeaf
