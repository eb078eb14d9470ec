#include "io/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "mesh/chunk.hpp"
#include "util/error.hpp"

namespace tealeaf::io {

namespace {

/// Lower-case copy (the MM banner is case-insensitive by spec).
std::string lower(std::string s) {
  for (char& ch : s) ch = static_cast<char>(std::tolower(ch));
  return s;
}

}  // namespace

TripletMatrix read_matrix_market(std::istream& in) {
  std::string banner;
  if (!std::getline(in, banner)) {
    throw TeaError("matrix market: empty input");
  }
  std::istringstream hdr(banner);
  std::string tag, object, format, field, symmetry;
  hdr >> tag >> object >> format >> field >> symmetry;
  TEA_REQUIRE(lower(tag) == "%%matrixmarket",
              "matrix market: missing %%MatrixMarket banner");
  TEA_REQUIRE(lower(object) == "matrix" && lower(format) == "coordinate",
              "matrix market: only 'matrix coordinate' files are supported");
  TEA_REQUIRE(lower(field) == "real",
              "matrix market: only 'real' entries are supported (got '" +
                  field + "')");
  const std::string sym = lower(symmetry);
  TEA_REQUIRE(sym == "general" || sym == "symmetric",
              "matrix market: symmetry must be 'general' or 'symmetric' "
              "(got '" + symmetry + "')");

  // Skip comment lines, then read the size line.
  std::string line;
  std::int64_t nrows = 0, ncols = 0, nnz = 0;
  for (;;) {
    if (!std::getline(in, line)) {
      throw TeaError("matrix market: missing size line");
    }
    if (line.empty() || line[0] == '%') continue;
    std::istringstream sz(line);
    if (!(sz >> nrows >> ncols >> nnz)) {
      throw TeaError("matrix market: bad size line '" + line + "'");
    }
    break;
  }
  TEA_REQUIRE(nrows == ncols, "matrix market: matrix must be square (got " +
                                  std::to_string(nrows) + " x " +
                                  std::to_string(ncols) + ")");
  TEA_REQUIRE(nrows > 0 && nnz > 0,
              "matrix market: matrix must be non-empty");

  // Stored values keyed by (row, col) — duplicate detection and the
  // symmetry check below both read from this.
  std::map<std::pair<std::int64_t, std::int64_t>, double> seen;
  for (std::int64_t e = 0; e < nnz; ++e) {
    std::int64_t i = 0, j = 0;
    double v = 0.0;
    if (!(in >> i >> j >> v)) {
      throw TeaError("matrix market: truncated file (expected " +
                     std::to_string(nnz) + " entries, got " +
                     std::to_string(e) + ")");
    }
    TEA_REQUIRE(i >= 1 && i <= nrows && j >= 1 && j <= ncols,
                "matrix market: entry (" + std::to_string(i) + ", " +
                    std::to_string(j) + ") outside the " +
                    std::to_string(nrows) + "-dimension matrix");
    --i;
    --j;
    const bool fresh = seen.emplace(std::make_pair(i, j), v).second;
    TEA_REQUIRE(fresh, "matrix market: duplicate entry (" +
                           std::to_string(i + 1) + ", " +
                           std::to_string(j + 1) + ")");
    if (sym == "symmetric" && i != j) {
      const bool mirror_fresh =
          seen.emplace(std::make_pair(j, i), v).second;
      TEA_REQUIRE(mirror_fresh,
                  "matrix market: symmetric file stores both (" +
                      std::to_string(i + 1) + ", " + std::to_string(j + 1) +
                      ") and its mirror");
    }
  }
  // A 'general' file must still describe a symmetric operator: every
  // off-diagonal needs an exactly-equal mirror (the CG-family solvers
  // assume A = Aᵀ and would mis-converge silently otherwise).
  if (sym == "general") {
    for (const auto& [rc, v] : seen) {
      if (rc.first == rc.second) continue;
      const auto mirror = seen.find({rc.second, rc.first});
      TEA_REQUIRE(mirror != seen.end() && mirror->second == v,
                  "matrix market: matrix is not symmetric at (" +
                      std::to_string(rc.first + 1) + ", " +
                      std::to_string(rc.second + 1) +
                      ") — the CG-family solvers need A = A^T");
    }
  }
  // Every row needs its diagonal stored: the Jacobi-type preconditioners
  // and the assembled kernels' diag-first row layout divide by it.
  for (std::int64_t r = 0; r < nrows; ++r) {
    const auto d = seen.find({r, r});
    TEA_REQUIRE(d != seen.end(), "matrix market: row " +
                                     std::to_string(r + 1) +
                                     " has no diagonal entry");
    TEA_REQUIRE(d->second != 0.0, "matrix market: row " +
                                      std::to_string(r + 1) +
                                      " has a zero diagonal");
  }
  // Sized from the entries actually read, never from the header's count:
  // a size line may claim any nnz, and a short file ends in the
  // "truncated file" error above.
  TripletMatrix m;
  m.n = nrows;
  m.entries.reserve(seen.size());
  for (const auto& [rc, v] : seen) {
    m.entries.push_back({rc.first, rc.second, v});
  }
  return m;
}

TripletMatrix load_matrix_market(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw TeaError("matrix market: cannot open '" + path + "'");
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& os, const TripletMatrix& m) {
  os << "%%MatrixMarket matrix coordinate real general\n";
  os << m.n << " " << m.n << " " << m.entries.size() << "\n";
  os.precision(17);
  for (const auto& e : m.entries) {
    os << (e.row + 1) << " " << (e.col + 1) << " " << e.val << "\n";
  }
}

void save_matrix_market(const std::string& path, const TripletMatrix& m) {
  std::ofstream os(path);
  if (!os) throw TeaError("matrix market: cannot write '" + path + "'");
  write_matrix_market(os, m);
}

CsrMatrix csr_from_triplets(const TripletMatrix& m, const Chunk& c) {
  TEA_REQUIRE(c.dims() == 2,
              "matrix market: loaded matrices map onto 2-D meshes only");
  const int nx = c.nx();
  const int ny = c.ny();
  TEA_REQUIRE(static_cast<std::int64_t>(nx) * ny == m.n,
              "matrix market: matrix dimension " + std::to_string(m.n) +
                  " does not match the " + std::to_string(nx) + " x " +
                  std::to_string(ny) + " mesh");

  // Bucket entries by row; order each row diagonal-first then ascending
  // column (entry 0 = diag is the kernels' and preconditioners' contract).
  std::vector<std::vector<TripletMatrix::Entry>> rows(
      static_cast<std::size_t>(m.n));
  for (const auto& e : m.entries) {
    rows[static_cast<std::size_t>(e.row)].push_back(e);
  }

  const auto& geom = c.u();  // any field: all share one geometry
  CsrMatrix csr;
  csr.nrows = m.n;
  csr.row_ptr.assign(static_cast<std::size_t>(m.n) + 1, 0);
  csr.cols.reserve(m.entries.size());
  csr.vals.reserve(m.entries.size());
  for (std::int64_t r = 0; r < m.n; ++r) {
    auto& row = rows[static_cast<std::size_t>(r)];
    std::sort(row.begin(), row.end(),
              [r](const TripletMatrix::Entry& a,
                  const TripletMatrix::Entry& b) {
                const bool ad = a.col == r;
                const bool bd = b.col == r;
                if (ad != bd) return ad;  // diagonal first
                return a.col < b.col;
              });
    for (const auto& e : row) {
      const int jc = static_cast<int>(e.col % nx);
      const int kc = static_cast<int>(e.col / nx);
      csr.cols.push_back(static_cast<std::int64_t>(geom.index(jc, kc, 0)));
      csr.vals.push_back(e.val);
    }
    csr.row_ptr[static_cast<std::size_t>(r) + 1] =
        static_cast<std::int64_t>(csr.vals.size());
  }
  return csr;
}

}  // namespace tealeaf::io
