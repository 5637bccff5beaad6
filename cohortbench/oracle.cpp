// The correctness oracle: bitwise comparison of gathered cohort fields
// against the SerialDriver reference.
#include <cstring>

#include "bench.hpp"

namespace cohortbench {

namespace {

using subsonic::PaddedField2D;
using subsonic::PaddedField3D;

std::vector<double> flatten(const PaddedField2D<double>& u) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(u.nx()) * u.ny());
  for (int y = 0; y < u.ny(); ++y)
    for (int x = 0; x < u.nx(); ++x) out.push_back(u(x, y));
  return out;
}

std::vector<double> flatten(const PaddedField3D<double>& u) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(u.nx()) * u.ny() * u.nz());
  for (int z = 0; z < u.nz(); ++z)
    for (int y = 0; y < u.ny(); ++y)
      for (int x = 0; x < u.nx(); ++x) out.push_back(u(x, y, z));
  return out;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

Snapshot snapshot_of(const subsonic::Domain2D& d) {
  return Snapshot{-1, {flatten(d.rho()), flatten(d.vx()), flatten(d.vy())}};
}

Snapshot snapshot_of(const subsonic::Domain3D& d) {
  return Snapshot{-1,
                  {flatten(d.rho()), flatten(d.vx()), flatten(d.vy()),
                   flatten(d.vz())}};
}

Snapshot snapshot_of(const subsonic::GatheredFields2D& g) {
  return Snapshot{g.step, {flatten(g.rho), flatten(g.vx), flatten(g.vy)}};
}

Snapshot snapshot_of(const subsonic::GatheredFields3D& g) {
  return Snapshot{g.step,
                  {flatten(g.rho), flatten(g.vx), flatten(g.vy),
                   flatten(g.vz)}};
}

long count_mismatched_cells(const Snapshot& ref, const Snapshot& got) {
  const long cells =
      ref.fields.empty() ? 0 : static_cast<long>(ref.fields.front().size());
  if (ref.step != got.step || ref.fields.size() != got.fields.size())
    return cells > 0 ? cells : 1;
  for (std::size_t f = 0; f < ref.fields.size(); ++f)
    if (ref.fields[f].size() != got.fields[f].size())
      return cells > 0 ? cells : 1;
  long bad = 0;
  for (long i = 0; i < cells; ++i) {
    for (std::size_t f = 0; f < ref.fields.size(); ++f) {
      const std::size_t k = static_cast<std::size_t>(i);
      if (!same_bits(ref.fields[f][k], got.fields[f][k])) {
        ++bad;
        break;
      }
    }
  }
  return bad;
}

}  // namespace cohortbench
