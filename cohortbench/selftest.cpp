// Self-tests of the benchmark's own code: the bitwise comparator, the
// seed -> slowed-rank mapping and the result-line layout.  Exits non-zero
// when any check fails.  Metric and workload names, and the metric sets
// real runs emit, are checked by selftest.py against BENCHMARK.json.
#include <cmath>
#include <cstdio>
#include <string>

#include "bench.hpp"

using namespace cohortbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

void comparator_flags_one_ulp() {
  Snapshot ref{7, {{1.0, 0.25, -3.5}, {0.0, 2.0, 1e-300}}};
  expect(count_mismatched_cells(ref, ref) == 0, "identical snapshots match");
  Snapshot got = ref;
  got.fields[1][2] = std::nextafter(ref.fields[1][2], 1.0);
  expect(count_mismatched_cells(ref, got) == 1, "one ULP is one cell");
  got = ref;
  got.fields[1][0] = -0.0;
  expect(count_mismatched_cells(ref, got) == 1, "-0.0 differs from +0.0");
  got = ref;
  got.step = 8;
  expect(count_mismatched_cells(ref, got) == 3, "step mismatch fails all");
  got = ref;
  got.fields[0].pop_back();
  expect(count_mismatched_cells(ref, got) == 3, "size mismatch fails all");
}

void seed_picks_the_slowed_rank() {
  for (std::uint64_t seed = 0; seed < 9; ++seed) {
    const int r = static_cast<int>(seed % 4);
    expect(slowed_rank_for_seed(seed) == r, "seed maps to rank");
    const Workload w = make_workload("duct3d_blocked", seed);
    expect(w.slowed_rank == r, "workload slows the seed's rank");
    expect(w.options.faults ==
               "slow:rank=" + std::to_string(r) + ",permille=2000",
           "fault spec names the seed's rank");
  }
  for (const char* name : {"flue2d_lb", "demo2d_ckpt"}) {
    expect(make_workload(name, 1).options.faults ==
               make_workload(name, 2).options.faults,
           std::string(name) + " does not depend on the seed");
    expect(make_workload(name, 3).options.faults == ";",
           std::string(name) + " pins an empty fault plan");
  }
}

void result_line_has_exactly_the_four_keys() {
  const std::string line =
      result_json(true, 3, 0, {{"mlups", 1.5, "MLUPS"}, {"setup_s", 0.25, "s"}});
  expect(line == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                 "\"metrics\": {\"mlups\": {\"value\": 1.5, \"unit\": "
                 "\"MLUPS\"}, \"setup_s\": {\"value\": 0.25, \"unit\": "
                 "\"s\"}}}",
         "result line layout: " + line);
}

}  // namespace

int main() {
  comparator_flags_one_ulp();
  seed_picks_the_slowed_rank();
  result_line_has_exactly_the_four_keys();
  if (failures == 0) std::printf("cohortbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
