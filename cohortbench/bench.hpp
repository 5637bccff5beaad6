// cohortbench: the repository benchmark.  One supervised cohort at a time
// (a closed loop with one client), P = 4 rank processes, on three
// paper-shaped workloads; every timed run is checked bitwise against the
// single-thread SerialDriver.  README.md in this directory explains the
// workloads and metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/comm/rendezvous.hpp"
#include "src/core/subsonic.hpp"
#include "src/solver/simd.hpp"

namespace cohortbench {

using subsonic::GridShape;

// ---------------------------------------------------------------- stats

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty vector.
double median(std::vector<double> v);

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The result line the benchmark prints last: exactly the keys correct,
/// attempted, failed and metrics.
std::string result_json(bool correct, long attempted, long failed,
                        const std::vector<Metric>& metrics);

/// Minimal JSON string escaping for provenance values.
std::string json_escape(std::string_view s);

// ---------------------------------------------------------------- spans

/// Spans the benchmark records around its own calls into each layer: name,
/// parent, start and end.  Kept in memory and written out at the end of a
/// traced run.  A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  /// Opens a span that closes when the returned scope is destroyed.
  Scope span(std::string name);

  void set_enabled(bool on) { enabled_ = on; }

  /// Durations in seconds of every closed span called `name`, in order.
  std::vector<double> durations_s(std::string_view name) const;

  /// Chrome-trace JSON of every recorded span.
  void write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };
  bool enabled_;
  std::vector<Span> spans_;
  int open_ = -1;  ///< innermost open span (parent of the next)
};

std::int64_t now_ns();

// ---------------------------------------------------------------- oracle

/// The macroscopic fields of a whole grid at one step, flattened in x-
/// fastest order: rho, vx, vy (and vz in 3D).
struct Snapshot {
  long step = -1;
  std::vector<std::vector<double>> fields;
};

Snapshot snapshot_of(const subsonic::Domain2D& d);
Snapshot snapshot_of(const subsonic::Domain3D& d);
Snapshot snapshot_of(const subsonic::GatheredFields2D& g);
Snapshot snapshot_of(const subsonic::GatheredFields3D& g);

/// Cells whose value differs bitwise from the reference in any field.  A
/// step, field-count or size mismatch makes every reference cell count.
long count_mismatched_cells(const Snapshot& ref, const Snapshot& got);

// ------------------------------------------------------------- workloads

/// One workload: the problem, its decomposition and every supervision
/// option pinned to an explicit value.
struct Workload {
  std::string name;
  int dims = 2;
  subsonic::Mask2D mask2;  ///< dims == 2
  subsonic::Mask3D mask3;  ///< dims == 3
  subsonic::FluidParams params;
  subsonic::Method method = subsonic::Method::kLatticeBoltzmann;
  GridShape grid;
  int steps = 0;          ///< steps of one timed run
  int slowed_rank = -1;   ///< rank the slow fault targets (-1: none)
  subsonic::ProcessRunOptions options;

  /// Nodes the solver updates: every node that is not a wall.
  std::int64_t updated_nodes() const;
};

/// The rank duct3d_blocked slows for `seed`.
int slowed_rank_for_seed(std::uint64_t seed);

/// Builds workload `name`; throws std::invalid_argument for an unknown
/// name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Clears every SUBSONIC_* variable and sets the few that have no option
/// in the API (trace of in-process drivers, worker threads, SIMD), so no
/// environment setting leaks into a run.  Returns the pinned settings as
/// a JSON object.
std::string pin_environment();

/// The resolved ProcessRunOptions of `w` as a JSON object (provenance).
std::string options_json(const Workload& w);

/// Runs the supervised cohort of `w` for `steps` steps in `workdir`.
subsonic::ProcessRunResult run_cohort(const Workload& w, int steps,
                                      const std::string& workdir,
                                      const subsonic::ProcessRunOptions& o);

/// Gathers the dumps a run of `w` left in `workdir` (epoch -1: the final
/// dumps).
Snapshot gather(const Workload& w, const std::string& workdir,
                long epoch = -1);

/// The single-thread SerialDriver of `w`: the correctness reference and
/// the serial baseline.  The timed rounds advance a second one a slice at
/// a time, so the serial samples span the same window as the cohort
/// samples.
class SerialRun {
 public:
  explicit SerialRun(const Workload& w);
  ~SerialRun();
  SerialRun(const SerialRun&) = delete;
  SerialRun& operator=(const SerialRun&) = delete;

  /// Advances `steps` steps; returns the seconds spent in SerialDriver::run.
  double advance(int steps);

  /// The fields now, stamped with the step count reached.
  Snapshot snapshot() const;

 private:
  long step_ = 0;
  std::unique_ptr<subsonic::SerialDriver<2>> serial2_;
  std::unique_ptr<subsonic::SerialDriver<3>> serial3_;
};

// ----------------------------------------------------------- provenance

std::string provenance_json(const std::string& workdir,
                            const std::string& git_rev, std::uint64_t seed,
                            double triad, const std::string& env_json,
                            const std::string& options_json);

/// Size of the last-level cache in bytes (0 when unknown).
std::int64_t llc_bytes();

/// Single-thread STREAM triad a = b + s*c over arrays of `array_bytes`
/// each; best of `reps` passes, in GB/s (counting 24 bytes per element).
double triad_gbps(std::int64_t array_bytes, int reps);

// --------------------------------------------------------------- layers

/// One full-length cohort run of a traced run.
struct CohortSample {
  double run_s = 0;
  subsonic::ProcessRunResult result;
};

/// What the traced run's cohort rounds hand to the per-layer probes.
struct LayerInputs {
  const Workload* w = nullptr;
  std::string scratch;  ///< directory the layer probes may write in
  std::vector<CohortSample> runs;  ///< full-length runs, traced spans on
  double run_untraced_s = 0;   ///< median full run with spans off
  double run_traced_s = 0;     ///< median full run with spans on
  double run_flipped_s = 0;    ///< median full run, program trace flipped
  double setup_s = 0;          ///< median 1-step run
  std::string summary_text;    ///< run_summary.json of the last run
};

std::vector<Metric> measure_layers(const LayerInputs& in, Tracer& tracer);

/// Numeric value of `"key": <number>` in a flat JSON text (0 if absent).
double json_number(const std::string& text, const std::string& key);

}  // namespace cohortbench
