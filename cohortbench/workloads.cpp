// The three workloads, their pinned options, and the calls into the
// runtime that every mode shares: cohort run, gather, serial run.
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

extern char** environ;

namespace cohortbench {

using namespace subsonic;

namespace {

/// Options every workload pins, whatever the environment says: library
/// defaults made explicit, with faults off and the status endpoint off.
ProcessRunOptions pinned_options() {
  ProcessRunOptions o;
  o.sched = Scheduling::kOverlap;
  o.threads = 1;
  o.checkpoint_interval = 0;
  o.faults = ";";  // parses to an empty plan; "" would read SUBSONIC_FAULTS
  o.trace = 0;
  o.block_side = 0;
  o.rebalance_interval = 0;
  o.metrics_flush_interval = 16;
  o.status_port = -1;
  o.liveness.heartbeat_floor_ms = 5000;
  o.liveness.socket_channels = -1;  // pipes
  o.launcher = "fork";
  return o;
}

}  // namespace

std::int64_t Workload::updated_nodes() const {
  if (dims == 2)
    return mask2.extents().count() -
           mask2.count_box(full_box(mask2.extents()), NodeType::kWall);
  return mask3.extents().count() -
         mask3.count_box(full_box(mask3.extents()), NodeType::kWall);
}

int slowed_rank_for_seed(std::uint64_t seed) {
  return static_cast<int>(seed % 4);
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.options = pinned_options();
  w.params.dt = 1.0;
  if (name == "flue2d_lb") {
    // Paper Figure 1 at its own size.
    const Geometry2D geo =
        build_flue_pipe(Extents2{800, 500}, FluePipeVariant::kBasic, 3);
    w.mask2 = geo.mask;
    w.params.nu = 0.01;
    w.params.filter_eps = 0.1;
    w.params.inlet_vx = geo.inlet_speed;
    w.grid = GridShape{2, 2, 1};
    w.steps = 400;
  } else if (name == "demo2d_ckpt") {
    // The telemetry_demo production configuration, run long.
    w.mask2 = Mask2D(Extents2{96, 96}, 1);
    w.params.nu = 0.02;
    w.params.periodic_x = w.params.periodic_y = true;
    w.grid = GridShape{2, 2, 1};
    w.steps = 2400;
    w.options.checkpoint_interval = 8;
    w.options.trace = 1;
  } else if (name == "duct3d_blocked") {
    // Body-force duct on the blocked runtime with one slow rank.
    w.dims = 3;
    w.mask3 = build_channel3d(Extents3{64, 48, 32}, 1);
    w.params.nu = 0.1;
    w.params.periodic_x = true;
    w.params.force_x = 1e-4;
    // 2x1x2 gives every rank 6 of the 4x3x2 blocks and mirror-image
    // subregions, so which rank is slowed does not change the problem.
    // (2x2x1 would split the 3 block rows in y 2:1 — 8, 8, 4, 4 blocks.)
    w.grid = GridShape{2, 1, 2};
    w.steps = 200;
    w.slowed_rank = slowed_rank_for_seed(seed);
    w.options.block_side = 16;
    w.options.rebalance_interval = 100;
    w.options.faults =
        "slow:rank=" + std::to_string(w.slowed_rank) + ",permille=2000";
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

std::string pin_environment() {
  std::vector<std::string> drop;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "SUBSONIC_", 9) == 0) {
      const char* eq = std::strchr(*e, '=');
      drop.emplace_back(*e, eq ? static_cast<std::size_t>(eq - *e)
                               : std::strlen(*e));
    }
  for (const std::string& k : drop) ::unsetenv(k.c_str());
  // Settings without a ProcessRunOptions field: telemetry of in-process
  // drivers, intra-subregion threads and the kernel dispatch level.
  ::setenv("SUBSONIC_TRACE", "0", 1);
  ::setenv("SUBSONIC_THREADS", "1", 1);
  ::setenv("SUBSONIC_SIMD", "auto", 1);
  reset_simd();
  std::ostringstream os;
  os << "{\"cleared\": [";
  for (std::size_t i = 0; i < drop.size(); ++i)
    os << (i ? ", " : "") << '"' << drop[i] << '"';
  os << "], \"SUBSONIC_TRACE\": \"0\", \"SUBSONIC_THREADS\": \"1\", "
        "\"SUBSONIC_SIMD\": \"auto\", \"simd_resolved\": \""
     << simd_name(active_simd()) << "\"}";
  return os.str();
}

std::string options_json(const Workload& w) {
  const ProcessRunOptions& o = w.options;
  std::ostringstream os;
  os << "{\"workload\": \"" << w.name << "\", \"dims\": " << w.dims
     << ", \"grid\": [" << w.grid.jx << ", " << w.grid.jy << ", "
     << w.grid.jz << "], \"steps\": " << w.steps
     << ", \"updated_nodes\": " << w.updated_nodes()
     << ", \"sched\": \"overlap\", \"threads\": " << o.threads
     << ", \"checkpoint_interval\": " << o.checkpoint_interval
     << ", \"faults\": \"" << json_escape(o.faults) << "\""
     << ", \"slowed_rank\": " << w.slowed_rank << ", \"trace\": " << o.trace
     << ", \"block_side\": " << o.block_side
     << ", \"rebalance_interval\": " << o.rebalance_interval
     << ", \"metrics_flush_interval\": " << o.metrics_flush_interval
     << ", \"status_port\": " << o.status_port
     << ", \"heartbeat_floor_ms\": " << o.liveness.heartbeat_floor_ms
     << ", \"liveness_channel\": \""
     << (o.liveness.socket_channels > 0 ? "socket" : "pipe") << "\""
     << ", \"launcher\": \"" << o.launcher << "\"}";
  return os.str();
}

ProcessRunResult run_cohort(const Workload& w, int steps,
                            const std::string& workdir,
                            const ProcessRunOptions& o) {
  if (w.dims == 2)
    return run_supervised<2>(w.mask2, w.params, w.method, w.grid, steps,
                             workdir, o);
  return run_supervised<3>(w.mask3, w.params, w.method, w.grid, steps,
                           workdir, o);
}

Snapshot gather(const Workload& w, const std::string& workdir, long epoch) {
  const GridShape& g = w.grid;
  const int side = w.options.block_side;
  if (w.dims == 2) {
    return snapshot_of(
        side != 0 ? gather_fields2d_blocked(w.mask2, w.params, w.method, g.jx,
                                            g.jy, side, workdir, epoch)
                  : gather_fields2d(w.mask2, w.params, w.method, g.jx, g.jy,
                                    workdir, epoch));
  }
  return snapshot_of(
      side != 0
          ? gather_fields3d_blocked(w.mask3, w.params, w.method, g.jx, g.jy,
                                    g.jz, side, workdir, epoch)
          : gather_fields3d(w.mask3, w.params, w.method, g.jx, g.jy, g.jz,
                            workdir, epoch));
}

SerialRun::SerialRun(const Workload& w) {
  if (w.dims == 2)
    serial2_ = std::make_unique<SerialDriver<2>>(w.mask2, w.params, w.method, 1);
  else
    serial3_ = std::make_unique<SerialDriver<3>>(w.mask3, w.params, w.method, 1);
}

SerialRun::~SerialRun() = default;

double SerialRun::advance(int steps) {
  const std::int64_t t0 = now_ns();
  if (serial2_)
    serial2_->run(steps);
  else
    serial3_->run(steps);
  step_ += steps;
  return static_cast<double>(now_ns() - t0) / 1e9;
}

Snapshot SerialRun::snapshot() const {
  Snapshot s = serial2_ ? snapshot_of(serial2_->domain())
                        : snapshot_of(serial3_->domain());
  s.step = step_;
  return s;
}

}  // namespace cohortbench
