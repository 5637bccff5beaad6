// Per-layer metrics of a traced run.  Every timing is a span recorded
// around a call into a layer's public functions; everything else is read
// from what the program already returns (ProcessRunResult, RankMetrics,
// run_summary.json).
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <thread>

#include "bench.hpp"

namespace cohortbench {

using namespace subsonic;

namespace {

constexpr double kKernelBudgetS = 0.25;  ///< timed span budget per kernel

/// Times `fn` under span `name` until the spans add up to `budget_s`
/// (at least `min_reps`, at most `max_reps` calls); median seconds.
template <typename Fn>
double time_median(Tracer& tracer, const std::string& name, double budget_s,
                   int min_reps, int max_reps, Fn&& fn) {
  double spent = 0;
  for (int r = 0; r < max_reps && (r < min_reps || spent < budget_s); ++r) {
    const std::int64_t t0 = now_ns();
    {
      auto span = tracer.span(name);
      fn();
    }
    spent += static_cast<double>(now_ns() - t0) / 1e9;
  }
  return median(tracer.durations_s(name));
}

/// ns per node of the three LB compute kinds on rank 0's subregion of
/// `w`, run in schedule order.
template <int Dim, typename Mask>
std::vector<double> solver_ns_per_node(const Workload& w, const Mask& mask,
                                       const std::string& prefix,
                                       Tracer& tracer) {
  using Traits = DomainTraits<Dim>;
  const auto decomp = Traits::make_decomposition(mask, w.grid);
  const auto box = decomp.box(0);
  const int ghost = required_ghost(w.method, w.params.filter_eps > 0);
  typename Traits::Domain d(mask, box, w.params, w.method, ghost, 1);
  const double nodes = static_cast<double>(box.count());
  std::vector<double> out;
  for (const ComputeKind kind :
       {ComputeKind::kLbCollideStream, ComputeKind::kLbMoments,
        ComputeKind::kFilterAndBc}) {
    // The phases before `kind` keep the state a real step would see.
    Traits::run_compute(d, ComputeKind::kLbCollideStream);
    Traits::run_compute(d, ComputeKind::kLbMoments);
    const std::string name =
        prefix + std::string(compute_phase_name(kind) + 8);  // drop "compute."
    out.push_back(time_median(tracer, name, kKernelBudgetS, 5, 2000,
                              [&] { Traits::run_compute(d, kind); }) /
                  nodes * 1e9);
  }
  return out;
}

template <int Dim, typename Mask>
double serial_kernel_share(const Workload& w, const Mask& mask, int steps,
                           Tracer& tracer) {
  SerialDriver<Dim> serial(mask, w.params, w.method, 1);
  const double wall = time_median(tracer, "runtime.serial.run", 0, 1, 1,
                                  [&] { serial.run(steps); });
  const telemetry::RankMetrics m =
      telemetry::collect_rank(serial.telemetry().metrics(), 0);
  return m.t_calc() / wall;
}

template <int Dim, typename Mask>
double threaded_step_ms(const Workload& w, const Mask& mask, int steps,
                        Tracer& tracer) {
  ParallelDriver<Dim> drv(mask, w.params, w.method, w.grid, nullptr,
                          Scheduling::kOverlap, 1);
  drv.run(1);  // lazy set-up stays outside the span
  return time_median(tracer, "runtime.threaded.run", 0, 1, 1,
                     [&] { drv.run(steps); }) /
         steps * 1e3;
}

double blocked_step_ms(const Workload& duct, int steps, Tracer& tracer) {
  BlockedDriver<3> drv(duct.mask3, duct.params, duct.method, duct.grid,
                       duct.options.block_side, nullptr, Scheduling::kOverlap,
                       1);
  drv.run(1);
  return time_median(tracer, "runtime.blocked.run", 0, 1, 1,
                     [&] { drv.run(steps); }) /
         steps * 1e3;
}

/// Round trip of one `doubles`-long payload between two threads over
/// TcpTransport, in microseconds (median).
double tcp_pingpong_us(const std::string& dir, std::size_t doubles,
                       Tracer& tracer) {
  const std::string registry = dir + "/pingpong.registry";
  std::remove(registry.c_str());
  TcpTransport t(2, registry);
  constexpr int kIters = 400;
  const std::vector<double> payload(std::max<std::size_t>(doubles, 1), 1.0);
  std::exception_ptr echo_error;
  std::thread echo([&] {
    try {
      for (long i = 0; i < kIters + 1; ++i)
        t.send(1, 0, make_tag(i, 0, 1), t.recv(1, 0, make_tag(i, 0, 0)));
    } catch (...) {
      echo_error = std::current_exception();
    }
  });
  std::exception_ptr error;
  try {
    // Iteration 0 opens the connections.
    t.send(0, 1, make_tag(0, 0, 0), payload);
    t.recv(0, 1, make_tag(0, 0, 1));
    for (long i = 1; i <= kIters; ++i) {
      auto span = tracer.span("comm.tcp.pingpong");
      t.send(0, 1, make_tag(i, 0, 0), payload);
      t.recv(0, 1, make_tag(i, 0, 1));
    }
  } catch (...) {
    error = std::current_exception();
  }
  echo.join();
  if (error) std::rethrow_exception(error);
  if (echo_error) std::rethrow_exception(echo_error);
  std::remove(registry.c_str());
  return median(tracer.durations_s("comm.tcp.pingpong")) * 1e6;
}

double rendezvous_roundtrip_us(Tracer& tracer) {
  rendezvous::Server server;
  rendezvous::Client client("127.0.0.1", server.port());
  rendezvous::PeerAddr addr;
  bool ok = true;
  for (int i = 0; i < 400; ++i) {
    auto span = tracer.span("comm.rendezvous.roundtrip");
    ok = client.publish(0, i % 4, "127.0.0.1", 20000 + i) && ok;
    ok = client.lookup(0, i % 4, &addr) && ok;
  }
  if (!ok) std::fprintf(stderr, "cohortbench: rendezvous request failed\n");
  return median(tracer.durations_s("comm.rendezvous.roundtrip")) * 1e6;
}

/// save_domain / restore_domain of the unit one dump holds: a rank's
/// subregion, or one block on the blocked runtime.
template <int Dim, typename Mask>
std::vector<double> io_costs(const Workload& w, const Mask& mask,
                             const std::string& dir, Tracer& tracer) {
  using Traits = DomainTraits<Dim>;
  const int ghost = required_ghost(w.method, w.params.filter_eps > 0);
  const auto box =
      w.options.block_side != 0
          ? Traits::make_block_decomposition(mask, w.grid,
                                             w.options.block_side, ghost)
                .box(0)
          : Traits::make_decomposition(mask, w.grid).box(0);
  typename Traits::Domain d(mask, box, w.params, w.method, ghost, 1);
  const std::string path = dir + "/io_probe.dump";
  const double save = time_median(tracer, "io.save_domain", 0.2, 5, 50,
                                  [&] { save_domain(d, path); });
  struct stat st {};
  const double bytes =
      ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0;
  const double restore = time_median(tracer, "io.restore_domain", 0.2, 5, 50,
                                     [&] { restore_domain(d, path); });
  std::remove(path.c_str());
  return {save * 1e3, bytes, restore * 1e3};
}

/// step.wall histogram merged over every rank of `r`.
telemetry::HistogramData step_wall(const ProcessRunResult& r) {
  telemetry::HistogramData h;
  for (const telemetry::RankMetrics& m : r.rank_metrics) {
    const auto it = m.histograms.find("step.wall");
    if (it == m.histograms.end()) continue;
    for (std::size_t i = 0; i < h.buckets.size(); ++i)
      h.buckets[i] += it->second.buckets[i];
    h.count += it->second.count;
    h.sum_s += it->second.sum_s;
  }
  return h;
}

}  // namespace

std::vector<Metric> measure_layers(const LayerInputs& in, Tracer& tracer) {
  const Workload& w = *in.w;
  std::vector<Metric> out;
  const auto add = [&](const char* name, double v, const char* unit) {
    out.push_back(Metric{name, v, unit});
  };

  // solver: the workload's own rank subregion in its own dimension; the
  // other dimension's kernels on the paper-shaped workload of that
  // dimension (flue2d_lb in 2D, duct3d_blocked in 3D).
  const Workload flue = w.dims == 2 ? w : make_workload("flue2d_lb", 0);
  const Workload duct = w.dims == 3 ? w : make_workload("duct3d_blocked", 0);
  const std::vector<double> ns2 =
      solver_ns_per_node<2>(flue, flue.mask2, "solver.2d.", tracer);
  const std::vector<double> ns3 =
      solver_ns_per_node<3>(duct, duct.mask3, "solver.3d.", tracer);
  add("solver.lb_collide_stream.ns_per_node", ns2[0], "ns");
  add("solver.lb_moments.ns_per_node", ns2[1], "ns");
  add("solver.filter_bc.ns_per_node", ns2[2], "ns");
  add("solver.lb3d_collide_stream.ns_per_node", ns3[0], "ns");
  add("solver.lb3d_moments.ns_per_node", ns3[1], "ns");
  add("solver.lb3d_filter_bc.ns_per_node", ns3[2], "ns");

  // Roofline of the fused collide-stream sweep in the workload's own
  // dimension.  Computed bytes: the macroscopic inputs (rho, u) read once
  // plus every population read once and written once, 8 bytes each;
  // write-allocate and cache misses are not counted.
  const double bytes_per_node = w.dims == 2 ? (3 + 2 * 9) * 8.0
                                            : (4 + 2 * 15) * 8.0;
  const double ns_collide = w.dims == 2 ? ns2[0] : ns3[0];
  const std::int64_t llc = llc_bytes();
  const std::int64_t array_bytes =
      std::max<std::int64_t>(4 * llc, std::int64_t{64} << 20);
  double triad = 0;
  {
    auto span = tracer.span("machine.triad");
    triad = triad_gbps(array_bytes, 3);
  }
  const double gbps = bytes_per_node / ns_collide;
  add("solver.bytes_per_node", bytes_per_node, "B");
  add("solver.gbps", gbps, "GB/s");
  add("solver.roofline_frac", gbps / triad, "ratio");
  add("machine.triad_gbps", triad, "GB/s");
  add("machine.llc_bytes", static_cast<double>(llc), "B");
  add("machine.triad_array_bytes", static_cast<double>(array_bytes), "B");

  // runtime: the same problem one layer at a time.
  const int probe_steps = std::max(8, w.steps / 4);
  const double share =
      w.dims == 2 ? serial_kernel_share<2>(w, w.mask2, probe_steps, tracer)
                  : serial_kernel_share<3>(w, w.mask3, probe_steps, tracer);
  const double threaded =
      w.dims == 2 ? threaded_step_ms<2>(w, w.mask2, probe_steps, tracer)
                  : threaded_step_ms<3>(w, w.mask3, probe_steps, tracer);
  const double blocked = blocked_step_ms(duct, 50, tracer);
  const double cohort_step =
      (in.run_untraced_s - in.setup_s) / (w.steps - 1) * 1e3;
  add("serial.kernel_share", share, "ratio");
  add("threaded.step_ms", threaded, "ms");
  add("blocked.step_ms", blocked, "ms");
  add("cohort.step_ms", cohort_step, "ms");
  add("cohort.over_threaded", threaded / cohort_step, "ratio");

  std::vector<double> calc_max, com_max, unattributed;
  for (const CohortSample& s : in.runs) {
    double calc = 0, com = 0, busy = 0;
    for (const WorkerStats& st : s.result.rank_stats) {
      calc = std::max(calc, st.compute_s);
      com = std::max(com, st.comm_s);
      busy = std::max(busy, st.compute_s + st.comm_s);
    }
    calc_max.push_back(calc);
    com_max.push_back(com);
    unattributed.push_back(1.0 - busy / s.run_s);
  }
  const ProcessRunResult& last = in.runs.back().result;
  const telemetry::HistogramData wall = step_wall(last);
  add("cohort.calc_s_max", median(calc_max), "s");
  add("cohort.com_s_max", median(com_max), "s");
  add("cohort.unattributed_frac", median(unattributed), "ratio");
  add("cohort.step_wall_p50_ms", wall.quantile_s(0.50) * 1e3, "ms");
  add("cohort.step_wall_p99_ms", wall.quantile_s(0.99) * 1e3, "ms");
  add("cohort.forks", last.forks, "count");
  add("cohort.restarts", last.restarts, "count");
  add("cohort.epochs_committed", static_cast<double>(last.committed_epoch + 1),
      "count");

  // Without a rebalance both imbalance figures are the run's measured
  // max/mean per-rank T_calc.
  double moved = 0;
  for (const telemetry::RebalanceRecord& r : last.rebalances)
    moved += r.moved_blocks;
  double calc_sum = 0, calc_top = 0;
  for (const WorkerStats& st : last.rank_stats) {
    calc_sum += st.compute_s;
    calc_top = std::max(calc_top, st.compute_s);
  }
  const double measured_imbalance =
      calc_sum > 0 ? calc_top * static_cast<double>(last.rank_stats.size()) /
                         calc_sum
                   : 0.0;
  add("rebalance.count", static_cast<double>(last.rebalances.size()),
      "count");
  add("rebalance.moved_blocks", moved, "count");
  add("rebalance.imbalance_before",
      last.rebalances.empty() ? measured_imbalance
                              : last.rebalances.front().imbalance_before,
      "ratio");
  add("rebalance.imbalance_after",
      last.rebalances.empty() ? measured_imbalance
                              : last.rebalances.back().imbalance_after,
      "ratio");

  // comm: transport counters of the last cohort run, then the transport
  // and the rendezvous service on their own.
  double msgs = 0, doubles = 0;
  for (const telemetry::RankMetrics& m : last.rank_metrics) {
    msgs += static_cast<double>(m.counter_or("transport.msgs_sent"));
    doubles += static_cast<double>(m.counter_or("transport.doubles_sent"));
  }
  add("comm.messages_per_step", msgs / w.steps, "msg/step");
  add("comm.bytes_per_step", doubles * 8 / w.steps, "B/step");
  const std::size_t face =
      msgs > 0 ? static_cast<std::size_t>(doubles / msgs + 0.5) : 1;
  add("comm.tcp_pingpong_us", tcp_pingpong_us(in.scratch, face, tracer),
      "us");
  add("rendezvous.roundtrip_us", rendezvous_roundtrip_us(tracer), "us");

  // io: one dump unit written and read back in the workload's workdir.
  const std::vector<double> io =
      w.dims == 2 ? io_costs<2>(w, w.mask2, in.scratch, tracer)
                  : io_costs<3>(w, w.mask3, in.scratch, tracer);
  add("io.save_domain_ms", io[0], "ms");
  add("io.dump_bytes", io[1], "B");
  add("io.restore_domain_ms", io[2], "ms");

  // telemetry and perfmodel.
  const bool traced_program = w.options.trace == 1;
  const double t_on = traced_program ? in.run_untraced_s : in.run_flipped_s;
  const double t_off = traced_program ? in.run_flipped_s : in.run_untraced_s;
  add("telemetry.trace_cost_frac", (t_on - t_off) / t_off, "ratio");
  add("bench.trace_overhead_frac",
      (in.run_traced_s - in.run_untraced_s) / in.run_untraced_s, "ratio");
  add("cohort.f_measured", json_number(in.summary_text, "measured_f"),
      "ratio");
  add("perfmodel.f_predicted_dedicated",
      json_number(in.summary_text, "predicted_f_dedicated"), "ratio");
  return out;
}

}  // namespace cohortbench
