// The cohortbench binary.
//
//   cohortbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --workdir <dir> [--git-rev <rev>]
//
// Prints a provenance line, then as its last line the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace fs = std::filesystem;
using namespace cohortbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  std::string workdir;
  std::string git_rev = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--git-rev") a.git_rev = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty() || a.workdir.empty() || a.seconds <= 0 ||
      (a.trace != 0 && a.trace != 1))
    throw std::invalid_argument(
        "usage: cohortbench --workload W --seed N --seconds S --trace 0|1 "
        "--workdir DIR [--git-rev REV]");
  return a;
}

constexpr int kMinRounds = 3;
constexpr int kMaxRounds = 200;
// Per-round budgets of the samples taken besides the full run.
constexpr double kGatherBudgetS = 0.25;  ///< repeated gathers
constexpr int kMaxGathers = 16;
constexpr double kSetupBudgetS = 0.3;    ///< 1-step runs
constexpr int kMaxSetupRuns = 24;
constexpr double kSerialSliceS = 0.3;    ///< serial slices

std::string json_list(const std::vector<double>& v) {
  std::ostringstream os;
  os.precision(9);
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  os << ']';
  return os.str();
}

double since_s(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// Counts every operation of the run and its failures: a run call or a
/// gather that throws, and a gather whose fields differ from the serial
/// reference in any cell.
struct Ledger {
  long attempted = 0;
  long failed = 0;
  long mismatched_cells = 0;

  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// What one supervised run produced; times are < 0 when the call failed.
struct RunOutcome {
  double run_s = -1;
  std::vector<double> gather_s;
  subsonic::ProcessRunResult result;
  std::string summary_text;
};

class Bench {
 public:
  Bench(const Args& args, Workload w)
      : args_(args), w_(std::move(w)), tracer_(args.trace == 1) {}

  int main();

 private:
  /// One supervised run of `steps` in a fresh directory, then its gather
  /// and bitwise check, repeated (each checked) until the gathers have
  /// been timed for `gather_budget_s`.  The directory is kept until
  /// clean_up().
  RunOutcome run_once(int steps, const subsonic::ProcessRunOptions& o,
                      double gather_budget_s = 0);
  const Snapshot* reference(long step) const {
    for (const Snapshot& s : refs_)
      if (s.step == step) return &s;
    return nullptr;
  }
  void check(const Snapshot& got) {
    const Snapshot* ref = reference(got.step);
    const long bad = ref ? count_mismatched_cells(*ref, got) : -1;
    if (bad != 0)
      std::fprintf(stderr, "cohortbench: %s step %ld: %ld mismatched cells\n",
                   w_.name.c_str(), got.step, bad);
    ledger_.mismatched_cells += std::max(bad, 0L);
    ledger_.op(bad == 0);
  }

  /// Removes every run directory and waits for the filesystem to commit
  /// it.  Runs after the timed rounds: deleting dumps on a filesystem
  /// mounted with online discard stalls the next journal commit, and so
  /// the next fsync, which would land in a later timed run.
  void clean_up();

  Args args_;
  Workload w_;
  Tracer tracer_;
  Ledger ledger_;
  std::vector<Snapshot> refs_;
  int dir_counter_ = 0;
};

RunOutcome Bench::run_once(int steps, const subsonic::ProcessRunOptions& o,
                           double gather_budget_s) {
  RunOutcome out;
  const std::string dir =
      args_.workdir + "/run_" + std::to_string(dir_counter_++);
  fs::remove_all(dir);
  fs::create_directories(dir);
  try {
    const std::int64_t t0 = now_ns();
    {
      auto span = tracer_.span("cohort.run");
      out.result = run_cohort(w_, steps, dir, o);
    }
    out.run_s = since_s(t0);
    ledger_.op(true);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cohortbench: run failed: %s\n", e.what());
    ledger_.op(false);
    ledger_.op(false);  // its gather cannot happen
    return out;
  }
  if (!out.result.summary_path.empty()) {
    std::ifstream f(out.result.summary_path);
    out.summary_text.assign(std::istreambuf_iterator<char>(f), {});
  }
  const std::int64_t budget_start = now_ns();
  for (int g = 0; g < kMaxGathers &&
                  (g == 0 || since_s(budget_start) < gather_budget_s);
       ++g) {
    try {
      const std::int64_t t0 = now_ns();
      Snapshot got;
      {
        auto span = tracer_.span("cohort.gather");
        got = gather(w_, dir);
      }
      out.gather_s.push_back(since_s(t0));
      check(got);
      // The checkpointing workload also proves its newest committed epoch.
      if (g == 0 && out.result.committed_epoch >= 0)
        check(gather(w_, dir, out.result.committed_epoch));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cohortbench: gather failed: %s\n", e.what());
      ledger_.op(false);
      break;
    }
  }
  return out;
}

void Bench::clean_up() {
  for (const auto& entry : fs::directory_iterator(args_.workdir))
    if (entry.path().filename().string().rfind("run_", 0) == 0)
      fs::remove_all(entry.path());
  const int fd = ::open(args_.workdir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

int Bench::main() {
  fs::create_directories(args_.workdir);
  clean_up();
  const std::string env_json = pin_environment();
  const subsonic::ProcessRunOptions& o = w_.options;

  // Warm-up: one full and one 1-step run, forked before anything large is
  // allocated here so the ranks inherit no pages of the serial reference;
  // the peak rank RSS is read right after.  Their gathers wait for the
  // reference, so the directories are kept until then.
  const std::string warm_dir = args_.workdir + "/run_warm";
  const std::string warm1_dir = args_.workdir + "/run_warm1";
  for (const std::string& d : {warm_dir, warm1_dir}) {
    fs::remove_all(d);
    fs::create_directories(d);
  }
  subsonic::ProcessRunResult warm;
  bool warm_ok = true;
  try {
    warm = run_cohort(w_, w_.steps, warm_dir, o);
    run_cohort(w_, 1, warm1_dir, o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cohortbench: warm-up run failed: %s\n", e.what());
    warm_ok = false;
  }
  ledger_.op(warm_ok);
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  const double rank_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  // The serial reference at every step a check needs: 1 (set-up runs),
  // the newest committed epoch of a checkpointing run, and the full run.
  std::vector<long> at = {1, w_.steps};
  if (warm_ok && warm.committed_epoch >= 0) {
    try {
      at.push_back(gather(w_, warm_dir, warm.committed_epoch).step);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cohortbench: epoch gather failed: %s\n",
                   e.what());
      ledger_.op(false);
    }
  }
  std::sort(at.begin(), at.end());
  at.erase(std::unique(at.begin(), at.end()), at.end());
  // serial_mlups samples are per-step times: the reference run, then one
  // sample per round from a second SerialDriver advanced in slices.
  std::vector<double> serial_step_s;
  {
    auto span = tracer_.span("serial.reference");
    SerialRun reference(w_);
    double s = 0;
    long done = 0;
    for (const long step : at) {
      s += reference.advance(static_cast<int>(step - done));
      done = step;
      refs_.push_back(reference.snapshot());
    }
    serial_step_s.push_back(s / w_.steps);
  }
  SerialRun serial_clock(w_);
  const int slice = std::max(1, w_.steps / 10);
  if (warm_ok) {
    try {
      check(gather(w_, warm_dir));
      if (warm.committed_epoch >= 0)
        check(gather(w_, warm_dir, warm.committed_epoch));
      check(gather(w_, warm1_dir));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cohortbench: warm-up gather failed: %s\n",
                   e.what());
      ledger_.op(false);
    }
  }

  // Timed rounds: closed loop, one cohort at a time.  A round is one full
  // run, its repeated gathers, 1-step runs and a serial slice; a traced
  // round adds a full run with the benchmark's spans off and one with the
  // program's own trace flipped.  Every run and gather is checked.
  std::vector<double> run_s, gather_s, setup_s, untraced_s, flipped_s;
  std::vector<CohortSample> samples;
  std::string summary_text;
  subsonic::ProcessRunOptions flipped = o;
  flipped.trace = o.trace == 1 ? 0 : 1;
  const std::int64_t start = now_ns();
  for (int round = 0; round < kMaxRounds && (round < kMinRounds ||
                                             since_s(start) < args_.seconds);
       ++round) {
    // Repeated gathers give a cheap gather a steady median too.
    RunOutcome full = run_once(w_.steps, o, kGatherBudgetS);
    if (full.run_s > 0) {
      run_s.push_back(full.run_s);
      gather_s.insert(gather_s.end(), full.gather_s.begin(),
                      full.gather_s.end());
      summary_text = full.summary_text;
      samples.push_back(CohortSample{full.run_s, std::move(full.result)});
    }
    const std::int64_t setup_start = now_ns();
    for (int k = 0; k < kMaxSetupRuns &&
                    (k == 0 || since_s(setup_start) < kSetupBudgetS);
         ++k) {
      const RunOutcome one = run_once(1, o);
      if (one.run_s > 0) setup_s.push_back(one.run_s);
    }
    {
      auto span = tracer_.span("serial.slice");
      double spent = 0;
      long steps = 0;
      while (spent < kSerialSliceS) {
        spent += serial_clock.advance(slice);
        steps += slice;
      }
      serial_step_s.push_back(spent / static_cast<double>(steps));
    }
    if (args_.trace == 1) {
      tracer_.set_enabled(false);
      const RunOutcome off = run_once(w_.steps, o);
      tracer_.set_enabled(true);
      if (off.run_s > 0) untraced_s.push_back(off.run_s);
      const RunOutcome flip = run_once(w_.steps, flipped);
      if (flip.run_s > 0) flipped_s.push_back(flip.run_s);
    }
  }

  clean_up();

  std::vector<Metric> metrics;
  if (args_.trace == 0) {
    const double nodes = static_cast<double>(w_.updated_nodes());
    metrics = {
        {"mlups", nodes * w_.steps / median(run_s) / 1e6, "MLUPS"},
        {"setup_s", median(setup_s), "s"},
        {"gather_s", median(gather_s), "s"},
        {"serial_mlups", nodes / median(serial_step_s) / 1e6, "MLUPS"},
        {"rank_rss_mb", rank_rss_mb, "MB"},
        {"ok_ratio",
         1.0 - static_cast<double>(ledger_.failed) /
                   static_cast<double>(ledger_.attempted),
         "ratio"},
    };
  } else if (!samples.empty() && !untraced_s.empty() && !flipped_s.empty()) {
    LayerInputs in;
    in.w = &w_;
    in.scratch = args_.workdir;
    in.runs = std::move(samples);
    in.run_traced_s = median(run_s);
    in.run_untraced_s = median(untraced_s);
    in.run_flipped_s = median(flipped_s);
    in.setup_s = median(setup_s);
    in.summary_text = summary_text;
    try {
      auto span = tracer_.span("layers");
      metrics = measure_layers(in, tracer_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cohortbench: layer probe failed: %s\n", e.what());
      ledger_.op(false);
    }
    tracer_.write_json(args_.workdir + "/spans.json");
  }

  // Provenance: the triad figure is this run's own in traced mode, else
  // the newest one a traced run of this checkout measured (null before
  // the first).  Untraced runs do not allocate the 4x-LLC arrays.
  double triad = 0;
  for (const Metric& m : metrics)
    if (m.name == "machine.triad_gbps") triad = m.value;
  const std::string triad_cache = args_.workdir + "/../triad_gbps.txt";
  if (triad > 0) {
    std::ofstream(triad_cache) << triad << "\n";
  } else {
    std::ifstream(triad_cache) >> triad;
  }
  const std::string prov = provenance_json(
      args_.workdir, args_.git_rev, args_.seed, triad, env_json,
      options_json(w_));
  const bool correct = ledger_.failed == 0 && !metrics.empty();
  const std::string result =
      result_json(correct, ledger_.attempted, ledger_.failed, metrics);
  std::ofstream(args_.workdir + "/result.json")
      << "{\"provenance\": " << prov << ",\n \"rounds\": " << run_s.size()
      << ",\n \"mismatched_cells\": " << ledger_.mismatched_cells
      << ",\n \"samples\": {\"run_s\": " << json_list(run_s)
      << ", \"setup_s\": " << json_list(setup_s)
      << ", \"gather_s\": " << json_list(gather_s)
      << ", \"serial_step_s\": " << json_list(serial_step_s) << "}"
      << ",\n \"result\": " << result << "}\n";
  std::cout << "{\"provenance\": " << prov << "}\n" << result << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Bench bench(args, make_workload(args.workload, args.seed));
    return bench.main();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cohortbench: %s\n", e.what());
    return 2;
  }
}
