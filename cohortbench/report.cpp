// Statistics, the result line, spans and provenance.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "src/util/provenance.hpp"

namespace cohortbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string result_json(bool correct, long attempted, long failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << buf << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double json_number(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

// ---------------------------------------------------------------- spans

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope Tracer::span(std::string name) {
  if (!enabled_) return Scope(nullptr, -1);
  spans_.push_back(Span{std::move(name), open_, now_ns(), -1});
  open_ = static_cast<int>(spans_.size()) - 1;
  return Scope(this, open_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  auto& s = tracer_->spans_[static_cast<std::size_t>(index_)];
  s.end_ns = now_ns();
  tracer_->open_ = s.parent;
}

std::vector<double> Tracer::durations_s(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.end_ns >= 0 && s.name == name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e9);
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream f(path);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    f << (i ? ",\n" : "\n") << "{\"name\":\"" << json_escape(s.name)
      << "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":"
      << static_cast<double>(s.start_ns - origin) / 1e3
      << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
      << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  f << "\n]}\n";
}

// ----------------------------------------------------------- provenance

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line;
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in /proc/mounts).
std::string filesystem_type(const std::string& path) {
  char resolved[4096];
  const std::string abs =
      ::realpath(path.c_str(), resolved) ? resolved : path;
  std::ifstream mounts("/proc/mounts");
  std::string dev, mnt, type, rest, best_type = "unknown";
  std::size_t best = 0;
  while (mounts >> dev >> mnt >> type && std::getline(mounts, rest)) {
    const bool prefix =
        abs.compare(0, mnt.size(), mnt) == 0 &&
        (mnt == "/" || abs.size() == mnt.size() || abs[mnt.size()] == '/');
    if (prefix && mnt.size() >= best) {
      best = mnt.size();
      best_type = type;
    }
  }
  return best_type;
}

}  // namespace

std::int64_t llc_bytes() {
  std::int64_t best = 0;
  int best_level = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = read_first_line(dir + "level");
    const std::string size = read_first_line(dir + "size");
    const std::string type = read_first_line(dir + "type");
    if (level.empty() || size.empty() || type == "Instruction") continue;
    std::int64_t bytes = std::atoll(size.c_str());
    if (size.back() == 'K') bytes *= 1024;
    if (size.back() == 'M') bytes *= 1024 * 1024;
    if (std::atoi(level.c_str()) >= best_level) {
      best_level = std::atoi(level.c_str());
      best = bytes;
    }
  }
  return best;
}

double triad_gbps(std::int64_t array_bytes, int reps) {
  const std::size_t n = static_cast<std::size_t>(array_bytes) / sizeof(double);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double s = 3.0;
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    double* __restrict pa = a.data();
    const double* __restrict pb = b.data();
    const double* __restrict pc = c.data();
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + s * pc[i];
    const double dt = static_cast<double>(now_ns() - t0) / 1e9;
    best = std::max(best, 3.0 * static_cast<double>(array_bytes) / dt / 1e9);
  }
  // Keep the stores observable.
  if (a[n / 2] != 7.0) std::fprintf(stderr, "triad: unexpected value\n");
  return best;
}

std::string provenance_json(const std::string& workdir,
                            const std::string& git_rev, std::uint64_t seed,
                            double triad, const std::string& env_json,
                            const std::string& opts_json) {
  const subsonic::Provenance p = subsonic::collect_provenance();
  std::ostringstream os;
  os << "{\"cpu_model\": \"" << json_escape(p.cpu_model) << "\""
     << ", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"llc_bytes\": " << llc_bytes()
     << ", \"triad_gbps\": "
     << (triad > 0 ? std::to_string(triad) : std::string("null"))
     << ", \"compiler\": \"" << json_escape(p.compiler) << "\""
     << ", \"flags\": \"" << json_escape(p.flags) << "\""
     << ", \"build_type\": \"" << json_escape(p.build_type) << "\""
     << ", \"simd\": \"" << subsonic::simd_name(subsonic::active_simd())
     << "\""
     << ", \"workdir_fs\": \"" << json_escape(filesystem_type(workdir))
     << "\""
     << ", \"seed\": " << seed << ", \"git_rev\": \"" << json_escape(git_rev)
     << "\", \"environment\": " << env_json << ", \"options\": " << opts_json
     << "}";
  return os.str();
}

}  // namespace cohortbench
