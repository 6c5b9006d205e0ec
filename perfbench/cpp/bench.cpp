#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "math/simd.hpp"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  op(ok);
  if (!ok) {
    ++checks_failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid > 0 ? "/proc/" + std::to_string(pid) + "/status" : "/proc/self/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::string host_fingerprint() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  std::ostringstream s;
  s << "cores=" << std::thread::hardware_concurrency() << " cpu=\"" << model
    << "\" simd=" << swapgame::math::simd::to_string(
                         swapgame::math::simd::active_level())
    << " compiler=\"" << PERFBENCH_COMPILER << "\" build_type="
    << PERFBENCH_BUILD_TYPE;
  return s.str();
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double Draw::uniform(double lo, double hi) {
  state_ = mix(state_);
  const double u = static_cast<double>(state_ >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

std::uint64_t Draw::below(std::uint64_t n) {
  state_ = mix(state_);
  return state_ % n;
}

namespace {
/// Open spans of the current thread, innermost last.
thread_local std::vector<std::uint32_t> t_open;
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* layer, const char* name,
                     std::uint64_t request, std::uint32_t parent)
    : tracer_(tracer), layer_(layer), name_(name), request_(request) {
  if (tracer_ != nullptr) {
    parent_ = parent != 0 ? parent : t_open.empty() ? 0 : t_open.back();
    id_ = tracer_->open();
    t_open.push_back(id_);
  }
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->close(*this);
  t_open.pop_back();
}

std::uint32_t Tracer::open() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::close(const Scope& scope) {
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  const Span span{scope.id_,   scope.parent_,   scope.request_,
                  scope.layer_, scope.name_, ns(scope.start_),
                  ns(Clock::now())};
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    std::int64_t covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the child intervals, clipped to the parent.
      std::vector<std::pair<std::int64_t, std::int64_t>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0;
      std::int64_t cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    self[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"request\":%llu,\"layer\":\"%s\","
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.id, s.parent, static_cast<unsigned long long>(s.request),
                 s.layer, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void trace_summary(const Options& opts, const Tracer& tracer) {
  const std::string path = opts.out_dir + "/spans_" + opts.workload + ".jsonl";
  if (!tracer.write_jsonl(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
  std::printf("spans: %zu written to %s\n", tracer.size(), path.c_str());
  for (const auto& [layer, s] : tracer.self_seconds()) {
    std::printf("  self time %-24s %12.6f s\n", layer.c_str(), s);
  }
}

}  // namespace perfbench
