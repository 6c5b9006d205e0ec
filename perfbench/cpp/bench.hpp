// Shared plumbing of the swapgame benchmark: the run options, the result
// a workload hands back, timing helpers, the host fingerprint and the span
// recorder of the traced mode.
//
// Everything here lives outside the library: spans wrap calls INTO the
// library's public API from the benchmark's own code, so the library and
// its determinism contracts are untouched by measurement.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sets the amount of work: each workload sizes its inputs so that the
  /// timed part lasts about this long on the reference host.
  double seconds = 10.0;
  bool trace = false;
  std::string daemon_path;  ///< swapgamed binary (sweep_service only)
  std::string out_dir;      ///< span dumps and daemon sockets go here
  unsigned threads = 1;     ///< nproc: the load never exceeds it
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `metrics` is the machine-read set (the
/// end-to-end metrics untraced, the per-layer metrics traced); `report`
/// holds the workload's own names for the same numbers, printed for people.
class Outcome {
 public:
  using Metrics = std::vector<std::pair<std::string, Metric>>;

  /// Counts one operation that succeeded or failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Counts one output check; a failed check is also described on stderr.
  void check(bool ok, const std::string& what);

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void report(const std::string& name, double value, const std::string& unit) {
    report_.emplace_back(name, Metric{value, unit});
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return checks_failed_ == 0; }
  [[nodiscard]] const std::map<std::string, Metric>& metrics() const {
    return metrics_;
  }
  [[nodiscard]] const Metrics& reported() const { return report_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_failed_ = 0;
  std::map<std::string, Metric> metrics_;
  Metrics report_;
};

/// Quantile by linear interpolation between closest ranks; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Set-up time of one `setup()` call.  A single set-up takes well under
/// the time of a scheduler hiccup, so each sample is the mean of a batch,
/// and batches are timed at several moments of a run (sample() between
/// timed operations), since set-ups timed back to back see only one moment
/// of the host's load.  The result is the median batch mean.
class SetupTimer {
 public:
  SetupTimer(int batch, std::function<void()> setup)
      : batch_(batch), setup_(std::move(setup)) {}

  /// Times `batches` batches; returns the seconds they took in all.
  double sample(int batches = 1) {
    const Clock::time_point start = Clock::now();
    for (int k = 0; k < batches; ++k) {
      const Clock::time_point t0 = Clock::now();
      for (int b = 0; b < batch_; ++b) setup_();
      means_.push_back(seconds_since(t0) / batch_);
    }
    return seconds_since(start);
  }
  [[nodiscard]] double seconds() const { return median(means_); }

 private:
  int batch_;
  std::function<void()> setup_;
  std::vector<double> means_;
};

/// Peak resident set (VmHWM) of a process in MB; 0 when unreadable.
[[nodiscard]] double peak_rss_mb(int pid = 0);

/// One line describing the host and build: cores, SIMD level, compiler,
/// build type.
[[nodiscard]] std::string host_fingerprint();

/// splitmix64: the benchmark derives every input from --seed through it.
[[nodiscard]] std::uint64_t mix(std::uint64_t x);

/// Small seeded generator for input draws (never shared with the library).
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : state_(mix(seed)) {}
  [[nodiscard]] double uniform(double lo, double hi);
  [[nodiscard]] std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// In-memory span recorder of the traced mode.  A span has a layer, a
/// name, a request id shared by the spans of one request, and the span
/// that was open on the same thread when it began (its parent).  Spans are
/// kept in memory and written out once, when the run ends.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* layer, const char* name,
          std::uint64_t request, std::uint32_t parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the span began.
    [[nodiscard]] double elapsed() const { return seconds_since(start_); }
    /// This span's id (0 when not recording), for children on other threads.
    [[nodiscard]] std::uint32_t id() const { return id_; }

   private:
    Tracer* tracer_;
    const char* layer_;
    const char* name_;
    std::uint64_t request_;
    std::uint32_t id_ = 0;
    std::uint32_t parent_ = 0;
    Clock::time_point start_;

    friend class Tracer;
  };

  /// Opens a span; with a null tracer the scope only keeps time.  The
  /// parent is the innermost span open on this thread unless `parent`
  /// names one (a span opened on another thread).
  [[nodiscard]] static Scope span(Tracer* tracer, const char* layer,
                                  const char* name, std::uint64_t request = 0,
                                  std::uint32_t parent = 0) {
    return Scope(tracer, layer, name, request, parent);
  }

  /// Seconds of self time per layer: each span's duration minus the part
  /// of it that its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  [[nodiscard]] std::size_t size() const;
  /// Writes one JSON object per span (ns since the tracer was built).
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t id;
    std::uint32_t parent;
    std::uint64_t request;
    const char* layer;
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::uint32_t open();
  void close(const Scope& scope);

  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;  ///< guards spans_ and next_id_
  std::vector<Span> spans_;
  std::uint32_t next_id_ = 1;
};

// Workloads.  Each fills `out` with the end-to-end metrics (untraced) or
// with the per-layer metrics of the layers it exercises (traced; run.py
// reports 0 for the other layers).
void run_sweep_service(const Options& opts, Outcome& out);
void run_mc_validation(const Options& opts, Outcome& out);
void run_population(const Options& opts, Outcome& out);

/// Writes the spans to <out_dir>/spans_<workload>.jsonl and prints each
/// layer's self time.
void trace_summary(const Options& opts, const Tracer& tracer);

// Layer probes (probes.cpp), called by the traced runs.

/// Times every KernelTable function at every supported SIMD level on
/// `block` samples; writes the math.simd.* metrics.
void probe_simd(std::size_t block, Outcome& out, Tracer* tracer);

/// chain::Ledger + EventQueue driven through their public API with
/// `live_sessions` swaps' worth of live state.
struct ChainProbe {
  double submit_us = 0.0;   ///< median Ledger::submit
  double apply_us = 0.0;    ///< run_until time per applied transaction
  double compact_ms = 0.0;  ///< median Ledger::compact at that live size
  bool conserved = false;   ///< total_supply unchanged by the probe
};
[[nodiscard]] ChainProbe probe_chain(std::size_t live_sessions,
                                     std::uint64_t seed, Tracer* tracer);

}  // namespace perfbench
