#pragma once
/// \file common.hpp
/// Shared machinery of the spmap benchmark: run options, the percentile
/// guard, the metric report, host and process probes, the span tracer and
/// the result digest.

#include <sched.h>
#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/content_hash.hpp"

namespace spbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// spmap_cli binary (the serve workload runs it as the daemon).
  std::string cli;
  /// Directory (inside the checkout) for the journal, socket and traces.
  std::string work_dir;
  /// Platform files of the paper experiment.
  std::string platform_dir;
  /// Provenance passed through from the launcher.
  std::string commit;
};

/// Monotonic nanoseconds (steady clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

/// A tail percentile reported only when at least kMinBeyond samples lie
/// beyond it.
struct Percentile {
  bool ok = false;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

inline constexpr std::size_t kMinBeyond = 10;

/// Linear-interpolated quantile `q` of `values` with its sample count and
/// the number of samples above its rank; `ok` is false (and `value` 0)
/// when fewer than kMinBeyond samples lie beyond it.
Percentile guarded_percentile(std::vector<double> values, double q);

/// Smallest sample count for which `q` passes the guard.
std::size_t min_samples_for(double q);

double mean_of(const std::vector<double>& values);

/// The metrics of one run plus the human-readable lines printed before
/// the final JSON line.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// A guarded percentile: sets the metric when the guard passes, and
  /// notes the sample count either way.
  void set_percentile(const std::string& name, const Percentile& p,
                      const std::string& unit);
  bool has(const std::string& name) const { return metrics_.count(name); }
  void note(const std::string& line) { notes_.push_back(line); }

  const std::map<std::string, std::pair<double, std::string>>& metrics()
      const {
    return metrics_;
  }
  const std::vector<std::string>& notes() const { return notes_; }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> notes_;
};

/// Host validity: `threads` copies of a fixed spin against one copy.
struct HostProbe {
  double single_ms = 0.0;       ///< one copy alone: per-core speed
  double cores_effective = 0.0;  ///< ~`threads` when every core is granted
};
HostProbe probe_host(unsigned threads);

/// Pins the calling thread, and every thread and process it starts
/// afterwards, to one CPU; restores the previous affinity on destruction.
class PinToOneCpu {
 public:
  PinToOneCpu();
  ~PinToOneCpu();
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_;
};

/// CPU seconds (user + sys) of this process, all threads.
double self_cpu_seconds();
/// Peak resident set of this process in MB.
double self_peak_rss_mb();
/// User + sys CPU seconds of another process, all threads (/proc).
double process_cpu_seconds(pid_t pid);
/// Peak resident set of another process in MB (/proc VmHWM).
double process_peak_rss_mb(pid_t pid);

/// In-memory span recorder (one per thread): `{name, start, end, parent,
/// job}` per span, written out as JSON when the run ends.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t job = 0;
  };

  /// Opens a span as a child of the innermost open span.
  std::int32_t begin(const std::string& name, std::uint64_t job);
  void end(std::int32_t index);
  /// Records a span whose interval was measured elsewhere (the daemon's
  /// `done.wall_ms`), as a child of `parent`.
  void add(const std::string& name, std::uint64_t job, std::int64_t start_ns,
           std::int64_t end_ns, std::int32_t parent);

  /// Self time (duration minus the time covered by child spans) of every
  /// span, in ms, grouped by span name.
  std::map<std::string, std::vector<double>> self_ms() const;
  /// Summed self time (ms) of the spans whose name passes `include`,
  /// over jobs below `job_limit`.
  double self_ms_sum(const std::function<bool(const std::string&)>& include,
                     std::uint64_t job_limit) const;

  /// Writes `{"names": [...], "spans": [[name, start, end, parent, job],
  /// ...]}` with times in ns relative to the first span.
  void write_json(const std::string& path) const;

 private:
  std::uint32_t intern(const std::string& name);
  std::vector<double> self_ms_per_span() const;

  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, std::uint64_t job)
      : tracer_(tracer),
        index_(tracer == nullptr ? -1 : tracer->begin(name, job)) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

/// Order-sensitive digest of (job, makespan) pairs: identical across runs
/// of one seed on a correct build.
class ResultDigest {
 public:
  ResultDigest() : hasher_("spbench-results/1") {}
  void add(std::uint64_t job, double makespan) {
    hasher_.u64(job).f64(makespan);
  }
  std::string hex() const { return hasher_.digest().hex(); }

 private:
  spmap::ContentHasher hasher_;
};

/// Middle element of an odd-sized sample (setup_s: the median of a few
/// repeated set-ups, not a tail percentile).
double middle_of(std::vector<double> values);

/// splitmix64 stream keyed by (seed, stream, index).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index);

/// Full-precision number formatting for the JSON line.
std::string number(double value);

}  // namespace spbench
