#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace spbench {

Percentile guarded_percentile(std::vector<double> values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  p.beyond = values.size() - 1 - lo;
  if (p.beyond < kMinBeyond) return p;
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  p.value = values[lo] + frac * (values[hi] - values[lo]);
  p.ok = true;
  return p;
}

std::size_t min_samples_for(double q) {
  std::size_t n = kMinBeyond;
  std::vector<double> probe;
  while (true) {
    probe.assign(n, 0.0);
    if (guarded_percentile(probe, q).ok) return n;
    ++n;
  }
}

double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double middle_of(std::vector<double> values) {
  spmap::require(!values.empty(), "middle_of: empty sample");
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::set_percentile(const std::string& name, const Percentile& p,
                            const std::string& unit) {
  char line[256];
  if (p.ok) {
    set(name, p.value, unit);
    std::snprintf(line, sizeof line, "%s = %.4f %s (n=%zu, %zu beyond)",
                  name.c_str(), p.value, unit.c_str(), p.samples, p.beyond);
  } else {
    std::snprintf(line, sizeof line,
                  "%s refused: n=%zu leaves %zu samples beyond it (need %zu)",
                  name.c_str(), p.samples, p.beyond, kMinBeyond);
  }
  note(line);
}

namespace {

/// Fixed integer work: the unit of the host probe.
std::uint64_t spin(std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint32_t i = 0; i < 24'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double timed_spin(unsigned threads) {
  std::vector<std::uint64_t> sinks(threads);
  std::vector<std::thread> pool;
  const std::int64_t start = now_ns();
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&sinks, t] { sinks[t] = spin(t + 1); });
  }
  for (std::thread& th : pool) th.join();
  const std::int64_t end = now_ns();
  std::uint64_t fold = 0;
  for (const std::uint64_t s : sinks) fold ^= s;
  if (fold == 42) std::fputc(' ', stderr);  // keeps the work observable
  return static_cast<double>(end - start) / 1e9;
}

}  // namespace

HostProbe probe_host(unsigned threads) {
  const double one = std::min(timed_spin(1), timed_spin(1));
  const double many = timed_spin(threads);
  return {1e3 * one, static_cast<double>(threads) * one / many};
}

PinToOneCpu::PinToOneCpu() {
  CPU_ZERO(&saved_);
  spmap::require(sched_getaffinity(0, sizeof saved_, &saved_) == 0,
                 "sched_getaffinity failed");
  int first = 0;
  while (first < CPU_SETSIZE && !CPU_ISSET(first, &saved_)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  spmap::require(sched_setaffinity(0, sizeof one, &one) == 0,
                 "sched_setaffinity failed");
}

PinToOneCpu::~PinToOneCpu() { sched_setaffinity(0, sizeof saved_, &saved_); }

double self_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

double process_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = text.rfind(')');
  spmap::require(close != std::string::npos,
                 "cannot read /proc stat of pid " + std::to_string(pid));
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double process_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// ---- Tracer -----------------------------------------------------------------

std::uint32_t Tracer::intern(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

std::int32_t Tracer::begin(const std::string& name, std::uint64_t job) {
  Span span;
  span.name = intern(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.job = job;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  spans_.back().start_ns = now_ns();  // last: exclude the bookkeeping
  return index;
}

void Tracer::end(std::int32_t index) {
  const std::int64_t t = now_ns();
  spans_[static_cast<std::size_t>(index)].end_ns = t;
  spmap::require(!open_.empty() && open_.back() == index,
                 "Tracer: spans must close innermost first");
  open_.pop_back();
}

void Tracer::add(const std::string& name, std::uint64_t job,
                 std::int64_t start_ns, std::int64_t end_ns,
                 std::int32_t parent) {
  Span span;
  span.name = intern(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = parent;
  span.job = job;
  spans_.push_back(span);
}

std::vector<double> Tracer::self_ms_per_span() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<double> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[i] = static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
  }
  return out;
}

std::map<std::string, std::vector<double>> Tracer::self_ms() const {
  const std::vector<double> self = self_ms_per_span();
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[names_[spans_[i].name]].push_back(self[i]);
  }
  return out;
}

double Tracer::self_ms_sum(
    const std::function<bool(const std::string&)>& include,
    std::uint64_t job_limit) const {
  const std::vector<double> self = self_ms_per_span();
  double sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].job < job_limit && include(names_[spans_[i].name])) {
      sum += self[i];
    }
  }
  return sum;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  spmap::require(static_cast<bool>(out), "cannot write trace " + path);
  std::int64_t origin = 0;
  for (const Span& s : spans_) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  }
  out << "{\"schema\":\"spbench-trace/1\",\"names\":[";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    out << (i ? "," : "") << '"' << names_[i] << '"';
  }
  out << "],\"fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"job\"],"
         "\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << '[' << s.name << ',' << s.start_ns - origin
        << ',' << s.end_ns - origin << ',' << s.parent << ',' << s.job << ']';
  }
  out << "]}\n";
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  (void)spmap::splitmix64(state);
  state += 0xbf58476d1ce4e5b9ULL * (index + 1);
  return spmap::splitmix64(state);
}

std::string number(double value) {
  char buf[64];
  if (!std::isfinite(value)) return "null";
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace spbench
