// Shared pieces of the benchmark driver: one repetition's report, the
// in-memory span log of the traced run, and the workload entry points.
//
// A report is a flat bag of named numbers plus correctness checks; the
// Python driver (run.py) aggregates repetitions into medians. Names are
// the metric names of BENCHMARK.json where a value is a metric, and
// free-form otherwise (model fingerprint, raw counts).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perf {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  bool check_determinism = false;  // run the small j1-vs-jN witness
  unsigned workers = 1;            // min(nproc, 4)
  std::string spans_path;          // traced runs write JSONL here
};

class Report {
 public:
  void num(const std::string& key, double value) {
    nums_.emplace_back(key, value);
  }
  void str(const std::string& key, const std::string& value) {
    strs_.emplace_back(key, value);
  }
  /// Record a correctness check; a failed check fails the whole run.
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
  }
  bool all_ok() const {
    for (const Check& c : checks_) {
      if (!c.ok) return false;
    }
    return true;
  }
  std::string json() const;

 private:
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<std::pair<std::string, double>> nums_;
  std::vector<std::pair<std::string, std::string>> strs_;
  std::vector<Check> checks_;
};

/// Spans recorded by the benchmark's own wrappers, kept in memory and
/// written as JSONL when the run ends. Spans nest strictly (single
/// caller thread), so a span's self time is its duration minus the
/// durations of its direct children.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }
  /// While disabled, open() and add() record nothing and return 0.
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Open a span; returns its id (0 when disabled).
  std::uint32_t open(const char* name, std::uint32_t parent,
                     std::int64_t start_ns, std::int64_t attr = -1);
  void close(std::uint32_t id, std::int64_t end_ns);
  /// A complete span with known bounds.
  std::uint32_t add(const char* name, std::uint32_t parent,
                    std::int64_t start_ns, std::int64_t end_ns,
                    std::int64_t attr = -1);

  /// Drop span `id` if it is the most recent one and has no children
  /// (an empty poll, say).
  void discard(std::uint32_t id) {
    if (id != 0 && id == spans_.size()) spans_.pop_back();
  }

  /// Sum of durations and of self times of all spans called `name`.
  double total_s(const std::string& name) const;
  double self_s(const std::string& name) const;
  std::size_t count(const std::string& name) const;

  /// Write every span as one JSON object per line; false on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t attr;
  };
  /// Summed durations of each span's direct children, by span index.
  std::vector<std::int64_t> child_ns() const;
  bool enabled_;
  std::vector<Span> spans_;  // id = index + 1
};

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Times `fn` over enough iterations to fill ~`budget_s`, in batches, and
/// returns the median batch's nanoseconds per call.
template <typename Fn>
double time_ns_per_call(Fn&& fn, double budget_s = 0.05) {
  std::size_t iters = 1;
  for (;;) {  // calibrate a batch to ~1/8 of the budget
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    if (seconds_since(t0) >= budget_s / 8 || iters >= (1u << 24)) break;
    iters *= 2;
  }
  std::vector<double> per_call;
  for (int batch = 0; batch < 7; ++batch) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    per_call.push_back(seconds_since(t0) * 1e9 / static_cast<double>(iters));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

// Workloads (workloads.cpp). Each fills `report` and returns normally;
// failures are recorded as checks.
void run_scale(const Options& options, bool hostile, Report& report);
void run_testbed(const Options& options, Report& report);
void run_udp(const Options& options, Report& report);

/// Per-call costs of the protocol's primitives on inputs shaped like a
/// workload's: `payload_bytes` sealed/encoded, `upload_bytes` sanity
/// checked, and a 50 000-bit quality snapshot.
/// Returns the sanity battery's nanoseconds per upload.
double measure_primitives(std::uint64_t seed, std::size_t payload_bytes,
                          std::size_t upload_bytes, Report& report);

}  // namespace perf
