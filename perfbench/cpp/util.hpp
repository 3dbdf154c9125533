// Shared plumbing of the benchmark program: options, timing, statistics, the
// result record (the last stdout line is the JSON object the harness reads),
// the run fingerprint, and the output-check bookkeeping.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "rl/actor_critic.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the self-test: every path runs, nothing is steady.
  bool smoke = false;
  /// Scratch directory for model and checkpoint files.
  std::string workdir = ".";
};

/// Median of `v` (copied; the mean of the middle pair for even sizes).
double median(std::vector<double> v);
/// Nearest-rank quantile q in [0, 1] of `v` (copied).
double quantile(std::vector<double> v, double q);

/// FNV-1a over the bit patterns of both networks' parameters: equal digests
/// mean bit-identical models.
std::uint64_t param_digest(const si::ActorCritic& ac);
std::string hex64(std::uint64_t v);

/// User + system CPU seconds this process has used so far.
double cpu_seconds();
/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();
/// Sum of the steal column of the aggregate "cpu" line of /proc/stat
/// (clock ticks), or -1 when unavailable.
long long steal_ticks();

/// How much CPU the hypervisor took from this VM while a timed unit of work
/// ran. Such a unit measures the host, not the program: on a shared host,
/// steal comes in bursts that slow a run several-fold. A unit is disturbed
/// when the aggregate steal over all CPUs exceeds kStealTicksPerSecond per
/// second of the unit, plus one tick of rounding slack. Always clean when
/// /proc/stat has no steal column.
struct Steal {
  double ticks_per_second = 0.0;
  bool disturbed = false;
};

class StealWindow {
 public:
  static constexpr double kStealTicksPerSecond = 8.0;
  StealWindow() : ticks_(steal_ticks()), start_(Clock::now()) {}
  /// The steal since construction.
  Steal read() const;

 private:
  long long ticks_;
  Clock::time_point start_;
};

/// Timed units of work with the steal each one saw.
struct Units {
  std::vector<double> values;
  std::vector<Steal> steal;
  double clean_seconds = 0.0;  ///< summed wall of the clean units

  void add(double value, Steal s, double seconds) {
    values.push_back(value);
    steal.push_back(s);
    if (!s.disturbed) clean_seconds += seconds;
  }
  std::size_t clean() const;
  /// Median over the clean units. When fewer than `min_clean` are clean (a
  /// run the host disturbed throughout), median over the less disturbed half
  /// of the units instead.
  double median_clean(std::size_t min_clean = 3) const;
};

/// A workload measures until its clean units add up to the run length, but
/// never longer than this many run lengths.
inline constexpr double kMaxRunStretch = 1.75;

/// One named figure with its unit, in emission order.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything a workload reports. Output checks call check(); a failed
/// check makes the run incorrect and the program exit non-zero.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable lines printed before the JSON record.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
};

/// The metric names and units the benchmark declares (BENCHMARK.json):
/// the end-to-end set for untraced runs, the per-layer set for traced runs.
struct MetricSpec {
  const char* name;
  const char* unit;
};
std::span<const MetricSpec> end_to_end_metrics();
std::span<const MetricSpec> per_layer_metrics();

/// The run fingerprint as a JSON object: CPU model, nproc, compiler, build
/// type and flags, source revision, and the host steal ticks across the run.
std::string fingerprint_json(long long steal_before, long long steal_after);

/// Formats a double with all its significant digits.
std::string num(double v);

}  // namespace perfbench
