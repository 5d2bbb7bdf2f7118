// report.hpp — what one workload run hands back to perfbench/run.py: named metrics
// with units, attempted/failed counts, correctness checks and host facts,
// serialized as one JSON object on stdout.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 when empty.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Mean of the better half of a sample: the values at or below its median
/// when lower is better, at or above it otherwise. A run's figure is this
/// over its rounds, so it reads the host's quieter moments: on a shared host
/// another tenant's burst slows some rounds, and up to half of them can be
/// hit before the figure moves, while a change that slows every round shows
/// in full.
double better_half_mean(std::vector<double> v, bool lower_is_better);

/// Set-up is repeated at least 15 times and until half a second has gone
/// into it, so setup_s is a median over enough repetitions even when one
/// set-up takes well under a millisecond.
inline bool more_setups(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (const double s : setup_s) total += s;
  return setup_s.size() < 15 || (total < 0.5 && setup_s.size() < 2000);
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Deterministic 64-bit stream derived from the run seed and a purpose tag,
/// so every input (data, weights, arrivals) has its own reproducible seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose);

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Record a correctness check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void fact(const std::string& key, const std::string& value) { facts_.push_back({key, value}); }

  bool correct() const { return failures_.empty(); }
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::string>> facts_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// nproc, the OpenMP/pdnn environment this process got (run.py sets only
/// OMP_NUM_THREADS, and reports the value it found), OpenMP team size, SIMD
/// dispatch, compiler and build type.
void record_host_facts(Report& r);

void run_serve_posit(const RunArgs& args, Report& r);
void run_serve_float_tiny(const RunArgs& args, Report& r);
void run_train_posit(const RunArgs& args, Report& r);
void run_train_dp(const RunArgs& args, Report& r);

}  // namespace perfbench
