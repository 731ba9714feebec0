// Sample statistics and the result record of one benchmark run.
//
// Percentiles are computed from the benchmark's own raw samples (never
// from acic::obs histograms, whose quantiles snap to power-of-4 bucket
// edges).  The reporting rule: a timing is a median plus the highest
// percentile that still has at least ten samples beyond it.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Median of `v` (mean of the two middle values for even sizes); 0 for
/// an empty vector.
double median(std::vector<double> v);

/// Nearest-rank percentile of already-sorted samples: the value at rank
/// ceil(q * n), q in (0, 1].  0 for an empty vector.
double percentile_sorted(const std::vector<double>& sorted, double q);

/// Number of samples strictly after the nearest-rank position of `q`.
std::size_t beyond_count(std::size_t n, double q);

/// Nearest-rank percentile `q` of unsorted samples.
double quantile(std::vector<double> v, double q);

struct Tail {
  double q = 0.5;          ///< chosen percentile, e.g. 0.99
  double value = 0.0;      ///< sample value at that percentile
  std::size_t beyond = 0;  ///< samples ranked after it
  std::size_t n = 0;       ///< sample count
};

/// Highest of p99.9, p99, p95, p90, p75 with at least kMinBeyond samples
/// beyond it; falls back to the nearest-rank median when none qualifies
/// (fewer than 20 samples).
Tail tail_percentile(std::vector<double> v);

/// Geometric mean of positive values; 0 when empty.
double geomean(const std::vector<double>& v);

/// Peak resident set of this process, MiB (VmHWM).
double peak_rss_mb();

/// One metric as the result line reports it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The outcome of one workload run: the operation tally, the output
/// checks, and the metrics to report.
class Result {
 public:
  void add(std::string name, double value, std::string unit);
  /// Record a failed output check (a correctness failure, not a graded
  /// simulation outcome).  The run will report correct=false.
  void check(bool ok, const std::string& what);
  void attempt(std::size_t n = 1) { attempted_ += n; }
  void fail(std::size_t n = 1) { failed_ += n; }

  bool correct() const { return check_failures_.empty(); }
  const std::vector<std::string>& check_failures() const {
    return check_failures_;
  }

  /// The single-line JSON record:
  /// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}
  std::string to_json() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> check_failures_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Shortest decimal that round-trips `v` (JSON has no NaN/inf: those
/// become null, which the run.py validator rejects).
std::string json_number(double v);

}  // namespace e2e
