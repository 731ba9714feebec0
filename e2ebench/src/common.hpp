// Shared plumbing of the three workloads: run context, the timed
// simulation primitive (installed through ExecutorOptions::run_fn),
// and registry counter deltas.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "acic/exec/executor.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace e2e {

/// Metric name -> value, filled by a workload.
using Values = std::map<std::string, double>;

struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement budget of the run
  unsigned threads = 1;   ///< min(4, nproc)
  bool trace = false;
  std::string workdir;    ///< scratch directory, removed by run.py
  std::string self_exe;   ///< this binary, for warm-restart children
  Tracer* tracer = nullptr;
};

/// CPU time of the calling thread, milliseconds.
double thread_cpu_ms();

/// Wraps io::run_workload as an Executor's simulation primitive and
/// records every call: host milliseconds, simulated events, and (when
/// tracing) one `io.run_workload` span under `parent`.
class TimedRuns {
 public:
  TimedRuns(Tracer& tracer, std::uint64_t parent)
      : tracer_(tracer), parent_(parent) {}
  TimedRuns(const TimedRuns&) = delete;
  TimedRuns& operator=(const TimedRuns&) = delete;

  /// Executor options whose run_fn routes through this recorder; the
  /// recorder must outlive every executor built from them.
  acic::exec::ExecutorOptions options(unsigned threads);

  std::vector<double> host_ms() const;
  /// CPU milliseconds of the simulating thread per run, in run order.
  /// A simulation runs on one thread, so this is its cost without the
  /// time the thread waited to be scheduled: on a shared 4-vCPU host,
  /// with three busy-looping neighbour processes, the cold sweep's p90
  /// read 379-506 ms in host time and 371-400 ms in CPU time.
  std::vector<double> cpu_ms() const;
  double host_s() const;
  std::uint64_t events() const;
  /// Runs graded ok / degraded / failed, indexed by io::RunOutcome.
  std::array<std::size_t, 3> outcomes() const;

 private:
  Tracer& tracer_;
  std::uint64_t parent_;
  mutable std::mutex mutex_;
  std::vector<double> host_ms_;
  std::vector<double> cpu_ms_;
  std::uint64_t events_ = 0;
  std::array<std::size_t, 3> outcomes_{};
};

/// Snapshot of registry counters; `delta(name)` is the growth since.
class CounterDelta {
 public:
  CounterDelta();
  double delta(const std::string& name) const;

 private:
  std::map<std::string, double> base_;
};

/// Sets the io/simcore per-layer metrics from the runs `timed` saw and
/// the registry growth since `counters`.
void record_io_layer(const TimedRuns& timed, const CounterDelta& counters,
                     Values& values);

/// The end-to-end tail of CPU milliseconds per simulated run: p90, not
/// the highest percentile with ten samples beyond it.  Those top runs
/// are the few largest simulations, and on a shared 4-vCPU host their
/// host times swung with host load: cold_start's p95 read 497-785 ms
/// over ten runs of the same code.
inline constexpr double kRunTailQ = 0.9;

/// FNV-1a of a label, for per-cell seed derivation.
std::uint64_t label_hash(const std::string& label);

}  // namespace e2e
