// One-shot workload execution: provisions a cluster for an IoConfig,
// spawns one coroutine per rank, runs the simulation to completion and
// reports time / cost / I/O statistics.  This is the "run it on the
// cloud" primitive used by IOR training sweeps, application evaluation,
// space walking and every bench harness.
#pragma once

#include <cstdint>
#include <optional>

#include "acic/cloud/failure.hpp"
#include "acic/cloud/ioconfig.hpp"
#include "acic/cloud/pricing.hpp"
#include "acic/common/units.hpp"
#include "acic/fs/filesystem.hpp"
#include "acic/io/checkpoint.hpp"
#include "acic/io/workload.hpp"
#include "acic/profiler/tracer.hpp"

namespace acic::io {

struct RunOptions {
  std::uint64_t seed = 1;
  /// Multi-tenant capacity jitter (log-normal sigma).
  double jitter_sigma = 0.06;
  /// Fault vocabulary (transient outages, brownouts, stragglers,
  /// correlated outages, permanent loss, preemptions).  All-zero by
  /// default (a reliable run).
  cloud::FaultModel fault_model;
  /// Job-level watchdog: give up once simulated time would pass this
  /// bound and grade the run `failed`.  0 picks a default (24 h) when
  /// any fault is armed; with no faults the legacy deadlock check runs
  /// unchanged.
  SimTime watchdog_sim_time = 0.0;
  fs::FsTuning tuning = {};
  /// Checkpoint/restart reaction: periodic dumps through the configured
  /// file system plus seeded replacement-server recovery on preemption.
  /// The recovery half also engages (restart-from-scratch) whenever the
  /// fault model arms preemptions, even with checkpointing off.
  CheckpointPolicy checkpoint;
  /// Optional logical-request tracer (the profiling tool's tap).
  profiler::IoTracer* tracer = nullptr;
  /// When set, `cost` includes EBS volume-hour and per-I/O surcharges
  /// instead of the paper's pure Eq. (1).
  std::optional<cloud::DetailedPricing> detailed_pricing;
  /// When set, `cost` uses spot-market billing (discounted rate plus
  /// per-restart reacquisition fees); takes precedence over
  /// detailed_pricing.
  std::optional<cloud::SpotPricing> spot_pricing;
};

/// How a run ended.  `degraded` means the job finished but the fault
/// reaction had to intervene (timeouts or abandoned payloads); its
/// timing is still a usable—if noisy—measurement.  `failed` runs hit the
/// watchdog or stalled outright; their timing is meaningless and must
/// not enter a training database.
enum class RunOutcome {
  kOk,
  kDegraded,
  kFailed,
};

const char* to_string(RunOutcome outcome);

struct RunResult {
  SimTime total_time = 0.0;  ///< job wall time, seconds
  Money cost = 0.0;          ///< paper Eq. (1)
  SimTime io_time = 0.0;     ///< wall time inside I/O phases
  int num_instances = 0;     ///< billed instances
  std::uint64_t fs_requests = 0;
  Bytes fs_bytes = 0.0;
  std::uint64_t sim_events = 0;
  RunOutcome outcome = RunOutcome::kOk;
  /// Fault-reaction statistics (all zero on a clean run).
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t failed_requests = 0;
  SimTime stalled_time = 0.0;
  /// Unfired fault suppress/restore events cancelled at job end.
  std::uint64_t fault_events_cancelled = 0;
  /// Preemption/checkpoint accounting (all zero on a clean run).  A run
  /// that restarted at least once is graded kDegraded even when it
  /// finished; one that exhausted the restart budget is kFailed.
  std::uint64_t preemptions = 0;     ///< spot reclaims observed
  std::uint64_t restarts = 0;        ///< replacement servers acquired
  SimTime lost_sim_time = 0.0;       ///< replayed work, seconds
  Bytes checkpoint_bytes = 0.0;      ///< durable checkpoint dump bytes
};

/// Execute `workload` under `config`.  Deterministic for a given seed.
/// Throws acic::Error on invalid inputs; a stalled or watchdog-expired
/// chaos run returns outcome == kFailed instead of hanging or throwing.
RunResult run_workload(const Workload& workload,
                       const cloud::IoConfig& config,
                       const RunOptions& options = {});

}  // namespace acic::io
