// End-to-end chaos tests for the fault-tolerant I/O pipeline: aggressive
// fault schedules must always terminate with a graded outcome (never hang
// or throw), retry budgets must be respected, and permanent losses must
// be survivable with retries / watchdog-graded without them.
#include <gtest/gtest.h>

#include "acic/cloud/cluster.hpp"
#include "acic/cloud/failure.hpp"
#include "acic/cloud/ioconfig.hpp"
#include "acic/fs/filesystem.hpp"
#include "acic/io/runner.hpp"
#include "acic/io/workload.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::io {
namespace {

Workload chaos_workload(int np = 16) {
  Workload w;
  w.name = "chaos-probe";
  w.num_processes = np;
  w.num_io_processes = np;
  w.interface = IoInterface::kMpiIo;
  w.iterations = 2;
  w.data_size = 8.0 * MiB;
  w.request_size = 1.0 * MiB;
  w.op = OpMix::kWrite;
  w.collective = true;
  w.file_shared = true;
  return w;
}

cloud::IoConfig pvfs4() {
  cloud::IoConfig c;
  plugin::filesystem_named("pvfs2").configure(c, 4, 1.0 * MiB);
  c.device = storage::DeviceType::kEphemeral;
  c.placement = cloud::Placement::kDedicated;
  return c;
}

RunOptions aggressive_chaos(std::uint64_t seed) {
  RunOptions o;
  o.seed = seed;
  o.fault_model.outages_per_hour = 60.0;
  o.fault_model.brownouts_per_hour = 40.0;
  o.fault_model.brownout_fraction = 0.3;
  o.fault_model.stragglers_per_hour = 20.0;
  o.fault_model.straggler_factor = 0.25;
  o.fault_model.correlated_outage_probability = 0.2;
  o.fault_model.permanent_loss_probability = 0.1;
  o.tuning.retry.enabled = true;
  o.tuning.retry.request_timeout = 5.0;
  o.tuning.retry.max_attempts = 3;
  return o;
}

// The tentpole contract: however hostile the schedule, run_workload
// returns a graded outcome with consistent fault statistics — it never
// hangs, deadlocks, or throws.
TEST(FaultToleranceTest, AggressiveChaosAlwaysTerminatesGraded) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    const auto r = run_workload(chaos_workload(), pvfs4(),
                                aggressive_chaos(seed));
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_TRUE(r.outcome == RunOutcome::kOk ||
                r.outcome == RunOutcome::kDegraded ||
                r.outcome == RunOutcome::kFailed);
    // Every timeout was resolved exactly one way: retried or abandoned.
    EXPECT_EQ(r.timeouts, r.retries + r.failed_requests);
    // A clean grade means the reaction machinery never had to step in.
    if (r.outcome == RunOutcome::kOk) {
      EXPECT_EQ(r.timeouts, 0u);
    } else if (r.outcome == RunOutcome::kDegraded) {
      EXPECT_GT(r.timeouts, 0u);
      EXPECT_GT(r.total_time, 0.0);
    }
    if (r.timeouts > 0) {
      EXPECT_GT(r.stalled_time, 0.0);
    }
  }
}

TEST(FaultToleranceTest, RetryBudgetIsBounded) {
  auto o = aggressive_chaos(11);
  o.tuning.retry.max_attempts = 2;  // one retry per request, then abandon
  const auto r = run_workload(chaos_workload(), pvfs4(), o);
  EXPECT_EQ(r.timeouts, r.retries + r.failed_requests);
  // With a budget of 2 attempts, a request retries at most once, so the
  // retry count can never exceed the number of distinct timed-out
  // requests — which is itself bounded by the timeout count.
  EXPECT_LE(r.retries, r.timeouts);
}

// A permanently lost server with retries armed: requests to the dead
// stripes exhaust their budget and are abandoned, the rest of the job
// completes, and the run grades degraded — data loss, but bounded time.
TEST(FaultToleranceTest, PermanentLossWithRetriesDegradesButFinishes) {
  RunOptions o;
  o.seed = 3;
  o.fault_model.outages_per_hour = 1800.0;  // a loss lands within seconds
  o.fault_model.permanent_loss_probability = 1.0;
  o.tuning.retry.enabled = true;
  o.tuning.retry.request_timeout = 3.0;
  o.tuning.retry.max_attempts = 2;
  const auto r = run_workload(chaos_workload(), pvfs4(), o);
  EXPECT_EQ(r.outcome, RunOutcome::kDegraded);
  EXPECT_GT(r.failed_requests, 0u);
  EXPECT_GT(r.total_time, 0.0);
}

// The same loss without client deadlines: the job stalls forever on the
// dead server, and only the watchdog turns that into a graded failure
// instead of a hang (or the old deadlock throw).
TEST(FaultToleranceTest, PermanentLossWithoutRetriesFailsViaWatchdog) {
  RunOptions o;
  o.seed = 3;
  o.fault_model.outages_per_hour = 1800.0;
  o.fault_model.permanent_loss_probability = 1.0;
  o.watchdog_sim_time = 3600.0;  // explicit bound; default would be 24 h
  const auto r = run_workload(chaos_workload(), pvfs4(), o);
  EXPECT_EQ(r.outcome, RunOutcome::kFailed);
  EXPECT_EQ(r.retries, 0u);  // no retry machinery was armed
}

// Legacy path untouched: an all-zero fault model with retry disabled must
// not arm the injector, the watchdog, or any fault accounting.
TEST(FaultToleranceTest, CleanRunsReportCleanStatistics) {
  RunOptions o;
  o.seed = 9;
  const auto r = run_workload(chaos_workload(), pvfs4(), o);
  EXPECT_EQ(r.outcome, RunOutcome::kOk);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_EQ(r.failed_requests, 0u);
  EXPECT_EQ(r.fault_events_cancelled, 0u);
  EXPECT_EQ(r.stalled_time, 0.0);
}

TEST(FaultToleranceTest, OutcomeToStringIsStable) {
  EXPECT_STREQ(to_string(RunOutcome::kOk), "ok");
  EXPECT_STREQ(to_string(RunOutcome::kDegraded), "degraded");
  EXPECT_STREQ(to_string(RunOutcome::kFailed), "failed");
}

// --- Retry deadline semantics ----------------------------------------
//
// The overall request deadline is max_attempts full timeout windows from
// the first send; backoff sleeps must be clamped to the remaining budget
// so a capped backoff can never push the request past it.

TEST(RetryDeadlineTest, BackoffDelayHonoursBudgetClamp) {
  fs::RetryPolicy p;
  p.enabled = true;
  p.backoff_base = 4.0;
  p.backoff_multiplier = 2.0;
  p.backoff_cap = 8.0;
  p.backoff_jitter = 0.0;
  Rng rng(1);
  // Unclamped growth: base, base*2, then the cap.
  EXPECT_DOUBLE_EQ(fs::backoff_delay(p, 0, rng), 4.0);
  EXPECT_DOUBLE_EQ(fs::backoff_delay(p, 1, rng), 8.0);
  EXPECT_DOUBLE_EQ(fs::backoff_delay(p, 2, rng), 8.0);
  // The budget clamp bites, down to (and never past) zero.
  EXPECT_DOUBLE_EQ(fs::backoff_delay(p, 1, rng, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(fs::backoff_delay(p, 1, rng, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(fs::backoff_delay(p, 1, rng, -5.0), 0.0);
}

TEST(RetryDeadlineTest, JitterDrawPrecedesTheClamp) {
  // The uniform draw happens before the clamp, so clamped and unclamped
  // calls consume the same RNG stream — a replay with a different budget
  // cannot shift every later jitter decision.
  fs::RetryPolicy p;
  p.enabled = true;
  p.backoff_base = 4.0;
  p.backoff_jitter = 0.25;
  Rng clamped(42), unclamped(42);
  fs::backoff_delay(p, 0, clamped, 0.001);
  fs::backoff_delay(p, 0, unclamped);
  EXPECT_EQ(clamped.uniform(), unclamped.uniform());
}

// The satellite regression: a deadline landing mid-backoff.  With
// timeout=5, attempts=3, base=4, cap=8 against a permanently lost
// server, the attempts time out at t=5 and t=14; the second backoff
// (8 s) would land at t=22 and the request would not resolve until 27 —
// well past the 15 s budget.  The clamp cuts that sleep to 1 s and the
// zero-width third window reports the failure at t=15 exactly.
TEST(RetryDeadlineTest, DeadlineLandingMidBackoffResolvesAtDeadline) {
  sim::Simulator s;
  cloud::ClusterModel::Options copts;
  copts.num_processes = 16;
  copts.config = pvfs4();
  copts.config.io_servers = 1;
  copts.jitter_sigma = 0.0;
  cloud::ClusterModel cluster(s, copts);
  cloud::FailureInjector inj(cluster);
  cloud::FaultSpec loss;
  loss.kind = cloud::FaultKind::kPermanentLoss;
  loss.server = 0;
  loss.at = 0.01;
  inj.inject(loss);

  fs::FsTuning tuning;
  tuning.retry.enabled = true;
  tuning.retry.request_timeout = 5.0;
  tuning.retry.max_attempts = 3;
  tuning.retry.backoff_base = 4.0;
  tuning.retry.backoff_multiplier = 2.0;
  tuning.retry.backoff_cap = 8.0;
  tuning.retry.backoff_jitter = 0.0;
  auto filesystem = fs::make_filesystem(cluster, tuning);
  s.spawn(filesystem->request(/*rank=*/0, 64.0 * MiB, /*is_write=*/true,
                              /*shared_file=*/false));
  s.run();

  const auto& stats = filesystem->fault_stats();
  EXPECT_EQ(stats.failed_requests, 1u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.timeouts, stats.retries + stats.failed_requests);
  // Resolution lands at the 15 s deadline (plus sub-second software
  // overhead before the transfer started), never at 27 s.
  EXPECT_GE(s.now(), 15.0);
  EXPECT_LT(s.now(), 16.0);
}

}  // namespace
}  // namespace acic::io
