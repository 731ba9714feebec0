// Regression tests for specific bugs found and fixed during development.
// Each test encodes the failure mode so it cannot silently return.
#include <gtest/gtest.h>

#include "acic/apps/apps.hpp"
#include "acic/fs/nfs.hpp"
#include "acic/io/middleware.hpp"
#include "acic/io/runner.hpp"
#include "acic/ior/ior.hpp"
#include "acic/core/paramspace.hpp"
#include "acic/plugin/substrates.hpp"
#include "acic/simcore/flow.hpp"
#include <algorithm>

namespace acic {
namespace {

// --- FP zero-progress spin ---------------------------------------------
// At large simulated timestamps, a completion delay below one ulp of
// `now` cannot advance the clock; the flow network must still terminate.
// (Original symptom: millions of events at one frozen timestamp.)
TEST(Regression, FlowCompletionAtLargeTimestampsTerminates) {
  sim::Simulator s;
  sim::FlowNetwork net(s);
  const auto link = net.add_resource("link", 1.0e9);
  int completed = 0;
  // Start flows at a timestamp where 1e-12 s is below the ulp.
  s.at(2.0e4, [&] {
    for (int i = 0; i < 8; ++i) {
      net.start_flow({link}, 1.0e5 + i * 0.001, [&] { ++completed; });
    }
  });
  s.run();
  EXPECT_EQ(completed, 8);
  EXPECT_LT(s.events_executed(), 10000u);  // the spin burned millions
}

// The paper-scale repro: a big NFS write workload whose completion times
// land on sub-ulp boundaries.  Bounded event count == no spin.
TEST(Regression, LargeNfsWriteJobHasBoundedEventCount) {
  const auto w = ior::IorBench()
                     .api("POSIX")
                     .tasks(64)
                     .block_size(512.0 * MiB)
                     .transfer_size(256.0 * KiB)
                     .segments(100)
                     .write_only()
                     .file_per_process(false)
                     .build();
  io::RunOptions o;
  o.seed = 11ULL ^ 0xb5e11eULL ^ 39ULL;  // the original triggering seed
  const auto r = ior::run_ior(w, cloud::IoConfig::baseline(), o);
  EXPECT_GT(r.total_time, 0.0);
  EXPECT_LT(r.sim_events, 2'000'000u);
}

// --- Coalescing weight accounting on PVFS2 ------------------------------
// A coalesced request standing for N sub-stripe originals must charge N
// per-op services *in total*, not N on every server it fans out to.
// (Original symptom: mpiBLAST 3x slower after coalescing was added.)
TEST(Regression, CoalescedPvfsChargesOriginalRequestCount) {
  // 32 MiB of 256 KiB requests = 128 originals, each inside one 4 MiB
  // stripe.  Coalescing (cap 32) must not change the run time by more
  // than the scheduling granularity it trades away.
  auto base = ior::IorBench()
                  .api("POSIX")
                  .tasks(4)
                  .io_tasks(4)
                  .read_only()
                  .transfer_size(256.0 * KiB)
                  .file_per_process(true);
  cloud::IoConfig cfg;
  plugin::filesystem_named("pvfs2").configure(cfg, 4, 4.0 * MiB);
  cfg.device = storage::DeviceType::kEphemeral;
  cfg.placement = cloud::Placement::kDedicated;
  io::RunOptions o;
  o.jitter_sigma = 0.0;

  // Uncoalesced: 8 MiB -> 32 chunks (at the cap, weight 1).
  const auto small = ior::run_ior(base.block_size(8.0 * MiB).build(), cfg, o);
  // Coalesced: 32 MiB -> 32 chunks of weight 4.
  const auto big = ior::run_ior(base.block_size(32.0 * MiB).build(), cfg, o);
  // 4x the work should cost ~4x the time (same per-op totals per byte);
  // the weight bug made it ~4x *more* than that.
  const double ratio = big.total_time / small.total_time;
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.5);
}

// --- NFS write-back cache semantics -------------------------------------
TEST(Regression, NfsDirtyBytesDecayOverTime) {
  sim::Simulator s;
  cloud::ClusterModel::Options o;
  o.num_processes = 16;
  o.config = cloud::IoConfig::baseline();
  o.jitter_sigma = 0.0;
  cloud::ClusterModel cluster(s, o);
  fs::NfsModel nfs(cluster, fs::FsTuning{});

  SimTime done = -1;
  s.spawn([](fs::NfsModel& n, sim::Simulator& sim,
             SimTime& when) -> sim::Task {
    co_await n.request(0, 2.0 * GiB, /*write=*/true, /*shared=*/false, 1.0);
    when = sim.now();
  }(nfs, s, done));
  s.run();
  ASSERT_GT(done, 0.0);
  const Bytes right_after = nfs.dirty_bytes();
  EXPECT_GT(right_after, 1.0 * GiB);  // absorbed, not yet on the device

  // Let the leaky bucket drain for a while.
  s.at(done + 10.0, [] {});
  s.run();
  EXPECT_LT(nfs.dirty_bytes(), right_after);
}

TEST(Regression, NfsCacheOverflowFallsBackToDeviceSpeed) {
  // Writes beyond the cache limit must pay the device path: a workload
  // larger than the cache is much slower per byte than a small one.
  auto bench = ior::IorBench()
                   .api("POSIX")
                   .tasks(16)
                   .write_only()
                   .transfer_size(16.0 * MiB)
                   .file_per_process(true);
  io::RunOptions o;
  o.jitter_sigma = 0.0;
  const auto small =
      ior::run_ior(bench.block_size(256.0 * MiB).build(),
                   cloud::IoConfig::baseline(), o);  // 4 GiB total
  const auto huge =
      ior::run_ior(bench.block_size(4.0 * GiB).build(),
                   cloud::IoConfig::baseline(), o);  // 64 GiB >> 30 GiB cache
  const double per_byte_small = small.total_time / (16 * 256.0 * MiB);
  const double per_byte_huge = huge.total_time / (16 * 4.0 * GiB);
  EXPECT_GT(per_byte_huge, 2.0 * per_byte_small);
}

// --- Simulator process compaction ----------------------------------------
// Spawning far more short-lived processes than the compaction threshold
// must neither lose completions nor blow up the process table.
TEST(Regression, ProcessCompactionKeepsSemantics) {
  sim::Simulator s;
  int completed = 0;
  for (int i = 0; i < 20000; ++i) {
    s.spawn([](sim::Simulator& sim, int& done) -> sim::Task {
      co_await sim.delay(0.001);
      ++done;
    }(s, completed));
  }
  s.run();
  EXPECT_EQ(completed, 20000);
  EXPECT_TRUE(s.all_processes_done());
}

// --- Read+write mix prediction encoding ----------------------------------
// MADbench2-style read+write workloads encode op=0.5 and the sampled
// training grid includes that value, so the model is never extrapolating
// off the grid for half the evaluation suite.
TEST(Regression, OpMixValueIsOnTrainingGrid) {
  const auto& values =
      core::ParamSpace::dimension(core::kOpType).values;
  const auto w = apps::madbench2(64);
  const auto p = core::ParamSpace::encode(cloud::IoConfig::baseline(), w);
  EXPECT_NE(std::find(values.begin(), values.end(), p[core::kOpType]),
            values.end());
}

}  // namespace
}  // namespace acic
