// Tests for trace replay: round-trip fidelity between a profiled
// application run and its synthetic stand-in.
#include <gtest/gtest.h>

#include "acic/apps/apps.hpp"
#include "acic/common/error.hpp"
#include "acic/plugin/substrates.hpp"
#include "acic/profiler/replay.hpp"

namespace acic::profiler {
namespace {

cloud::IoConfig pvfs4() {
  cloud::IoConfig c;
  plugin::filesystem_named("pvfs2").configure(c, 4, 4.0 * MiB);
  c.device = storage::DeviceType::kEphemeral;
  c.placement = cloud::Placement::kDedicated;
  return c;
}

TEST(ReplayTest, ReplayMovesSameBytes) {
  io::Workload w = apps::flashio(64);
  IoTracer tracer;
  io::RunOptions o;
  o.jitter_sigma = 0.0;
  o.tracer = &tracer;
  const auto original = io::run_workload(w, pvfs4(), o);
  const auto replay = replay_trace(tracer, pvfs4(), o);
  EXPECT_NEAR(replay.fs_bytes, original.fs_bytes,
              0.05 * original.fs_bytes);
}

TEST(ReplayTest, FidelityCloseToOneOnSameConfig) {
  // Pure-I/O comparison: the synthetic twin should track the original
  // within a modest factor (it collapses request-size variation into
  // the median).
  for (const auto& w : {apps::flashio(64), apps::madbench2(64)}) {
    io::RunOptions o;
    o.jitter_sigma = 0.0;
    const auto f = replay_fidelity(w, pvfs4(), o);
    EXPECT_GT(f.time_ratio, 0.6) << w.name;
    EXPECT_LT(f.time_ratio, 1.6) << w.name;
    EXPECT_NEAR(f.bytes_ratio, 1.0, 0.06) << w.name;
  }
}

TEST(ReplayTest, ReplayRanksConfigsLikeTheOriginal) {
  // The whole point: decisions made from the replay transfer to the
  // real application.  Compare two configurations both ways.
  const auto w = apps::mpiblast(32);
  IoTracer tracer;
  io::RunOptions traced;
  traced.jitter_sigma = 0.0;
  traced.tracer = &tracer;
  const auto base_cfg = cloud::IoConfig::baseline();
  const auto good_cfg = pvfs4();
  const auto real_base = io::run_workload(w, base_cfg, traced);

  io::RunOptions o;
  o.jitter_sigma = 0.0;
  const auto real_good = io::run_workload(w, good_cfg, o);
  const auto replay_base = replay_trace(tracer, base_cfg, o);
  const auto replay_good = replay_trace(tracer, good_cfg, o);
  // Same ordering and a similar gap.
  ASSERT_LT(real_good.total_time, real_base.total_time);
  EXPECT_LT(replay_good.total_time, replay_base.total_time);
}

TEST(ReplayTest, EmptyTraceIsRejected) {
  IoTracer empty;
  EXPECT_THROW(replay_trace(empty, pvfs4()), Error);
}

}  // namespace
}  // namespace acic::profiler
