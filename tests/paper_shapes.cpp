// The paper's §5.6 training observations as executable orderings.
//
// Observations 1-4 of bench/obs_training_insights, with the bench's
// workloads, configurations and seed.  Each assertion is an ordering
// ("who wins"), not a magnitude: EXPERIMENTS.md records the measured
// values, and these tests fail the day a model change flips a winner.
#include <gtest/gtest.h>

#include "acic/apps/apps.hpp"
#include "acic/cloud/ioconfig.hpp"
#include "acic/io/runner.hpp"
#include "acic/ior/ior.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic {
namespace {

cloud::IoConfig pvfs(int servers, storage::DeviceType dev,
                     cloud::Placement place) {
  cloud::IoConfig c;
  plugin::filesystem_named("pvfs2").configure(c, servers, 4.0 * MiB);
  c.device = dev;
  c.placement = place;
  return c;
}

io::RunResult run(const io::Workload& w, const cloud::IoConfig& c) {
  io::RunOptions o;
  o.seed = 17;
  return io::run_workload(w, c, o);
}

using storage::DeviceType;
using cloud::Placement;

// Obs 1: part-time servers are cheaper than dedicated ones for
// collective (aggregator) applications.
TEST(PaperShapes, PartTimeCheaperThanDedicatedForBtio64) {
  const auto w = apps::btio(64);
  const auto part =
      run(w, pvfs(4, DeviceType::kEphemeral, Placement::kPartTime));
  const auto ded =
      run(w, pvfs(4, DeviceType::kEphemeral, Placement::kDedicated));
  EXPECT_LT(part.cost, ded.cost);
}

// Obs 2: more PVFS2 servers help; MADbench2-256 time falls 1 -> 2 -> 4.
TEST(PaperShapes, Madbench256TimeMonotoneOverServers) {
  const auto w = apps::madbench2(256);
  double prev = 0.0;
  for (int servers : {1, 2, 4}) {
    const auto r =
        run(w, pvfs(servers, DeviceType::kEphemeral, Placement::kDedicated));
    if (prev > 0.0) {
      EXPECT_LE(r.total_time, prev) << servers << " servers";
    }
    prev = r.total_time;
  }
}

// Obs 3: ephemeral disks beat EBS once more than one server is used.
TEST(PaperShapes, EphemeralFasterThanEbsForMpiblast64) {
  const auto w = apps::mpiblast(64);
  const auto eph =
      run(w, pvfs(4, DeviceType::kEphemeral, Placement::kDedicated));
  const auto ebs = run(w, pvfs(4, DeviceType::kEbs, Placement::kDedicated));
  EXPECT_LT(eph.total_time, ebs.total_time);
}

// Obs 4: NFS works better than a striped parallel FS for small POSIX
// writes.
TEST(PaperShapes, NfsFasterThanPvfs4ForSmallPosixWrites) {
  const auto w = ior::IorBench()
                     .api("POSIX")
                     .tasks(32)
                     .block_size(4.0 * MiB)
                     .transfer_size(256.0 * KiB)
                     .segments(5)
                     .file_per_process(true)
                     .write_only()
                     .build();
  cloud::IoConfig nfs;
  plugin::filesystem_named("nfs").configure(nfs);
  nfs.device = DeviceType::kEphemeral;
  nfs.placement = Placement::kDedicated;
  const auto n = run(w, nfs);
  const auto p = run(w, pvfs(4, DeviceType::kEphemeral, Placement::kDedicated));
  EXPECT_LT(n.total_time, p.total_time);
}

}  // namespace
}  // namespace acic
