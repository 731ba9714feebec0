// Pins the simulator's numeric model to its version.  A dozen seeded
// runs (clean, chaos presets, spot preemption with checkpoints) are
// digested field by field and compared with io::kSimModelDigest.  Any
// change to a simulated output, however small, fails here until
// io::kSimModelVersion is bumped (which sidelines every run store written
// by the old simulator) and the digest is updated next to it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "acic/cloud/ioconfig.hpp"
#include "acic/io/model_version.hpp"
#include "acic/io/runner.hpp"
#include "acic/io/workload.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::io {
namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

void digest(Fnv1a& d, const RunResult& r) {
  d.add(r.total_time);
  d.add(r.cost);
  d.add(r.io_time);
  d.add(static_cast<std::uint64_t>(r.num_instances));
  d.add(r.fs_requests);
  d.add(r.fs_bytes);
  d.add(r.sim_events);
  d.add(static_cast<std::uint64_t>(r.outcome));
  d.add(r.retries);
  d.add(r.timeouts);
  d.add(r.failed_requests);
  d.add(r.stalled_time);
  d.add(r.fault_events_cancelled);
  d.add(r.preemptions);
  d.add(r.restarts);
  d.add(r.lost_sim_time);
  d.add(r.checkpoint_bytes);
}

Workload probe(int np, Bytes data, OpMix op, bool collective) {
  Workload w;
  w.name = "digest-probe";
  w.num_processes = np;
  w.num_io_processes = np;
  w.interface = IoInterface::kMpiIo;
  w.iterations = 3;
  w.data_size = data;
  w.request_size = 1.0 * MiB;
  w.op = op;
  w.collective = collective;
  w.file_shared = collective;
  return w;
}

cloud::IoConfig pvfs(int servers, storage::DeviceType dev,
                     cloud::Placement place) {
  cloud::IoConfig c;
  plugin::filesystem_named("pvfs2").configure(c, servers, 1.0 * MiB);
  c.device = dev;
  c.placement = place;
  return c;
}

RunOptions preset(const char* name, std::uint64_t seed) {
  RunOptions o;
  o.seed = seed;
  o.fault_model = plugin::fault_models().lookup(name).model;
  return o;
}

TEST(SimModelDigest, SeededOutputsMatchTheModelVersion) {
  using storage::DeviceType;
  using cloud::Placement;
  struct Case {
    Workload w;
    cloud::IoConfig c;
    RunOptions o;
  };
  std::vector<Case> cases;
  // Clean runs: the NFS baseline, striped PVFS2 and part-time servers.
  RunOptions clean;
  clean.seed = 11;
  cases.push_back({probe(32, 8.0 * MiB, OpMix::kWrite, true),
                   cloud::IoConfig::baseline(), clean});
  cases.push_back({probe(64, 16.0 * MiB, OpMix::kReadWrite, false),
                   pvfs(4, DeviceType::kEphemeral, Placement::kDedicated),
                   clean});
  cases.push_back({probe(32, 32.0 * MiB, OpMix::kRead, true),
                   pvfs(2, DeviceType::kEbs, Placement::kPartTime), clean});
  cases.push_back({probe(16, 4.0 * MiB, OpMix::kWrite, false),
                   pvfs(1, DeviceType::kEphemeral, Placement::kPartTime),
                   clean});
  // Chaos presets: outages, brownouts, stragglers, correlated loss.
  int seed = 21;
  for (const char* name : {"outages", "brownouts", "stragglers", "lossy-az"}) {
    RunOptions o = preset(name, static_cast<std::uint64_t>(seed++));
    o.watchdog_sim_time = 4.0 * kHour;
    cases.push_back({probe(32, 64.0 * MiB, OpMix::kWrite, true),
                     pvfs(4, DeviceType::kEphemeral, Placement::kDedicated),
                     o});
  }
  // Spot preemption at a rate that lands reclaims inside these short
  // runs, with checkpoints small enough to finish in the notice window.
  for (std::uint64_t s : {31, 32, 33, 34}) {
    RunOptions o = preset("spot-preempt", s);
    o.fault_model.preemptions_per_hour = 60.0;
    o.fault_model.preemption_notice = 10.0;
    o.checkpoint.enabled = true;
    o.checkpoint.interval = 15.0;
    o.checkpoint.bytes = 8.0 * MiB;
    o.checkpoint.replacement_delay_min = 5.0;
    o.checkpoint.replacement_delay_max = 20.0;
    o.watchdog_sim_time = 4.0 * kHour;
    cases.push_back({probe(16, 256.0 * MiB, OpMix::kWrite, true),
                     pvfs(4, DeviceType::kEphemeral, Placement::kDedicated),
                     o});
  }

  Fnv1a d;
  std::uint64_t preemptions = 0;
  for (const auto& c : cases) {
    const RunResult r = run_workload(c.w, c.c, c.o);
    digest(d, r);
    preemptions += r.preemptions;
  }
  // The spot cases must exercise reclaim and restart, or they pin less
  // of the model than they claim to.
  EXPECT_GT(preemptions, 0u);

  char actual[32];
  std::snprintf(actual, sizeof(actual), "0x%016llxULL",
                static_cast<unsigned long long>(d.h));
  EXPECT_EQ(d.h, kSimModelDigest)
      << "simulator outputs changed: bump the model version ("
      << kSimModelVersion << " in src/acic/io/model_version.hpp) and set "
      << "kSimModelDigest to " << actual;
}

}  // namespace
}  // namespace acic::io
