// Checkpoint-cadence what-if study (the FLASHIO scenario from the
// paper's introduction): an astrophysics code writes periodic HDF5
// checkpoints, and the right cloud I/O setup changes with how much and
// how often it writes.
//
// This example sweeps checkpoint volume and cadence and, for each cell,
// asks the simulated cloud which of three natural setups wins — the
// common NFS-over-EBS baseline, an NFS server on local disks, or a
// 4-server PVFS2 array — printing the winner and its margin.  It shows
// the "no one-size-fits-all" effect of Figure 1 on a concrete scenario.
//
// The 27-run grid goes through the execution engine as one batch:
//   --jobs=N       host threads for the sweep (default: hardware)
//   --no-cache     bypass the run cache (every cell re-simulated)
//   --chaos=NAME   additionally run the grid under the named fault
//                  preset (e.g. spot-preempt) with system-level
//                  checkpoint/restart armed and spot billing, and report
//                  where preemptions move each cell's winner
#include <cstdio>
#include <string>
#include <vector>

#include "acic/apps/apps.hpp"
#include "acic/common/table.hpp"
#include "acic/exec/executor.hpp"
#include "acic/io/runner.hpp"
#include "acic/obs/metrics.hpp"
#include "acic/plugin/substrates.hpp"

int main(int argc, char** argv) {
  using namespace acic;

  bool no_cache = false;
  unsigned jobs = 0;
  std::string chaos;
  // Default picked so the stock chaos demo terminates fully graded (no
  // restart-budget exhaustion) while still flipping at least one cell's
  // winner; --chaos-seed explores other draws.
  std::uint64_t chaos_seed = 12;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg.rfind("--jobs=", 0) == 0) {
      jobs = static_cast<unsigned>(std::stoul(arg.substr(7)));
    } else if (arg.rfind("--chaos=", 0) == 0) {
      chaos = arg.substr(8);
    } else if (arg.rfind("--chaos-seed=", 0) == 0) {
      chaos_seed = std::stoull(arg.substr(13));
    }
  }

  cloud::IoConfig nfs_ebs = cloud::IoConfig::baseline();  // nfs.D.ebs
  cloud::IoConfig nfs_eph = nfs_ebs;
  nfs_eph.device = storage::DeviceType::kEphemeral;
  cloud::IoConfig pvfs4;
  plugin::filesystem_named("pvfs2").configure(pvfs4, 4, 4.0 * MiB);
  pvfs4.device = storage::DeviceType::kEphemeral;
  pvfs4.placement = cloud::Placement::kDedicated;
  const std::vector<cloud::IoConfig> setups = {nfs_ebs, nfs_eph, pvfs4};

  // Build the whole 9-cell x 3-setup grid, run it as one deduplicating
  // batch, then pick winners per cell from the scattered results.
  exec::ExecutorOptions pass_through;
  pass_through.cache = false;
  exec::Executor uncached(std::move(pass_through));
  exec::Executor& engine = no_cache ? uncached : exec::Executor::global();

  std::vector<exec::RunRequest> requests;
  for (double checkpoint_gb : {2.0, 15.0, 60.0}) {
    for (int dumps : {1, 5, 20}) {
      io::Workload w = apps::flashio(256);
      w.iterations = dumps;
      w.data_size = checkpoint_gb * GiB / 256.0;
      // Keep the same total solver time regardless of cadence.
      w.compute_per_iteration = 320.0 / (256.0 * dumps) + 30.0 / dumps;
      w.normalize();
      for (const auto& cfg : setups) {
        io::RunOptions opts;
        opts.seed = 7;
        requests.push_back(exec::RunRequest{w, cfg, opts});
      }
      if (!chaos.empty()) {
        // The same cell under spot reclamations: system-level restart
        // state (≈ one application checkpoint) dumped periodically
        // through the same file system, spot billing with per-restart
        // fees.  Unknown preset names throw the registry's PluginError
        // listing what is registered.
        for (const auto& cfg : setups) {
          io::RunOptions opts;
          opts.seed = chaos_seed;
          opts.fault_model = plugin::fault_models().lookup(chaos).model;
          opts.checkpoint.enabled = true;
          opts.checkpoint.interval = 120.0;
          opts.checkpoint.bytes = checkpoint_gb * GiB;
          opts.spot_pricing.emplace();
          requests.push_back(exec::RunRequest{w, cfg, opts});
        }
      }
    }
  }
  const auto results = engine.run_batch(requests, jobs, nullptr);
  {
    auto& reg = obs::MetricsRegistry::global();
    std::fprintf(stderr,
                 "[exec] runs_executed=%.0f cache_hits=%.0f "
                 "store_degraded=%.0f\n",
                 reg.counter("exec.runs_executed").value(),
                 reg.counter("exec.cache_hits").value(),
                 reg.gauge("exec.store.degraded").value());
    if (reg.gauge("exec.store.degraded").value() != 0.0) {
      std::fprintf(stderr,
                   "[exec] warning: run store degraded to memo-only — this "
                   "grid's results will not persist to ACIC_CACHE_DIR\n");
    }
  }

  TextTable table({"checkpoint", "every", "winner", "time", "runner-up x"});
  TextTable chaos_table({"checkpoint", "every", "winner", "time", "preempt",
                         "restarts", "lost", "outcome"});
  std::vector<std::string> clean_winners;
  std::size_t idx = 0;
  std::uint64_t total_preemptions = 0, total_restarts = 0;
  std::size_t failed_cells = 0, winner_changed = 0;
  for (double checkpoint_gb : {2.0, 15.0, 60.0}) {
    for (int dumps : {1, 5, 20}) {
      double best = 1e30, second = 1e30;
      std::string winner;
      for (const auto& cfg : setups) {
        const auto& r = results[idx++];
        if (r.total_time < best) {
          second = best;
          best = r.total_time;
          winner = cfg.label();
        } else if (r.total_time < second) {
          second = r.total_time;
        }
      }
      clean_winners.push_back(winner);
      table.add_row({format_bytes(checkpoint_gb * GiB),
                     std::to_string(dumps) + " dumps", winner,
                     format_time(best),
                     TextTable::num(second / best, 2) + "x"});
      if (chaos.empty()) continue;
      // The matching chaos trio follows its clean trio in the batch.
      // Failed runs carry meaningless timings and cannot win a cell.
      double cbest = 1e30;
      std::string cwinner = "(all failed)";
      std::uint64_t cpreempt = 0, crestarts = 0;
      SimTime clost = 0.0;
      bool cell_failed = false;
      for (const auto& cfg : setups) {
        const auto& r = results[idx++];
        cpreempt += r.preemptions;
        crestarts += r.restarts;
        clost += r.lost_sim_time;
        if (r.outcome == io::RunOutcome::kFailed) {
          cell_failed = true;
          continue;
        }
        if (r.total_time < cbest) {
          cbest = r.total_time;
          cwinner = cfg.label();
        }
      }
      total_preemptions += cpreempt;
      total_restarts += crestarts;
      if (cell_failed) ++failed_cells;
      if (cwinner != winner) ++winner_changed;
      chaos_table.add_row(
          {format_bytes(checkpoint_gb * GiB),
           std::to_string(dumps) + " dumps", cwinner,
           cbest < 1e29 ? format_time(cbest) : "-",
           std::to_string(cpreempt), std::to_string(crestarts),
           format_time(clost), cell_failed ? "had-failed" : "graded"});
    }
  }
  std::printf("FLASH-style checkpoint tuning on the simulated cloud\n");
  std::printf("(winner per cell among nfs.D.ebs / nfs.D.eph / pvfs.4.D)\n\n");
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nThe runner-up margin is the story: for small or infrequent\n"
      "checkpoints the NFS server's RAM write-back makes the cheap setup\n"
      "a statistical tie with the 4-server array (~1.0x), so paying for\n"
      "dedicated PVFS2 instances is wasted money; at 60 GiB x 20 dumps\n"
      "only aggregate PVFS2 bandwidth keeps up (~2x) — Figure 1's\n"
      "no-one-size-fits-all effect on a what-if grid.\n");
  if (!chaos.empty()) {
    std::printf(
        "\nSame grid under chaos=%s (spot reclamations, periodic\n"
        "system checkpoints through the configured fs, spot billing):\n\n",
        chaos.c_str());
    std::printf("%s", chaos_table.to_string().c_str());
    std::printf(
        "\nPreemptions tax the wide PVFS2 array hardest (4 servers = 4x\n"
        "the reclaim exposure) and every restart replays work lost since\n"
        "the last durable dump, so cells whose clean winner was the\n"
        "bandwidth king can flip to a cheaper, smaller-blast-radius\n"
        "setup.\n");
    std::printf(
        "[chaos] preset=%s preemptions=%llu restarts=%llu "
        "failed_cells=%zu winner_changed=%zu\n",
        chaos.c_str(), static_cast<unsigned long long>(total_preemptions),
        static_cast<unsigned long long>(total_restarts), failed_cells,
        winner_changed);
  }
  return 0;
}
