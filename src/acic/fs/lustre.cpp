#include "acic/fs/lustre.hpp"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "acic/common/error.hpp"
#include "acic/plugin/substrates.hpp"
#include "acic/simcore/join.hpp"

namespace acic::fs {

namespace {
// Lustre-specific cost constants relative to the FsTuning PVFS2 numbers:
// threaded OSS pipelines and a dedicated MDT.
constexpr SimTime kClientOverhead = 0.30 * kMillisecond;
constexpr SimTime kServerOverhead = 0.12 * kMillisecond;
constexpr SimTime kLdlmLockCost = 0.15 * kMillisecond;
constexpr double kWriteLatencyFactor = 0.85;
constexpr double kReadLatencyFactor = 1.0;
constexpr SimTime kMdtOpCost = 0.25 * kMillisecond;
}  // namespace

LustreModel::LustreModel(cloud::ClusterModel& cluster, FsTuning tuning)
    : cluster_(cluster),
      tuning_(tuning),
      stripe_(cluster.options().config.stripe_size),
      servers_(cluster.num_io_servers()) {
  ACIC_CHECK(stripe_ > 0.0);
  ACIC_CHECK(servers_ >= 1);
}

int LustreModel::servers_touched(Bytes bytes) const {
  const int stripes = static_cast<int>(std::ceil(bytes / stripe_));
  return std::min(std::max(stripes, 1), servers_);
}

sim::Task LustreModel::server_chunk(int rank, int server, Bytes bytes,
                                    bool is_write, double op_weight) {
  auto& sim = cluster_.simulator();
  if (!cluster_.rank_colocated_with_server(rank, server)) {
    co_await sim.delay(cluster_.network_rpc_latency() * op_weight);
  }
  const double latency_factor =
      is_write ? kWriteLatencyFactor : kReadLatencyFactor;
  auto& queue = cluster_.server_op_queue(server);
  co_await queue.acquire();
  co_await sim.delay((kServerOverhead +
                      cluster_.device_latency(server) * latency_factor) *
                     op_weight);
  queue.release();
  auto path = is_write ? cluster_.write_path(rank, server)
                       : cluster_.read_path(rank, server);
  co_await resilient_transfer(cluster_, std::move(path), bytes);
}

sim::Task LustreModel::request(int rank, Bytes bytes, bool is_write,
                               bool shared_file, double op_weight) {
  account(bytes, op_weight);
  auto& sim = cluster_.simulator();

  const Bytes original = bytes / op_weight;
  const double stripes_per_original =
      std::max(1.0, std::ceil(original / stripe_));
  const double stripe_total = op_weight * stripes_per_original;
  const int touched_per_original = servers_touched(original);

  // Client cost: software per original request, per-stripe splitting,
  // and LDLM extent-lock acquisition for shared-file writes.
  SimTime client = kClientOverhead * op_weight +
                   tuning_.pvfs_per_stripe_cpu * stripe_total;
  if (is_write && shared_file) client += kLdlmLockCost * op_weight;
  co_await sim.delay(client);

  const int touched = std::min(
      servers_,
      std::max(servers_touched(bytes),
               op_weight > 1.0 ? servers_ : touched_per_original));
  const double weight_per_server =
      op_weight * static_cast<double>(touched_per_original) /
      static_cast<double>(touched);

  const int start = rank % servers_;
  if (touched == 1) {
    co_await server_chunk(rank, start, bytes, is_write, weight_per_server);
    co_return;
  }
  std::vector<sim::Task> chunks;
  chunks.reserve(static_cast<std::size_t>(touched));
  const Bytes per_server = bytes / static_cast<double>(touched);
  for (int i = 0; i < touched; ++i) {
    const int server = (start + i) % servers_;
    chunks.push_back(
        server_chunk(rank, server, per_server, is_write, weight_per_server));
  }
  co_await sim::when_all(sim, std::move(chunks));
}

sim::Task LustreModel::mdt_op(int rank, double cost_scale) {
  auto& sim = cluster_.simulator();
  constexpr int kMdt = 0;  // metadata target co-hosted on server 0
  if (!cluster_.rank_colocated_with_server(rank, kMdt)) {
    co_await sim.delay(cluster_.network_rpc_latency());
  }
  auto& queue = cluster_.server_op_queue(kMdt);
  co_await queue.acquire();
  co_await sim.delay(kMdtOpCost * cost_scale);
  queue.release();
}

sim::Task LustreModel::open_file(int rank) { co_await mdt_op(rank, 1.0); }

sim::Task LustreModel::close_file(int rank) { co_await mdt_op(rank, 0.6); }

}  // namespace acic::fs

// Lustre substrate registration: the post-paper extension (point 2).
// Registered but outside the default grid, so enumerate_candidates()
// and the trained rankings are unchanged; simulate/predict reach it by
// name.
ACIC_REGISTER_PLUGIN(lustre_filesystem) {
  acic::plugin::FilesystemPlugin p;
  p.name = "lustre";
  p.display_name = "Lustre";
  p.label_stem = "lustre";
  p.aliases = {"Lustre"};
  p.point_id = 2.0;
  p.single_server = false;
  p.in_default_grid = false;
  p.schema.version = 1;
  p.schema.knobs = {{"io_servers", {1.0, 2.0, 4.0}},
                    {"stripe_size", {64.0 * acic::KiB, 4.0 * acic::MiB}}};
  p.make = [](acic::cloud::ClusterModel& cluster,
              const acic::fs::FsTuning& tuning) {
    return std::make_unique<acic::fs::LustreModel>(cluster, tuning);
  };
  acic::plugin::filesystems().add(std::move(p));
}
