// Tests for the pricing models: paper Eq. (1) and the detailed EBS
// refinement (volume-hours + per-I/O charges).
#include <gtest/gtest.h>

#include "acic/cloud/pricing.hpp"
#include "acic/io/runner.hpp"
#include "acic/ior/ior.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::cloud {
namespace {

ClusterModel::Options opts(int np, IoConfig cfg) {
  ClusterModel::Options o;
  o.num_processes = np;
  o.config = cfg;
  o.jitter_sigma = 0.0;
  return o;
}

TEST(DetailedPricingTest, NoSurchargeForLocalDisks) {
  sim::Simulator s;
  IoConfig cfg;
  plugin::filesystem_named("pvfs2").configure(cfg, 4, 4.0 * MiB);
  cfg.device = storage::DeviceType::kEphemeral;
  cfg.placement = Placement::kDedicated;
  ClusterModel cluster(s, opts(32, cfg));
  DetailedPricing pricing;
  EXPECT_DOUBLE_EQ(pricing.ebs_surcharge(cluster, kHour, 1000000), 0.0);
  EXPECT_DOUBLE_EQ(pricing.run_cost(cluster, kHour, 1000000),
                   cluster.cost_of(kHour));
}

TEST(DetailedPricingTest, EbsSurchargeHasBothTerms) {
  sim::Simulator s;
  ClusterModel cluster(s, opts(32, IoConfig::baseline()));  // 2 EBS volumes
  DetailedPricing pricing;
  // One hour, 2 volumes x 200 GiB at $0.10/GB-month over 720 h.
  const Money capacity = 2.0 * 200.0 * 0.10 / 720.0;
  const Money per_io = 0.10;  // exactly one million I/Os
  const Money surcharge = pricing.ebs_surcharge(cluster, kHour, 1000000);
  EXPECT_NEAR(surcharge, capacity + per_io, 1e-9);
  EXPECT_NEAR(pricing.run_cost(cluster, kHour, 1000000),
              cluster.cost_of(kHour) + capacity + per_io, 1e-9);
}

TEST(DetailedPricingTest, ScalesWithServersAndMembers) {
  sim::Simulator s1, s2;
  IoConfig one = IoConfig::baseline();
  IoConfig four;
  plugin::filesystem_named("pvfs2").configure(four, 4, 4.0 * MiB);
  four.device = storage::DeviceType::kEbs;
  four.placement = Placement::kDedicated;
  ClusterModel c1(s1, opts(32, one)), c4(s2, opts(32, four));
  DetailedPricing pricing;
  // 4 servers x 2 volumes vs 1 server x 2 volumes: 4x capacity charge.
  EXPECT_NEAR(pricing.ebs_surcharge(c4, kHour, 0),
              4.0 * pricing.ebs_surcharge(c1, kHour, 0), 1e-9);
}

TEST(DetailedPricingTest, RunnerIntegration) {
  const auto w = ior::IorBench()
                     .tasks(32)
                     .block_size(64.0 * MiB)
                     .transfer_size(4.0 * MiB)
                     .write_only()
                     .build();
  io::RunOptions plain;
  plain.jitter_sigma = 0.0;
  io::RunOptions detailed = plain;
  detailed.detailed_pricing = DetailedPricing{};
  const auto a = ior::run_ior(w, IoConfig::baseline(), plain);
  const auto b = ior::run_ior(w, IoConfig::baseline(), detailed);
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
  EXPECT_GT(b.cost, a.cost);  // EBS surcharge applied
  // Ephemeral config: identical under both models.
  IoConfig eph = IoConfig::baseline();
  eph.device = storage::DeviceType::kEphemeral;
  const auto c = ior::run_ior(w, eph, plain);
  const auto d = ior::run_ior(w, eph, detailed);
  EXPECT_DOUBLE_EQ(c.cost, d.cost);
}

}  // namespace
}  // namespace acic::cloud
