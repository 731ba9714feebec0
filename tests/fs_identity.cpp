// Pins the filesystem identity rule (DESIGN.md §14): a filesystem is
// known by its registry entry alone, and its point_id is a whole number
// no other filesystem holds.  This registers DESIGN.md's "Adding a
// substrate" recipe (BeeGFS at point_id 3) plus two registrations the
// point_id rule must refuse, and checks that Lustre's label, RunKey,
// paramspace level and model stay Lustre's.
//
// Its own executable because registrations into the process-wide
// registry cannot be undone: linking these into acic_tests would change
// the registry every other suite sees.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "acic/cloud/cluster.hpp"
#include "acic/cloud/ioconfig.hpp"
#include "acic/core/paramspace.hpp"
#include "acic/core/training.hpp"
#include "acic/exec/runkey.hpp"
#include "acic/fs/filesystem.hpp"
#include "acic/fs/lustre.hpp"
#include "acic/ior/ior.hpp"
#include "acic/plugin/substrates.hpp"
#include "acic/simcore/simulator.hpp"

namespace {

/// BeeGFS stand-in: Lustre's behaviour under its own name, so a config
/// that resolves to the wrong substrate shows up in the model name.
class BeegfsModel final : public acic::fs::FileSystem {
 public:
  BeegfsModel(acic::cloud::ClusterModel& cluster,
              const acic::fs::FsTuning& tuning)
      : inner_(cluster, tuning) {}

  acic::sim::Task request(int rank, acic::Bytes bytes, bool is_write,
                          bool shared_file, double op_weight) override {
    return inner_.request(rank, bytes, is_write, shared_file, op_weight);
  }
  acic::sim::Task open_file(int rank) override {
    return inner_.open_file(rank);
  }
  acic::sim::Task close_file(int rank) override {
    return inner_.close_file(rank);
  }
  const char* name() const override { return "BeeGFS"; }

 private:
  acic::fs::LustreModel inner_;
};

acic::plugin::FilesystemPlugin striped(const std::string& name,
                                       double point_id) {
  acic::plugin::FilesystemPlugin p;
  p.name = name;
  p.display_name = name;
  p.label_stem = name;
  p.point_id = point_id;
  p.in_default_grid = false;
  p.schema.knobs = {{"io_servers", {1, 2, 4}},
                    {"stripe_size", {64 * acic::KiB, 4 * acic::MiB}}};
  p.make = [](acic::cloud::ClusterModel& cluster,
              const acic::fs::FsTuning& tuning) {
    return std::make_unique<BeegfsModel>(cluster, tuning);
  };
  return p;
}

// The DESIGN.md §14 recipe.
ACIC_REGISTER_PLUGIN(beegfs_filesystem) {
  acic::plugin::FilesystemPlugin p;
  p.name = "beegfs";
  p.display_name = "BeeGFS";
  p.label_stem = "beegfs";
  p.point_id = 3.0;
  p.in_default_grid = false;
  p.schema.knobs = {{"io_servers", {1, 2, 4}},
                    {"stripe_size", {64 * acic::KiB, 4 * acic::MiB}}};
  p.make = [](acic::cloud::ClusterModel& cluster,
              const acic::fs::FsTuning& tuning) {
    return std::make_unique<BeegfsModel>(cluster, tuning);
  };
  acic::plugin::filesystems().add(std::move(p));
}

// Refused at static init: point 3 was just taken by beegfs (same
// translation unit, so the order is fixed), and 2.5 is not whole.
ACIC_REGISTER_PLUGIN(taken_point_filesystem) {
  acic::plugin::filesystems().add(striped("taken", 3.0));
}
ACIC_REGISTER_PLUGIN(fractional_point_filesystem) {
  acic::plugin::filesystems().add(striped("fractional", 2.5));
}

}  // namespace

namespace acic {
namespace {

cloud::IoConfig striped_config(const char* fs) {
  cloud::IoConfig c;
  plugin::filesystem_named(fs).configure(c, 2, 4.0 * MiB);
  c.placement = cloud::Placement::kDedicated;
  c.device = storage::DeviceType::kEbs;
  return c;
}

std::string model_name(const cloud::IoConfig& config) {
  sim::Simulator s;
  cloud::ClusterModel::Options o;
  o.num_processes = 16;
  o.config = config;
  cloud::ClusterModel cluster(s, o);
  return fs::make_filesystem(cluster)->name();
}

TEST(FsIdentity, RecipeRegistrationLeavesLustreItsOwnIdentity) {
  const std::vector<std::string> names = {"beegfs", "lustre", "nfs",
                                          "pvfs2"};
  EXPECT_EQ(plugin::filesystems().names(), names);

  const cloud::IoConfig lustre = striped_config("lustre");
  const cloud::IoConfig beegfs = striped_config("beegfs");
  EXPECT_EQ(lustre.label(), "lustre.2.D.ebs.4M");
  EXPECT_EQ(beegfs.label(), "beegfs.2.D.ebs.4M");
  EXPECT_FALSE(lustre == beegfs);
  EXPECT_EQ(model_name(lustre), "Lustre");
  EXPECT_EQ(model_name(beegfs), "BeeGFS");

  // Lustre's RunKey is the one it had before BeeGFS existed (computed
  // with only the seed filesystems registered), and BeeGFS gets its own.
  const auto w = ior::IorBench().tasks(8).segments(2).build();
  const io::RunOptions opts;
  EXPECT_EQ(exec::run_key(w, lustre, opts).hex(),
            "d6a6d05f3e3d599404b37d48172d4299");
  EXPECT_NE(exec::run_key(w, lustre, opts), exec::run_key(w, beegfs, opts));

  const auto traits = core::ParamSpace::workload_of(core::default_point());
  const auto lp = core::ParamSpace::encode(lustre, traits);
  const auto bp = core::ParamSpace::encode(beegfs, traits);
  EXPECT_DOUBLE_EQ(lp[core::kFileSystem], 2.0);
  EXPECT_DOUBLE_EQ(bp[core::kFileSystem], 3.0);
  EXPECT_EQ(core::ParamSpace::config_of(lp).fs, lustre.fs);
  EXPECT_EQ(core::ParamSpace::config_of(bp).fs, beegfs.fs);

  // The paper's grid is untouched by an out-of-grid registration.
  const auto grid = plugin::default_grid_filesystems();
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid[0]->name, "nfs");
  EXPECT_EQ(grid[1]->name, "pvfs2");
  EXPECT_EQ(cloud::IoConfig::enumerate_candidates().size(), 56u);
}

TEST(FsIdentity, StaticInitRefusalsLandInRegistrationErrors) {
  const auto errors = plugin::registration_errors();
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_NE(errors[0].find("taken_point_filesystem"), std::string::npos);
  EXPECT_NE(errors[0].find("point_id"), std::string::npos);
  EXPECT_NE(errors[1].find("fractional_point_filesystem"), std::string::npos);
  EXPECT_NE(errors[1].find("point_id"), std::string::npos);
}

TEST(FsIdentity, RefusesTakenOrNonWholePointIdWithTypedError) {
  const auto before = plugin::filesystems().names();
  for (double point_id : {2.0, 2.5, -1.0,
                          std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()}) {
    try {
      plugin::filesystems().add(striped("late", point_id));
      ADD_FAILURE() << "point_id " << point_id << " was accepted";
    } catch (const plugin::PluginError& e) {
      EXPECT_EQ(e.code(), plugin::ErrorCode::kInvalidPointId) << point_id;
      EXPECT_EQ(e.kind(), plugin::Kind::kFilesystem);
      EXPECT_EQ(e.name(), "late");
    }
  }
  EXPECT_EQ(plugin::filesystems().names(), before);
  EXPECT_EQ(plugin::filesystems().find("late"), nullptr);
}

}  // namespace
}  // namespace acic
