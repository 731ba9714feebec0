#include "acic/cloud/ioconfig.hpp"

#include <sstream>

#include "acic/common/error.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::cloud {

const char* to_string(Placement p) {
  switch (p) {
    case Placement::kPartTime:
      return "part-time";
    case Placement::kDedicated:
      return "dedicated";
  }
  return "?";
}

Placement placement_from_string(const std::string& s) {
  if (s == "part-time" || s == "P") return Placement::kPartTime;
  if (s == "dedicated" || s == "D") return Placement::kDedicated;
  throw Error("unknown placement: " + s);
}

const plugin::FilesystemPlugin* default_filesystem() {
  // Resolved on first use, after static init has registered the seeds.
  static const plugin::FilesystemPlugin* const nfs =
      &plugin::filesystems().lookup("nfs");
  return nfs;
}

bool IoConfig::valid() const {
  if (io_servers < 1) return false;
  if (fs->single_server && io_servers != 1) return false;
  if (!fs->single_server && stripe_size <= 0.0) return false;
  if (raid_members < 0) return false;
  return true;
}

int IoConfig::effective_raid_members() const {
  if (raid_members > 0) return raid_members;
  switch (device) {
    case storage::DeviceType::kEphemeral:
      return instance_spec(instance).ephemeral_disks;
    case storage::DeviceType::kEbs:
      return 2;  // the common two-volume RAID-0 EBS setup
    case storage::DeviceType::kSsd:
      return 2;
  }
  return 1;
}

std::string IoConfig::label() const {
  std::ostringstream os;
  os << fs->label_stem;
  if (!fs->single_server) os << "." << io_servers;
  os << "." << (placement == Placement::kDedicated ? "D" : "P");
  os << ".";
  switch (device) {
    case storage::DeviceType::kEphemeral:
      os << "eph";
      break;
    case storage::DeviceType::kEbs:
      os << "ebs";
      break;
    case storage::DeviceType::kSsd:
      os << "ssd";
      break;
  }
  if (!fs->single_server) {
    os << (stripe_size >= MiB ? ".4M" : ".64K");
  }
  if (instance == InstanceType::kCc1_4xlarge) os << ".cc1";
  return os.str();
}

IoConfig IoConfig::baseline() {
  IoConfig c;
  c.device = storage::DeviceType::kEbs;
  c.fs = default_filesystem();
  c.instance = InstanceType::kCc2_8xlarge;
  c.io_servers = 1;
  c.placement = Placement::kDedicated;
  c.stripe_size = 0.0;
  c.raid_members = 0;  // EBS default resolves to the two-volume RAID-0
  return c;
}

namespace {

std::vector<IoConfig> enumerate_over(
    const std::vector<storage::DeviceType>& devices);

}  // namespace

std::vector<IoConfig> IoConfig::enumerate_candidates() {
  return enumerate_over(
      {storage::DeviceType::kEbs, storage::DeviceType::kEphemeral});
}

std::vector<IoConfig> IoConfig::enumerate_candidates_with_ssd() {
  return enumerate_over({storage::DeviceType::kEbs,
                         storage::DeviceType::kEphemeral,
                         storage::DeviceType::kSsd});
}

namespace {

std::vector<IoConfig> enumerate_over(
    const std::vector<storage::DeviceType>& devices) {
  std::vector<IoConfig> out;
  const InstanceType instances[] = {InstanceType::kCc1_4xlarge,
                                    InstanceType::kCc2_8xlarge};
  const Placement placements[] = {Placement::kPartTime, Placement::kDedicated};
  // Default-grid substrates in point_id order (NFS before PVFS2) with
  // their declared knob grids reproduce the seed 56-candidate order
  // byte for byte (guarded by the golden-RunKey regression).
  const auto grid = plugin::default_grid_filesystems();
  ACIC_CHECK_MSG(!grid.empty(), "no default-grid filesystem plugins");
  for (auto dev : devices) {
    for (auto inst : instances) {
      for (auto place : placements) {
        for (const plugin::FilesystemPlugin* substrate : grid) {
          IoConfig base;
          base.device = dev;
          base.instance = inst;
          base.placement = place;
          if (substrate->single_server) {
            substrate->configure(base);
            out.push_back(base);
            continue;
          }
          const plugin::Knob* servers = substrate->schema.find("io_servers");
          const plugin::Knob* stripes = substrate->schema.find("stripe_size");
          ACIC_CHECK_MSG(servers != nullptr && stripes != nullptr,
                         "striped substrate must declare io_servers and "
                         "stripe_size knobs");
          for (double server_count : servers->values) {
            for (double stripe : stripes->values) {
              IoConfig c = base;
              substrate->configure(c, static_cast<int>(server_count), stripe);
              out.push_back(c);
            }
          }
        }
      }
    }
  }
  for (const auto& c : out) ACIC_CHECK(c.valid());
  return out;
}

}  // namespace

}  // namespace acic::cloud
