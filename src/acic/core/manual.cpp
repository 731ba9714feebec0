#include "acic/core/manual.hpp"

#include "acic/plugin/substrates.hpp"

namespace acic::core {

namespace {

Bytes job_bytes(const io::Workload& w) { return w.total_bytes(); }

}  // namespace

cloud::IoConfig user_choice(const io::Workload& traits, Objective objective) {
  cloud::IoConfig c;
  c.instance = cloud::InstanceType::kCc2_8xlarge;  // "bigger is better"
  c.device = storage::DeviceType::kEphemeral;      // "local disks are fast"
  // The user reaches for NFS unless the job is obviously huge, and then
  // under-provisions the parallel file system.
  if (job_bytes(traits) < 8.0 * GiB) {
    plugin::filesystem_named("nfs").configure(c);
  } else {
    plugin::filesystem_named("pvfs2").configure(c, 2, 4.0 * MiB);
  }
  // "Part-time saves money" — applied to the cost goal and to small jobs.
  c.placement = (objective == Objective::kCost || traits.num_processes <= 64)
                    ? cloud::Placement::kPartTime
                    : cloud::Placement::kDedicated;
  return c;
}

std::vector<cloud::IoConfig> user_top3(const io::Workload& traits,
                                       Objective objective) {
  std::vector<cloud::IoConfig> out;
  out.push_back(user_choice(traits, objective));
  // Variant 2: hedge on the file system choice.
  cloud::IoConfig alt = out.front();
  if (alt.fs == &plugin::filesystem_named("nfs")) {
    plugin::filesystem_named("pvfs2").configure(alt, 2, 4.0 * MiB);
  } else {
    plugin::filesystem_named("nfs").configure(alt);
  }
  out.push_back(alt);
  // Variant 3: flip placement.
  cloud::IoConfig alt2 = out.front();
  alt2.placement = alt2.placement == cloud::Placement::kPartTime
                       ? cloud::Placement::kDedicated
                       : cloud::Placement::kPartTime;
  out.push_back(alt2);
  return out;
}

cloud::IoConfig developer_choice(const io::Workload& traits,
                                 Objective objective) {
  cloud::IoConfig c;
  c.instance = cloud::InstanceType::kCc2_8xlarge;
  c.device = storage::DeviceType::kEphemeral;
  // The developer knows the access pattern: parallel FS for volume,
  // NFS only for genuinely small output.
  if (job_bytes(traits) < 2.0 * GiB) {
    plugin::filesystem_named("nfs").configure(c);
  } else {
    // ... but is conservative about server count on smaller jobs.
    plugin::filesystem_named("pvfs2").configure(
        c, traits.num_processes >= 128 ? 4 : 2,
        traits.request_size <= 512.0 * KiB ? 64.0 * KiB : 4.0 * MiB);
  }
  c.placement = objective == Objective::kCost
                    ? cloud::Placement::kPartTime
                    : cloud::Placement::kDedicated;
  return c;
}

std::vector<cloud::IoConfig> developer_top3(const io::Workload& traits,
                                            Objective objective) {
  std::vector<cloud::IoConfig> out;
  out.push_back(developer_choice(traits, objective));
  cloud::IoConfig alt = out.front();
  if (alt.fs == &plugin::filesystem_named("pvfs2")) {
    // Variant 2: max out the server count.
    alt.io_servers = 4;
  } else {
    plugin::filesystem_named("pvfs2").configure(alt, 2, 4.0 * MiB);
  }
  out.push_back(alt);
  // Variant 3: flip placement on the primary pick.
  cloud::IoConfig alt2 = out.front();
  alt2.placement = alt2.placement == cloud::Placement::kPartTime
                       ? cloud::Placement::kDedicated
                       : cloud::Placement::kPartTime;
  out.push_back(alt2);
  return out;
}

}  // namespace acic::core
