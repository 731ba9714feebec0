// Figure 1: execution time and monetary cost of NPB BTIO under six named
// I/O configurations as the process count grows — the paper's motivating
// "no single configuration excels" picture.
//
// Series: nfs.D.eph, nfs.P.eph, pvfs.1.D.eph, pvfs.2.D.eph, pvfs.4.D.eph,
// pvfs.4.P.eph, over 16..121 processes (BT requires square counts).
#include <cstdio>
#include <vector>

#include "acic/apps/apps.hpp"
#include "acic/common/table.hpp"
#include "acic/io/runner.hpp"
#include "acic/plugin/substrates.hpp"
#include "support.hpp"

int main() {
  using namespace acic;

  auto make = [](const char* fs, int servers, cloud::Placement place) {
    cloud::IoConfig c;
    plugin::filesystem_named(fs).configure(c, servers, 4.0 * MiB);
    c.device = storage::DeviceType::kEphemeral;
    c.placement = place;
    return c;
  };
  const std::vector<cloud::IoConfig> configs = {
      make("nfs", 1, cloud::Placement::kDedicated),
      make("nfs", 1, cloud::Placement::kPartTime),
      make("pvfs2", 1, cloud::Placement::kDedicated),
      make("pvfs2", 2, cloud::Placement::kDedicated),
      make("pvfs2", 4, cloud::Placement::kDedicated),
      make("pvfs2", 4, cloud::Placement::kPartTime),
  };
  const std::vector<int> scales = {16, 36, 64, 81, 100, 121};

  std::vector<std::string> header = {"np"};
  for (const auto& c : configs) header.push_back(c.label());
  TextTable time_table(header), cost_table(header);

  for (int np : scales) {
    const auto w = apps::btio(np);
    std::vector<std::string> trow = {std::to_string(np)};
    std::vector<std::string> crow = {std::to_string(np)};
    for (const auto& cfg : configs) {
      io::RunOptions o;
      o.seed = 42;
      const auto r = io::run_workload(w, cfg, o);
      trow.push_back(TextTable::num(r.total_time, 1));
      crow.push_back(TextTable::num(r.cost, 3));
    }
    time_table.add_row(trow);
    cost_table.add_row(crow);
  }

  std::printf("=== Figure 1(a): BTIO total execution time (s) ===\n%s\n",
              time_table.to_string().c_str());
  std::printf("=== Figure 1(b): BTIO total cost ($) ===\n%s\n",
              cost_table.to_string().c_str());
  std::printf(
      "Expected shape (paper): configurations cross over with scale; no\n"
      "single series dominates both charts at all process counts.\n");
  return 0;
}
