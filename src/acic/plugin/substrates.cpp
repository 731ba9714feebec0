#include "acic/plugin/substrates.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace acic::plugin {

bool FilesystemPlugin::matches(std::string_view spelling) const {
  if (spelling == name || spelling == display_name) return true;
  return std::find(aliases.begin(), aliases.end(), spelling) != aliases.end();
}

void FilesystemPlugin::configure(cloud::IoConfig& config, int io_servers,
                                 Bytes stripe) const {
  config.fs = this;
  if (single_server) {
    config.io_servers = 1;
    config.stripe_size = 0.0;
  } else {
    config.io_servers = io_servers;
    config.stripe_size = stripe;
  }
}

namespace {

// A filesystem's point_id is its one numeric identity (RunKey cfg.fs as
// an int, paramspace level), so it must be a whole number in [0, INT_MAX]
// that no other filesystem holds.
void admit_filesystem(const FilesystemPlugin& candidate,
                      const std::vector<const FilesystemPlugin*>& registered) {
  const double id = candidate.point_id;
  const bool whole = id >= 0.0 && id <= std::numeric_limits<int>::max() &&
                     id == std::floor(id);
  const bool taken =
      std::any_of(registered.begin(), registered.end(),
                  [id](const FilesystemPlugin* p) { return p->point_id == id; });
  if (whole && !taken) return;
  std::vector<std::string> names;
  for (const FilesystemPlugin* p : registered) names.push_back(p->name);
  throw PluginError(ErrorCode::kInvalidPointId, Kind::kFilesystem,
                    candidate.name, std::move(names));
}

}  // namespace

Registry<FilesystemPlugin>& filesystems() {
  static Registry<FilesystemPlugin> registry(Kind::kFilesystem,
                                             &admit_filesystem);
  return registry;
}

const FilesystemPlugin& filesystem_for_level(double level) {
  const FilesystemPlugin* best = nullptr;
  double best_distance = 0.0;
  for (const FilesystemPlugin* p : filesystems().all()) {
    const double distance = std::abs(p->point_id - level);
    if (best == nullptr || distance < best_distance) {
      best = p;
      best_distance = distance;
    }
  }
  if (best == nullptr) {
    throw PluginError(ErrorCode::kUnknownName, Kind::kFilesystem,
                      "level#" + std::to_string(level), {});
  }
  return *best;
}

const FilesystemPlugin& filesystem_named(std::string_view spelling) {
  detail::count_lookup();
  for (const FilesystemPlugin* p : filesystems().all()) {
    if (p->matches(spelling)) return *p;
  }
  detail::count_lookup_miss();
  throw PluginError(ErrorCode::kUnknownName, Kind::kFilesystem,
                    std::string(spelling), filesystems().names());
}

std::vector<const FilesystemPlugin*> default_grid_filesystems() {
  std::vector<const FilesystemPlugin*> grid;
  for (const FilesystemPlugin* p : filesystems().all()) {
    if (p->in_default_grid) grid.push_back(p);
  }
  std::sort(grid.begin(), grid.end(),
            [](const FilesystemPlugin* a, const FilesystemPlugin* b) {
              return a->point_id < b->point_id;
            });
  return grid;
}

Registry<LearnerPlugin>& learners() {
  static Registry<LearnerPlugin> registry(Kind::kLearner);
  return registry;
}

std::unique_ptr<ml::Learner> make_learner(std::string_view name) {
  return learners().lookup(name).make();
}

Registry<FaultModelPlugin>& fault_models() {
  static Registry<FaultModelPlugin> registry(Kind::kFaultModel);
  return registry;
}

Registry<PricingPlugin>& pricings() {
  static Registry<PricingPlugin> registry(Kind::kPricing);
  return registry;
}

namespace {

template <class Plugin>
void append_inventory(const Registry<Plugin>& registry,
                      std::vector<PluginInfo>& out) {
  for (const Plugin* p : registry.all()) {
    PluginInfo info;
    info.kind = registry.kind();
    info.name = p->name;
    info.knob_count = p->schema.knobs.size();
    info.schema_version = p->schema.version;
    std::ostringstream os;
    os << to_string(registry.kind()) << " " << p->name
       << " knobs=" << p->schema.knobs.size() << " schema=v"
       << p->schema.version;
    info.summary = os.str();
    out.push_back(std::move(info));
  }
}

}  // namespace

std::vector<PluginInfo> inventory() {
  std::vector<PluginInfo> out;
  append_inventory(filesystems(), out);
  append_inventory(learners(), out);
  append_inventory(fault_models(), out);
  append_inventory(pricings(), out);
  return out;
}

}  // namespace acic::plugin
