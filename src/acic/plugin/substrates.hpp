// The four substrate axes behind the plugin registry (DESIGN.md §14):
// concrete plugin types and the process-wide registries holding them.
//
// Adding a substrate is one self-contained .cpp (see the README
// "Adding a substrate" quickstart): fill in the plugin struct, declare
// the knobs the substrate samples, and ACIC_REGISTER_PLUGIN it.  A
// filesystem is identified by its registry entry alone: IoConfig::fs
// points at it, and its point_id (a whole number no other filesystem
// holds) is its numeric identity.  The candidate enumeration,
// parameter-space grid, RunKey canonicalization, service inventory,
// and protocol name parsing all pick it up from the registry — no core
// surgery.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "acic/cloud/failure.hpp"
#include "acic/cloud/ioconfig.hpp"
#include "acic/cloud/pricing.hpp"
#include "acic/fs/filesystem.hpp"
#include "acic/ml/dataset.hpp"
#include "acic/plugin/registry.hpp"

namespace acic::plugin {

// ---------------------------------------------------------------------
// Filesystems
// ---------------------------------------------------------------------

/// A shared/parallel file-system substrate.  The structural flags
/// (single_server, in_default_grid) plus the declared knobs are what
/// used to be hard-wired `switch (config.fs)` logic in ioconfig.cpp,
/// paramspace.cpp and filesystem.cpp.
struct FilesystemPlugin {
  /// Canonical lowercase name ("nfs", "pvfs2", "lustre") — the
  /// registry key and the protocol spelling.
  std::string name;
  /// Display spelling, e.g. "PVFS2".
  std::string display_name;
  /// Label prefix for IoConfig::label(), e.g. "pvfs" in "pvfs.4.D.eph".
  std::string label_stem;
  /// Additional accepted spellings for filesystem_named().
  std::vector<std::string> aliases;
  /// The filesystem's numeric identity: the level of the kFileSystem
  /// paramspace dimension (the CART feature encoding) and the RunKey's
  /// cfg.fs field; 0 = NFS, 1 = PVFS2, 2 = Lustre for the seeds.
  /// Registration refuses a value that is not a whole number >= 0 or
  /// that another filesystem already holds (kInvalidPointId).
  double point_id = 0.0;
  /// NFS-style topology: exactly one server, no striping.  Drives the
  /// validity rules, label shape, and RunKey stripe canonicalization.
  bool single_server = false;
  /// Whether enumerate_candidates() includes this substrate (the
  /// paper's Table 1 grid is NFS + PVFS2; Lustre is the extension).
  bool in_default_grid = true;
  /// Declared knob grids: "io_servers" and, for striped systems,
  /// "stripe_size".  paramspace derives its dimensions from these.
  KnobSchema schema;
  /// Instantiate the simulation model for a provisioned cluster.
  std::function<std::unique_ptr<fs::FileSystem>(cloud::ClusterModel&,
                                                const fs::FsTuning&)>
      make;

  /// True when `spelling` is the name, display name, or an alias.
  bool matches(std::string_view spelling) const;

  /// Point `config` at this substrate, applying the structural rules:
  /// a single-server system forces one server and no stripe; a striped
  /// one takes the given server count and stripe size.
  void configure(cloud::IoConfig& config, int io_servers = 1,
                 Bytes stripe = 4.0 * MiB) const;
};

/// Process-wide filesystem registry (seeded by fs/{nfs,pvfs2,lustre}.cpp).
Registry<FilesystemPlugin>& filesystems();

/// Paramspace-level→plugin bridge: nearest registered point_id (the
/// same snapping rule ParamSpace::repaired applies to every dimension).
const FilesystemPlugin& filesystem_for_level(double level);

/// Name/alias→plugin parse; throws PluginError listing the registered
/// names on a miss (the typed error behind the service's fs= key).
const FilesystemPlugin& filesystem_named(std::string_view spelling);

/// Default-grid substrates in point_id order — the iteration order of
/// IoConfig::enumerate_candidates(), which must stay byte-stable.
std::vector<const FilesystemPlugin*> default_grid_filesystems();

// ---------------------------------------------------------------------
// Learners
// ---------------------------------------------------------------------

struct LearnerPlugin {
  /// Canonical lowercase name: "cart", "forest", "knn", "linear".
  std::string name;
  std::string description;
  /// Declared hyper-parameters (defaults), for the inventory.
  KnobSchema schema;
  /// Construct a fresh, unfitted learner.
  std::function<std::unique_ptr<ml::Learner>()> make;
};

/// Process-wide learner registry (seeded by ml/{cart,forest,knn}.cpp).
Registry<LearnerPlugin>& learners();

/// Construct the named learner; throws PluginError listing registered
/// learner names on a miss.
std::unique_ptr<ml::Learner> make_learner(std::string_view name);

// ---------------------------------------------------------------------
// Fault-model presets
// ---------------------------------------------------------------------

/// A named chaos preset: a ready-to-use cloud::FaultModel.  Presets
/// are data, not factories — the injector consumes the model directly.
struct FaultModelPlugin {
  std::string name;
  std::string description;
  /// The preset's non-default rates/shapes, for the inventory.
  KnobSchema schema;
  cloud::FaultModel model;
};

/// Process-wide fault-preset registry (seeded by cloud/failure.cpp).
Registry<FaultModelPlugin>& fault_models();

// ---------------------------------------------------------------------
// Pricing models
// ---------------------------------------------------------------------

/// Everything a pricing model may charge for.  `detailed` carries the
/// caller's DetailedPricing rates when one was supplied (the "detailed"
/// plugin falls back to the 2013 defaults when it is null); `spot` and
/// `restarts` feed the spot-market plugin's discount + reacquisition-fee
/// terms the same way.
struct PricingContext {
  const cloud::ClusterModel* cluster = nullptr;
  SimTime duration = 0.0;
  std::uint64_t io_operations = 0;
  const cloud::DetailedPricing* detailed = nullptr;
  /// Replacement servers acquired after preemptions during the run.
  std::uint64_t restarts = 0;
  const cloud::SpotPricing* spot = nullptr;
};

struct PricingPlugin {
  /// Canonical name: "eq1" (the paper's Eq. (1)) or "detailed".
  std::string name;
  std::string description;
  /// Declared rate knobs (defaults), for the inventory.
  KnobSchema schema;
  std::function<Money(const PricingContext&)> cost;
};

/// Process-wide pricing registry (seeded by cloud/pricing.cpp).
Registry<PricingPlugin>& pricings();

// ---------------------------------------------------------------------
// Inventory
// ---------------------------------------------------------------------

/// One row of the cross-axis inventory (the `plugins` verb and
/// acic_serve --help): kind + name + knob count + schema version.
struct PluginInfo {
  Kind kind = Kind::kFilesystem;
  std::string name;
  std::size_t knob_count = 0;
  int schema_version = 1;
  std::string summary;
};

/// Every registered plugin across all four axes, kind-major then
/// name-sorted (deterministic).
std::vector<PluginInfo> inventory();

}  // namespace acic::plugin
