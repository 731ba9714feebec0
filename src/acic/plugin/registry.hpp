// Substrate plugin registry (DESIGN.md §14).
//
// Every substrate axis ACIC ranks configurations across — file system,
// learner, fault-model preset, pricing model — used to be a hard-wired
// enum dispatched by switches scattered over five translation units.
// This registry replaces that with drizzle-style self-registration:
// each substrate's own .cpp declares a factory under a canonical name
// at static-init time (ACIC_REGISTER_PLUGIN), and every consumer
// constructs through a typed lookup instead of branching.
//
// Contracts:
//
//  * Deterministic enumeration — names()/all() return entries in
//    lexicographic name order, independent of link order or
//    registration order, so inventories and protocol responses are
//    reproducible across builds.
//  * Typed errors, never aborts — a duplicate name or an unknown
//    lookup throws PluginError (carrying the error code, the plugin
//    kind, the offending name and the registered names), which the
//    serving path converts into a protocol "error ..." line.  Static
//    initialisation itself never throws: the registration macro routes
//    failures into registration_errors() instead of std::terminate.
//  * Stable references — plugins are never removed, and the backing
//    map's nodes are address-stable, so the references handed out by
//    lookup()/find()/all() stay valid for the process lifetime.
//  * Thread safety — lookups take a shared (reader) lock; runtime
//    registration (tests, dynamically loaded substrates) takes the
//    exclusive side.  Counters for lookups/misses/registrations land
//    in the `plugin.*` metrics (see README metrics table).
//
// The concrete plugin types for the four axes (FilesystemPlugin,
// LearnerPlugin, FaultModelPlugin, PricingPlugin) and their process
// registries live in plugin/substrates.hpp.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "acic/common/check.hpp"
#include "acic/common/mutex.hpp"
#include "acic/common/thread_annotations.hpp"

namespace acic::plugin {

/// The four substrate axes a plugin can extend.
enum class Kind {
  kFilesystem,
  kLearner,
  kFaultModel,
  kPricing,
};

const char* to_string(Kind kind);

enum class ErrorCode {
  kDuplicateName,   ///< add() of a name that is already registered
  kUnknownName,     ///< lookup() of a name nobody registered
  kInvalidPointId,  ///< add() of a filesystem whose point_id is not a
                    ///< whole number >= 0 or is already held
};

/// Typed registry failure.  The what() message lists the registered
/// names so a protocol client (or an operator reading a log line) can
/// immediately see what this binary actually serves.
class PluginError : public Error {
 public:
  PluginError(ErrorCode code, Kind kind, std::string name,
              std::vector<std::string> registered);

  ErrorCode code() const { return code_; }
  Kind kind() const { return kind_; }
  const std::string& name() const { return name_; }
  const std::vector<std::string>& registered() const { return registered_; }

 private:
  ErrorCode code_;
  Kind kind_;
  std::string name_;
  std::vector<std::string> registered_;
};

/// One declared configuration knob: a name plus the value grid the
/// substrate samples it over (ascending).  Declared knobs drive two
/// things: the parameter-space grid (core/paramspace.cpp derives the
/// per-filesystem dimensions from them) and the RunKey knob fold
/// (exec/runkey.cpp hashes per-config knob values under the schema
/// version, so out-of-tree substrates get cache-correct keys).
struct Knob {
  std::string name;
  std::vector<double> values;
};

/// Versioned per-plugin knob declaration.  Bump `version` when a
/// knob's *meaning* changes; the version participates in the RunKey
/// fold, so old cached rows miss instead of being served wrongly.
struct KnobSchema {
  int version = 1;
  std::vector<Knob> knobs;

  const Knob* find(std::string_view name) const;
};

namespace detail {

// plugin.* metric taps, resolved once in registry.cpp so the template
// below stays header-only without multiplying registration sites.
void count_lookup();
void count_lookup_miss();
void count_registration();
void count_duplicate_registration();

/// Runs `fn` (a registration body) and swallows any exception into the
/// registration_errors() list: static initialisation must never call
/// std::terminate over a bad plugin — the serving path reports it as a
/// typed inventory entry instead.  Returns true when `fn` succeeded.
bool register_quietly(const char* where, void (*fn)()) noexcept;

}  // namespace detail

/// Registration bodies that threw during static init ("site: what").
/// Empty in a healthy binary; surfaced by the service `plugins` verb.
std::vector<std::string> registration_errors();

/// Name-keyed factory registry for one plugin kind.  See the file
/// comment for the determinism/error/reference-stability contracts.
template <class Plugin>
class Registry {
 public:
  /// Kind-specific admission rule for add(): throws PluginError to
  /// refuse `candidate` given the plugins already registered.
  using Admit = void (*)(const Plugin& candidate,
                         const std::vector<const Plugin*>& registered);

  explicit Registry(Kind kind, Admit admit = nullptr)
      : kind_(kind), admit_(admit) {}
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register `plugin` under its `name` member.  Throws PluginError
  /// (kDuplicateName) when the name is taken, or whatever the kind's
  /// admission rule throws; the registry is unchanged in either case.
  const Plugin& add(Plugin plugin) ACIC_EXCLUDES(mutex_) {
    ACIC_EXPECTS(!plugin.name.empty(), "plugin needs a non-empty name");
    MutexLock lock(&mutex_);
    if (entries_.find(plugin.name) != entries_.end()) {
      detail::count_duplicate_registration();
      throw PluginError(ErrorCode::kDuplicateName, kind_, plugin.name,
                        names_locked());
    }
    if (admit_ != nullptr) admit_(plugin, all_locked());
    detail::count_registration();
    const std::string name = plugin.name;
    return entries_.emplace(name, std::move(plugin)).first->second;
  }

  /// The plugin registered under `name`.  Throws PluginError
  /// (kUnknownName) listing every registered name on a miss.
  const Plugin& lookup(std::string_view name) const ACIC_EXCLUDES(mutex_) {
    detail::count_lookup();
    ReaderMutexLock lock(&mutex_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      detail::count_lookup_miss();
      throw PluginError(ErrorCode::kUnknownName, kind_, std::string(name),
                        names_locked());
    }
    return it->second;
  }

  /// Non-throwing lookup; nullptr on a miss.
  const Plugin* find(std::string_view name) const ACIC_EXCLUDES(mutex_) {
    ReaderMutexLock lock(&mutex_);
    const auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : &it->second;
  }

  /// Registered names, lexicographically sorted (deterministic).
  std::vector<std::string> names() const ACIC_EXCLUDES(mutex_) {
    ReaderMutexLock lock(&mutex_);
    return names_locked();
  }

  /// Every registered plugin in name order (deterministic).  The
  /// pointers stay valid for the registry's lifetime.
  std::vector<const Plugin*> all() const ACIC_EXCLUDES(mutex_) {
    ReaderMutexLock lock(&mutex_);
    return all_locked();
  }

  std::size_t size() const ACIC_EXCLUDES(mutex_) {
    ReaderMutexLock lock(&mutex_);
    return entries_.size();
  }

  Kind kind() const { return kind_; }

 private:
  std::vector<std::string> names_locked() const ACIC_REQUIRES_SHARED(mutex_) {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [name, plugin] : entries_) out.push_back(name);
    return out;
  }

  std::vector<const Plugin*> all_locked() const ACIC_REQUIRES_SHARED(mutex_) {
    std::vector<const Plugin*> out;
    out.reserve(entries_.size());
    for (const auto& [name, plugin] : entries_) out.push_back(&plugin);
    return out;
  }

  const Kind kind_;
  const Admit admit_;
  mutable Mutex mutex_;
  // std::map for two load-bearing properties: key-sorted iteration
  // (deterministic enumeration) and node stability (handed-out plugin
  // references survive later registrations).  std::less<> enables
  // string_view lookups without a temporary std::string.
  std::map<std::string, Plugin, std::less<>> entries_ ACIC_GUARDED_BY(mutex_);
};

// Static-init self-registration: expands to a uniquely named function
// whose body follows the macro, run once before main() with any
// exception captured into registration_errors() (never an abort).
//
//   ACIC_REGISTER_PLUGIN(nfs_filesystem) {
//     plugin::FilesystemPlugin p;
//     p.name = "nfs";
//     ...
//     plugin::filesystems().add(std::move(p));
//   }
#define ACIC_PLUGIN_CONCAT_INNER_(a, b) a##b
#define ACIC_PLUGIN_CONCAT_(a, b) ACIC_PLUGIN_CONCAT_INNER_(a, b)
#define ACIC_REGISTER_PLUGIN(token)                                          \
  static void ACIC_PLUGIN_CONCAT_(acic_plugin_register_, token)();           \
  static const bool ACIC_PLUGIN_CONCAT_(acic_plugin_registered_, token) =    \
      ::acic::plugin::detail::register_quietly(                              \
          #token, &ACIC_PLUGIN_CONCAT_(acic_plugin_register_, token));       \
  static void ACIC_PLUGIN_CONCAT_(acic_plugin_register_, token)()

}  // namespace acic::plugin
