// Tests for the substrate plugin registry (DESIGN.md §14): the generic
// Registry contracts (typed errors, deterministic enumeration, stable
// references, thread safety), the seeded process registries for all
// four axes, the paramspace grids derived from plugin-declared knobs,
// and the RunKey guarantees around the knob fold — including the
// golden 504-key regression pinning every pre-plugin key bit-stable.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "acic/apps/apps.hpp"
#include "acic/cloud/ioconfig.hpp"
#include "acic/core/paramspace.hpp"
#include "acic/exec/runkey.hpp"
#include "acic/io/runner.hpp"
#include "acic/ml/dataset.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::plugin {
namespace {

LearnerPlugin stub_learner(std::string name) {
  LearnerPlugin p;
  p.name = std::move(name);
  p.description = "test stub";
  p.make = [] { return std::unique_ptr<ml::Learner>(); };
  return p;
}

TEST(PluginRegistryTest, DuplicateRegistrationIsATypedError) {
  Registry<LearnerPlugin> reg(Kind::kLearner);
  reg.add(stub_learner("alpha"));
  try {
    reg.add(stub_learner("alpha"));
    FAIL() << "expected PluginError";
  } catch (const PluginError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDuplicateName);
    EXPECT_EQ(e.kind(), Kind::kLearner);
    EXPECT_EQ(e.name(), "alpha");
    EXPECT_EQ(e.registered(), std::vector<std::string>{"alpha"});
    EXPECT_NE(std::string(e.what()).find("alpha"), std::string::npos);
  }
  // The failed add left the registry unchanged.
  EXPECT_EQ(reg.size(), 1u);
}

TEST(PluginRegistryTest, UnknownLookupListsRegisteredNames) {
  Registry<LearnerPlugin> reg(Kind::kLearner);
  reg.add(stub_learner("beta"));
  reg.add(stub_learner("alpha"));
  try {
    reg.lookup("gamma");
    FAIL() << "expected PluginError";
  } catch (const PluginError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnknownName);
    EXPECT_EQ(e.name(), "gamma");
    const std::vector<std::string> want = {"alpha", "beta"};
    EXPECT_EQ(e.registered(), want);
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown learner 'gamma'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("alpha, beta"), std::string::npos) << what;
  }
}

TEST(PluginRegistryTest, FindIsNonThrowing) {
  Registry<LearnerPlugin> reg(Kind::kLearner);
  reg.add(stub_learner("alpha"));
  EXPECT_NE(reg.find("alpha"), nullptr);
  EXPECT_EQ(reg.find("nope"), nullptr);
}

TEST(PluginRegistryTest, EnumerationIsNameSortedRegardlessOfAddOrder) {
  Registry<LearnerPlugin> reg(Kind::kLearner);
  reg.add(stub_learner("zeta"));
  reg.add(stub_learner("alpha"));
  reg.add(stub_learner("mid"));
  const std::vector<std::string> want = {"alpha", "mid", "zeta"};
  EXPECT_EQ(reg.names(), want);
  std::vector<std::string> via_all;
  for (const auto* p : reg.all()) via_all.push_back(p->name);
  EXPECT_EQ(via_all, want);
}

TEST(PluginRegistryTest, ReferencesSurviveLaterRegistrations) {
  Registry<LearnerPlugin> reg(Kind::kLearner);
  const LearnerPlugin& first = reg.add(stub_learner("first"));
  for (int i = 0; i < 64; ++i) {
    reg.add(stub_learner("filler" + std::to_string(i)));
  }
  EXPECT_EQ(first.name, "first");  // node-stable map: still valid
  EXPECT_EQ(&reg.lookup("first"), &first);
}

// The static-init seeds: every substrate the binary ships must be
// registered, under its canonical name, with no registration errors.
TEST(PluginRegistryTest, SeedSubstratesAreRegistered) {
  EXPECT_TRUE(registration_errors().empty());

  const std::vector<std::string> fs_want = {"lustre", "nfs", "pvfs2"};
  EXPECT_EQ(filesystems().names(), fs_want);
  const std::vector<std::string> learner_want = {"cart", "forest", "knn",
                                                 "linear"};
  EXPECT_EQ(learners().names(), learner_want);
  const std::vector<std::string> fault_want = {
      "brownouts", "lossy-az", "none", "outages", "spot-preempt",
      "stragglers"};
  EXPECT_EQ(fault_models().names(), fault_want);
  const std::vector<std::string> pricing_want = {"detailed", "eq1", "spot"};
  EXPECT_EQ(pricings().names(), pricing_want);
}

TEST(PluginRegistryTest, FilesystemBridgesAgree) {
  const auto& nfs = filesystem_named("nfs");
  EXPECT_EQ(nfs.name, "nfs");
  EXPECT_EQ(cloud::IoConfig().fs, &nfs);  // the default substrate
  EXPECT_TRUE(nfs.single_server);
  EXPECT_TRUE(nfs.matches("NFS"));
  const auto& pvfs = filesystem_named("PVFS2");  // display-name spelling
  EXPECT_EQ(pvfs.name, "pvfs2");
  EXPECT_EQ(&pvfs, &filesystem_named("pvfs"));  // alias spelling
  EXPECT_EQ(&filesystem_for_level(0.2), &nfs);   // snaps to nearest
  EXPECT_EQ(&filesystem_for_level(2.4), &filesystem_named("lustre"));

  // Lustre is registered but outside the paper's Table 1 grid.
  const auto grid = default_grid_filesystems();
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid[0]->name, "nfs");    // point_id order, not name order
  EXPECT_EQ(grid[1]->name, "pvfs2");
}

TEST(PluginRegistryTest, MakeLearnerConstructsEverySeed) {
  for (const auto* p : learners().all()) {
    const auto learner = make_learner(p->name);
    ASSERT_NE(learner, nullptr) << p->name;
  }
  EXPECT_THROW(make_learner("perceptron"), PluginError);
}

TEST(PluginRegistryTest, InventoryIsKindMajorAndNameSorted) {
  const auto inv = inventory();
  ASSERT_EQ(inv.size(), filesystems().size() + learners().size() +
                            fault_models().size() + pricings().size());
  // Kind blocks in declaration order, names sorted within each block.
  EXPECT_EQ(inv.front().kind, Kind::kFilesystem);
  EXPECT_EQ(inv.front().name, "lustre");
  EXPECT_EQ(inv.back().kind, Kind::kPricing);
  EXPECT_EQ(inv.back().name, "spot");
  for (std::size_t i = 1; i < inv.size(); ++i) {
    if (inv[i - 1].kind == inv[i].kind) {
      EXPECT_LT(inv[i - 1].name, inv[i].name);
    } else {
      EXPECT_LT(static_cast<int>(inv[i - 1].kind),
                static_cast<int>(inv[i].kind));
    }
  }
}

// Readers and writers racing on one registry: exercised under the tsan
// preset (tests/CMakeLists.txt filters PluginRegistry* in).
TEST(PluginRegistryConcurrency, ConcurrentLookupAndRegistration) {
  Registry<LearnerPlugin> reg(Kind::kLearner);
  for (int i = 0; i < 8; ++i) {
    reg.add(stub_learner("seed" + std::to_string(i)));
  }
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kPerWriter = 32;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&reg, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        reg.add(stub_learner("w" + std::to_string(w) + "." +
                             std::to_string(i)));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < 256; ++i) {
        EXPECT_EQ(reg.lookup("seed" + std::to_string(i % 8)).description,
                  "test stub");
        EXPECT_EQ(reg.find("never-registered"), nullptr);
        const auto names = reg.names();
        EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.size(), 8u + kWriters * kPerWriter);
}

// The parameter-space grids are derived from plugin-declared knobs; the
// derivation must reproduce the paper's Table 1 values exactly.
TEST(PluginParamSpace, GridsDeriveFromDeclaredKnobs) {
  const auto& fs = core::ParamSpace::dimension(core::kFileSystem);
  EXPECT_EQ(fs.values, (std::vector<double>{0.0, 1.0}));
  const auto& servers = core::ParamSpace::dimension(core::kIoServers);
  EXPECT_EQ(servers.values, (std::vector<double>{1.0, 2.0, 4.0}));
  const auto& stripe = core::ParamSpace::dimension(core::kStripeSize);
  EXPECT_EQ(stripe.values, (std::vector<double>{64.0 * KiB, 4.0 * MiB}));
  EXPECT_EQ(cloud::IoConfig::enumerate_candidates().size(), 56u);
}

// ---------------------------------------------------------------------
// RunKey knob fold + golden regression
// ---------------------------------------------------------------------

io::Workload knobfold_workload() { return apps::btio(64); }

cloud::IoConfig knobfold_config() {
  cloud::IoConfig c;
  filesystem_named("pvfs2").configure(c, 4, 4.0 * MiB);
  return c;
}

TEST(RunKeyKnobFold, EmptyKnobListContributesZeroBytes) {
  const auto w = knobfold_workload();
  const auto c = knobfold_config();
  const io::RunOptions opts;
  const std::string fp = exec::canonical_run_fingerprint(w, c, opts);
  EXPECT_EQ(fp.find("cfg.knobs"), std::string::npos) << fp;
}

TEST(RunKeyKnobFold, DeclaredKnobsSplitKeys) {
  const auto w = knobfold_workload();
  auto c = knobfold_config();
  const io::RunOptions opts;
  const auto base = exec::run_key(w, c, opts);
  c.plugin_knobs = {{"prefetch_depth", 8.0}};
  const auto with_knob = exec::run_key(w, c, opts);
  EXPECT_NE(base.hex(), with_knob.hex());
  c.plugin_knobs = {{"prefetch_depth", 16.0}};
  EXPECT_NE(with_knob.hex(), exec::run_key(w, c, opts).hex());
  const std::string fp = exec::canonical_run_fingerprint(w, c, opts);
  EXPECT_NE(fp.find("cfg.knobs.v1"), std::string::npos) << fp;
  EXPECT_NE(fp.find("k.prefetch_depth"), std::string::npos) << fp;
}

TEST(RunKeyKnobFold, KnobOrderDoesNotSplitKeys) {
  const auto w = knobfold_workload();
  auto c = knobfold_config();
  const io::RunOptions opts;
  c.plugin_knobs = {{"a", 1.0}, {"b", 2.0}};
  const auto forward = exec::run_key(w, c, opts);
  c.plugin_knobs = {{"b", 2.0}, {"a", 1.0}};
  EXPECT_EQ(forward.hex(), exec::run_key(w, c, opts).hex());
}

// The seed grid's 504 RunKeys (9 evaluation runs x 56 candidates),
// captured before the plugin-registry refactor.  Any drift here would
// silently orphan every persisted run cache, so a mismatch is a
// hard failure: either revert the key change or bump kVersionTag
// deliberately and regenerate the .inc.
struct GoldenKey {
  const char* run;    // "app/scale"
  const char* label;  // IoConfig::label()
  const char* hex;    // RunKey::hex()
};

constexpr GoldenKey kGoldenKeys[] = {
#include "golden_runkeys_seed_grid.inc"
};

TEST(RunKeyGolden, SeedGridKeysAreBitStable) {
  const auto runs = apps::evaluation_suite();
  const auto candidates = cloud::IoConfig::enumerate_candidates();
  ASSERT_EQ(std::size(kGoldenKeys), runs.size() * candidates.size());
  std::size_t i = 0;
  for (const auto& run : runs) {
    const std::string run_name = run.app + "/" + std::to_string(run.scale);
    for (const auto& c : candidates) {
      const io::RunOptions opts;  // defaults, as the ground-truth grid uses
      ASSERT_EQ(run_name, kGoldenKeys[i].run) << "grid order drifted at " << i;
      ASSERT_EQ(c.label(), kGoldenKeys[i].label)
          << "grid order drifted at " << i;
      EXPECT_EQ(exec::run_key(run.workload, c, opts).hex(),
                kGoldenKeys[i].hex)
          << run_name << " " << c.label();
      ++i;
    }
  }
}

}  // namespace
}  // namespace acic::plugin
