// Unit and property tests for the max-min fair-share flow network.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "acic/common/error.hpp"
#include "acic/common/rng.hpp"
#include "acic/obs/metrics.hpp"
#include "acic/simcore/flow.hpp"
#include "acic/simcore/simulator.hpp"

namespace acic::sim {
namespace {

TEST(FlowNetwork, SingleFlowUsesFullCapacity) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);  // 100 B/s
  SimTime done_at = -1.0;
  net.start_flow({link}, 1000.0, [&] { done_at = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(done_at, 10.0);
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_NEAR(net.bytes_delivered(), 1000.0, 1e-6);
}

TEST(FlowNetwork, BytesAreConservedAcrossContendedTransfers) {
  Simulator s;
  FlowNetwork net(s);
  Rng rng(99);
  const auto a = net.add_resource("a", 80.0);
  const auto b = net.add_resource("b", 120.0);
  const auto c = net.add_resource("c", 50.0);
  Bytes injected = 0.0;
  for (int i = 0; i < 40; ++i) {
    const Bytes bytes = 1.0 + rng.uniform() * 5000.0;
    injected += bytes;
    std::vector<ResourceId> path;
    if (i % 3 == 0) path = {a, c};
    else if (i % 3 == 1) path = {b};
    else path = {a, b, c};
    const SimTime when = rng.uniform() * 30.0;
    s.at(when, [&net, path, bytes]() mutable {
      net.start_flow(std::move(path), bytes, nullptr);
    });
  }
  s.run();
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_DOUBLE_EQ(net.bytes_injected(), injected);
  // Conservation: once everything completed, delivered == injected up to
  // fp integration noise.
  EXPECT_NEAR(net.bytes_delivered(), injected, 1e-6 * injected);
}

TEST(FlowNetwork, RejectsDegenerateFlows) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  EXPECT_THROW(net.start_flow({}, 10.0, nullptr), Error);
  EXPECT_THROW(net.start_flow({link + 7}, 10.0, nullptr), Error);
  EXPECT_THROW(net.start_flow({link}, -1.0, nullptr), Error);
  EXPECT_THROW(net.set_capacity(link, -5.0), Error);
}

TEST(FlowNetwork, TwoFlowsShareEqually) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  SimTime a_done = -1, b_done = -1;
  net.start_flow({link}, 1000.0, [&] { a_done = s.now(); });
  net.start_flow({link}, 1000.0, [&] { b_done = s.now(); });
  s.run();
  // Both run at 50 B/s -> 20 s each.
  EXPECT_NEAR(a_done, 20.0, 1e-9);
  EXPECT_NEAR(b_done, 20.0, 1e-9);
}

TEST(FlowNetwork, ShortFlowFinishesThenLongSpeedsUp) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  SimTime small_done = -1, big_done = -1;
  net.start_flow({link}, 500.0, [&] { small_done = s.now(); });
  net.start_flow({link}, 1500.0, [&] { big_done = s.now(); });
  s.run();
  // Phase 1: both at 50 B/s until small ends at t=10 (500 B each).
  // Phase 2: big alone at 100 B/s for remaining 1000 B -> ends t=20.
  EXPECT_NEAR(small_done, 10.0, 1e-9);
  EXPECT_NEAR(big_done, 20.0, 1e-9);
}

TEST(FlowNetwork, LateArrivalSlowsExistingFlow) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  SimTime first_done = -1;
  net.start_flow({link}, 1000.0, [&] { first_done = s.now(); });
  s.at(5.0, [&] { net.start_flow({link}, 10000.0, nullptr); });
  s.run();
  // 500 B in first 5 s, then 50 B/s -> 10 more seconds.
  EXPECT_NEAR(first_done, 15.0, 1e-9);
}

TEST(FlowNetwork, BottleneckOnSharedMiddleResource) {
  Simulator s;
  FlowNetwork net(s);
  const auto a = net.add_resource("nic-a", 1000.0);
  const auto b = net.add_resource("nic-b", 1000.0);
  const auto shared = net.add_resource("server", 100.0);
  SimTime done_a = -1, done_b = -1;
  net.start_flow({a, shared}, 500.0, [&] { done_a = s.now(); });
  net.start_flow({b, shared}, 500.0, [&] { done_b = s.now(); });
  s.run();
  // Server capacity 100 split two ways -> 50 B/s each -> 10 s.
  EXPECT_NEAR(done_a, 10.0, 1e-9);
  EXPECT_NEAR(done_b, 10.0, 1e-9);
}

TEST(FlowNetwork, MaxMinGivesUnbottleneckedFlowTheRest) {
  Simulator s;
  FlowNetwork net(s);
  const auto wide = net.add_resource("wide", 100.0);
  const auto narrow = net.add_resource("narrow", 10.0);
  // Flow A crosses only the wide link; flow B crosses both.
  net.start_flow({wide}, 1e9, nullptr);
  net.start_flow({wide, narrow}, 1e9, nullptr);
  s.at(0.0, [&] {});
  s.step();
  // B is capped at 10 by the narrow link; A gets the remaining 90.
  // (Rates are observable immediately after the initial solve.)
  EXPECT_EQ(net.active_flows(), 2u);
  double ra = net.flow_rate(1), rb = net.flow_rate(2);
  EXPECT_NEAR(rb, 10.0, 1e-9);
  EXPECT_NEAR(ra, 90.0, 1e-9);
}

TEST(FlowNetwork, ZeroByteFlowCompletesImmediately) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  bool done = false;
  net.start_flow({link}, 0.0, [&] { done = true; });
  s.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
}

TEST(FlowNetwork, CapacityDropStallsAndRecovers) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  SimTime done = -1;
  net.start_flow({link}, 1000.0, [&] { done = s.now(); });
  s.at(5.0, [&] { net.set_capacity(link, 0.0); });   // failure
  s.at(25.0, [&] { net.set_capacity(link, 100.0); });  // recovery
  s.run();
  // 500 B before failure, 20 s stall, 5 s to finish the rest.
  EXPECT_NEAR(done, 30.0, 1e-9);
}

TEST(FlowNetwork, RejectsEmptyPathAndBadResource) {
  Simulator s;
  FlowNetwork net(s);
  EXPECT_THROW(net.start_flow({}, 10.0, nullptr), Error);
  EXPECT_THROW(net.start_flow({99}, 10.0, nullptr), Error);
}

Task transfer_and_mark(FlowNetwork& net, std::vector<ResourceId> path,
                       Bytes bytes, Simulator& s, SimTime& done_at) {
  co_await net.transfer(std::move(path), bytes);
  done_at = s.now();
}

TEST(FlowNetwork, CoroutineTransferAwaitsCompletion) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  SimTime done_at = -1;
  s.spawn(transfer_and_mark(net, {link}, 250.0, s, done_at));
  s.run();
  EXPECT_NEAR(done_at, 2.5, 1e-9);
}

TEST(FlowNetwork, CancelFlowDropsRemainingBytes) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  bool completed = false;
  const FlowId id = net.start_flow({link}, 1000.0, [&] { completed = true; });
  s.at(5.0, [&] { net.cancel_flow(id); });
  s.run();
  EXPECT_FALSE(completed);
  EXPECT_EQ(net.active_flows(), 0u);
  // 500 B moved before the cancel; the other 500 were abandoned.
  EXPECT_NEAR(net.bytes_delivered(), 500.0, 1e-6);
  EXPECT_NEAR(net.bytes_cancelled(), 500.0, 1e-6);
  // Cancelling again (or an unknown flow) is a harmless no-op.
  net.cancel_flow(id);
  net.cancel_flow(12345);
  EXPECT_NEAR(net.bytes_cancelled(), 500.0, 1e-6);
}

TEST(FlowNetwork, CancelFreesCapacityForSurvivors) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  SimTime done = -1;
  net.start_flow({link}, 1000.0, [&] { done = s.now(); });
  const FlowId hog = net.start_flow({link}, 1e9, nullptr);
  s.at(10.0, [&] { net.cancel_flow(hog); });
  s.run();
  // Shared 50 B/s for 10 s (500 B), then alone at 100 B/s for the rest.
  EXPECT_NEAR(done, 15.0, 1e-9);
}

Task timed_transfer(FlowNetwork& net, std::vector<ResourceId> path,
                    Bytes bytes, SimTime timeout, bool* completed,
                    Simulator& s, SimTime* finished_at) {
  co_await net.transfer_within(std::move(path), bytes, timeout, completed);
  *finished_at = s.now();
}

TEST(FlowNetwork, TransferWithinCompletesAndCancelsTheTimer) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  bool completed = false;
  SimTime finished = -1;
  s.spawn(timed_transfer(net, {link}, 250.0, /*timeout=*/60.0, &completed,
                         s, &finished));
  s.run();
  EXPECT_TRUE(completed);
  EXPECT_NEAR(finished, 2.5, 1e-9);
  // The timeout timer must be cancelled on completion: the queue drains
  // at the completion time, not at t=60.
  EXPECT_NEAR(s.now(), 2.5, 1e-9);
}

TEST(FlowNetwork, TransferWithinTimesOutAndAbandonsTheFlow) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  bool completed = true;
  SimTime finished = -1;
  s.spawn(timed_transfer(net, {link}, 1000.0, /*timeout=*/5.0, &completed,
                         s, &finished));
  s.at(2.0, [&] { net.set_capacity(link, 0.0); });  // outage, never healed
  s.run();
  EXPECT_FALSE(completed);
  EXPECT_NEAR(finished, 5.0, 1e-9);
  EXPECT_EQ(net.active_flows(), 0u);  // the payload was cancelled
  EXPECT_NEAR(net.bytes_delivered(), 200.0, 1e-6);
  EXPECT_NEAR(net.bytes_cancelled(), 800.0, 1e-6);
}

TEST(FlowNetwork, ConservationHoldsWithCancellations) {
  Simulator s;
  FlowNetwork net(s);
  Rng rng(7);
  const auto a = net.add_resource("a", 90.0);
  const auto b = net.add_resource("b", 60.0);
  Bytes injected = 0.0;
  std::vector<FlowId> ids;
  for (int i = 0; i < 30; ++i) {
    const Bytes bytes = 50.0 + rng.uniform() * 3000.0;
    injected += bytes;
    std::vector<ResourceId> path =
        i % 2 == 0 ? std::vector<ResourceId>{a} : std::vector<ResourceId>{a, b};
    s.at(rng.uniform() * 10.0, [&net, &ids, path, bytes]() mutable {
      ids.push_back(net.start_flow(std::move(path), bytes, nullptr));
    });
  }
  // Cancel a scattering of flows mid-stream (whatever is active then).
  for (const SimTime when : {4.0, 9.0, 14.0}) {
    s.at(when, [&net, &ids] {
      for (std::size_t i = 0; i < ids.size(); i += 3) net.cancel_flow(ids[i]);
    });
  }
  s.run();
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_GT(net.bytes_cancelled(), 0.0);
  // Conservation with the cancelled term included.
  EXPECT_NEAR(net.bytes_delivered() + net.bytes_cancelled(), injected,
              1e-6 * injected);
}

// Property: total goodput through a single resource never exceeds its
// capacity, and all bytes are delivered, for random flow sets.
class FlowConservationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowConservationTest, AllBytesDeliveredAndMakespanBounded) {
  Rng rng(GetParam());
  Simulator s;
  FlowNetwork net(s);
  const double cap = 100.0;
  const auto link = net.add_resource("link", cap);
  std::vector<ResourceId> nics;
  for (int i = 0; i < 4; ++i) {
    nics.push_back(net.add_resource("nic" + std::to_string(i), 60.0));
  }
  double total_bytes = 0.0;
  int completed = 0;
  const int n = 12;
  for (int i = 0; i < n; ++i) {
    const double bytes = rng.uniform(10.0, 500.0);
    total_bytes += bytes;
    const auto nic = nics[rng.uniform_index(nics.size())];
    const double start = rng.uniform(0.0, 5.0);
    s.at(start, [&net, nic, link, bytes, &completed] {
      net.start_flow({nic, link}, bytes, [&completed] { ++completed; });
    });
  }
  s.run();
  EXPECT_EQ(completed, n);
  EXPECT_NEAR(net.bytes_delivered(), total_bytes, 1e-5);
  // The shared link is the binding constraint: makespan >= bytes/cap.
  EXPECT_GE(s.now() + 1e-9, total_bytes / cap);
  // And it cannot be worse than fully serialized through the slowest NIC.
  EXPECT_LE(s.now(), 5.0 + total_bytes / 60.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, FlowConservationTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Property: with k parallel servers, aggregate completion time of evenly
// spread flows improves ~k× over a single server.
class StripingSpeedupTest : public ::testing::TestWithParam<int> {};

TEST_P(StripingSpeedupTest, ParallelServersScaleThroughput) {
  const int k = GetParam();
  Simulator s;
  FlowNetwork net(s);
  std::vector<ResourceId> servers;
  for (int i = 0; i < k; ++i) {
    servers.push_back(net.add_resource("srv" + std::to_string(i), 100.0));
  }
  const double total = 12000.0;
  for (int i = 0; i < k; ++i) {
    net.start_flow({servers[static_cast<std::size_t>(i)]}, total / k, nullptr);
  }
  s.run();
  EXPECT_NEAR(s.now(), total / (100.0 * k), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(ServerCounts, StripingSpeedupTest,
                         ::testing::Values(1, 2, 3, 4, 6));

// --- Path-class solver vs. the per-flow reference -----------------------

// The per-flow progressive filling the simulator used before path
// classes, kept as the reference the class solver is checked against.
// Each flow is judged against residuals that earlier freezes of the same
// round have already reduced, so at the 1e-12 tolerance edge it can
// defer one flow of a path to a later round and split same-path flows.
std::vector<double> reference_rates(
    const std::vector<double>& caps,
    const std::vector<std::vector<ResourceId>>& paths) {
  const std::size_t nf = paths.size();
  std::vector<double> rate(nf, -1.0);
  std::vector<double> residual(caps);
  std::vector<std::size_t> unfixed(caps.size(), 0);
  for (const auto& path : paths) {
    for (ResourceId r : path) ++unfixed[r];
  }
  std::size_t fixed = 0;
  while (fixed < nf) {
    double best = std::numeric_limits<double>::infinity();
    bool found = false;
    for (std::size_t r = 0; r < caps.size(); ++r) {
      if (unfixed[r] == 0) continue;
      const double share = residual[r] / static_cast<double>(unfixed[r]);
      if (share < best) {
        best = share;
        found = true;
      }
    }
    if (!found) break;
    best = std::max(best, 0.0);
    bool froze_any = false;
    for (std::size_t i = 0; i < nf; ++i) {
      if (rate[i] >= 0.0) continue;
      bool at_bottleneck = false;
      for (ResourceId r : paths[i]) {
        if (unfixed[r] == 0) continue;
        if (residual[r] / static_cast<double>(unfixed[r]) <=
            best * (1.0 + 1e-12)) {
          at_bottleneck = true;
          break;
        }
      }
      if (!at_bottleneck) continue;
      froze_any = true;
      ++fixed;
      rate[i] = best;
      for (ResourceId r : paths[i]) {
        residual[r] = std::max(0.0, residual[r] - best);
        --unfixed[r];
      }
    }
    if (!froze_any) break;
  }
  for (double& r : rate) r = std::max(r, 0.0);
  return rate;
}

/// Admits every flow at t=0 and returns the solved per-flow rates.
std::vector<double> solved_rates(
    const std::vector<double>& caps,
    const std::vector<std::vector<ResourceId>>& paths) {
  Simulator s;
  FlowNetwork net(s);
  for (std::size_t r = 0; r < caps.size(); ++r) {
    net.add_resource("r" + std::to_string(r), caps[r]);
  }
  std::vector<FlowId> ids;
  for (const auto& path : paths) ids.push_back(net.start_flow(path, 1e15, nullptr));
  std::vector<double> rates;
  for (FlowId id : ids) rates.push_back(net.flow_rate(id));
  return rates;
}

class FlowSolverDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowSolverDifferential, MatchesReferenceWithOneRatePerPath) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t nr = 2 + rng.uniform_index(9);
    std::vector<double> caps;
    for (std::size_t r = 0; r < nr; ++r) {
      caps.push_back(std::pow(10.0, rng.uniform(5.0, 10.0)));
    }
    // A few distinct paths, each shared by many flows.
    std::vector<std::vector<ResourceId>> distinct;
    const std::size_t np = 1 + rng.uniform_index(8);
    for (std::size_t p = 0; p < np; ++p) {
      std::vector<ResourceId> path;
      const std::size_t hops = 1 + rng.uniform_index(3);
      for (std::size_t h = 0; h < hops; ++h) {
        const ResourceId r = rng.uniform_index(nr);
        if (std::find(path.begin(), path.end(), r) == path.end()) {
          path.push_back(r);
        }
      }
      distinct.push_back(path);
    }
    std::vector<std::vector<ResourceId>> paths;
    std::vector<std::size_t> path_of;
    const std::size_t nf = 1 + rng.uniform_index(300);
    for (std::size_t f = 0; f < nf; ++f) {
      path_of.push_back(rng.uniform_index(np));
      paths.push_back(distinct[path_of.back()]);
    }

    const auto got = solved_rates(caps, paths);
    const auto want = reference_rates(caps, paths);
    std::vector<double> load(nr, 0.0), top(nr, 0.0);
    for (std::size_t f = 0; f < nf; ++f) {
      EXPECT_NEAR(got[f], want[f], 1e-9 * want[f]) << "flow " << f;
      for (ResourceId r : paths[f]) {
        load[r] += got[f];
        top[r] = std::max(top[r], got[f]);
      }
    }
    for (std::size_t r = 0; r < nr; ++r) {
      EXPECT_LE(load[r], caps[r] * (1.0 + 1e-9)) << "resource " << r;
    }
    for (std::size_t f = 0; f < nf; ++f) {
      // Max-min optimality: every flow crosses a saturated resource on
      // which no other flow gets more.
      bool bottlenecked = false;
      for (ResourceId r : paths[f]) {
        if (load[r] >= caps[r] * (1.0 - 1e-9) &&
            got[f] >= top[r] * (1.0 - 1e-9)) {
          bottlenecked = true;
        }
      }
      EXPECT_TRUE(bottlenecked) << "flow " << f;
      for (std::size_t g = 0; g < f; ++g) {
        if (path_of[g] == path_of[f]) {
          EXPECT_EQ(got[g], got[f]) << "flows " << g << " and " << f;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, FlowSolverDifferential,
                         ::testing::Range<std::uint64_t>(1, 9));

// Regression: 218 flows on 2-hop paths through one shared resource whose
// per-flow share lands on the solver's 1e-12 tolerance edge.  Per-flow
// filling against mid-round residuals deferred the last flow in flow
// order to a second round and gave it a different rate from the other
// flows on its path; the class solver gives every flow one rate.
class FlowSolverToleranceEdge : public ::testing::TestWithParam<int> {};

TEST_P(FlowSolverToleranceEdge, SamePathFlowsGetOneRate) {
  const int classes = GetParam();
  const double shared_cap = 120987413.22880004;
  std::vector<double> caps{shared_cap};
  for (int c = 0; c < classes; ++c) caps.push_back(1.25e9);
  std::vector<std::vector<ResourceId>> paths;
  for (int f = 0; f < 218; ++f) {
    paths.push_back({static_cast<ResourceId>(1 + f % classes), 0});
  }
  const auto got = solved_rates(caps, paths);
  double load = 0.0;
  for (std::size_t f = 0; f < got.size(); ++f) {
    EXPECT_EQ(got[f], got[0]) << "flow " << f;
    load += got[f];
  }
  EXPECT_LE(load, shared_cap * (1.0 + 1e-12));
  EXPECT_NEAR(got[0], shared_cap / 218.0, 1e-9 * shared_cap / 218.0);
}

INSTANTIATE_TEST_SUITE_P(ClassCounts, FlowSolverToleranceEdge,
                         ::testing::Values(4, 16, 31));

// --- Virtual-time bookkeeping vs. per-flow bookkeeping -----------------

// The per-flow bookkeeping the simulator used before per-class virtual
// clocks: every flow keeps its own remaining bytes, and every event
// advances, scans and sweeps all flows.  Rates come from
// reference_rates; completion rules and time quanta match FlowNetwork.
class ReferenceNetwork {
 public:
  explicit ReferenceNetwork(Simulator& sim) : sim_(sim) {}

  void add_resource(const std::string&, double capacity) {
    caps_.push_back(capacity);
  }

  void set_capacity(ResourceId r, double capacity) {
    advance();
    caps_[r] = capacity;
    resolve();
  }

  FlowId start_flow(std::vector<ResourceId> path, Bytes bytes,
                    std::function<void()> on_complete) {
    const FlowId id = next_id_++;
    injected_ += bytes;
    if (bytes <= kEpsilonBytes) {
      delivered_ += bytes;
      if (on_complete) sim_.at(sim_.now(), std::move(on_complete));
      return id;
    }
    advance();
    flows_.push_back(Flow{id, std::move(path), bytes, 0.0,
                          std::move(on_complete)});
    resolve();
    return id;
  }

  void cancel_flow(FlowId id) {
    const auto it = std::find_if(flows_.begin(), flows_.end(),
                                 [&](const Flow& f) { return f.id == id; });
    if (it == flows_.end()) return;
    advance();
    cancelled_ += it->remaining;
    flows_.erase(it);
    resolve();
  }

  std::size_t active_flows() const { return flows_.size(); }
  Bytes bytes_injected() const { return injected_; }
  Bytes bytes_delivered() const { return delivered_; }
  Bytes bytes_cancelled() const { return cancelled_; }

 private:
  static constexpr Bytes kEpsilonBytes = 1e-3;
  static constexpr SimTime kTimeQuantum = 1e-9;

  struct Flow {
    FlowId id;
    std::vector<ResourceId> path;
    Bytes remaining;
    double rate;
    std::function<void()> on_complete;
  };

  static bool done(const Flow& f) {
    return f.remaining <= kEpsilonBytes ||
           (f.rate > 0.0 && f.remaining <= f.rate * kTimeQuantum);
  }

  void advance() {
    const SimTime dt = sim_.now() - last_;
    if (dt > 0.0) {
      for (Flow& f : flows_) {
        const Bytes moved = std::min(f.rate * dt, f.remaining);
        f.remaining -= moved;
        delivered_ += moved;
      }
    }
    last_ = sim_.now();
  }

  void resolve() {
    std::vector<std::vector<ResourceId>> paths;
    for (const Flow& f : flows_) paths.push_back(f.path);
    const auto rates = reference_rates(caps_, paths);
    for (std::size_t i = 0; i < flows_.size(); ++i) flows_[i].rate = rates[i];
    if (pending_ != 0) sim_.cancel(pending_);
    pending_ = 0;
    SimTime eta = std::numeric_limits<SimTime>::infinity();
    for (const Flow& f : flows_) {
      if (f.rate > 0.0) eta = std::min(eta, f.remaining / f.rate);
    }
    if (!std::isfinite(eta)) return;
    const SimTime now = sim_.now();
    SimTime target = now + std::max(eta, kTimeQuantum);
    if (target <= now) {
      target = std::nextafter(now, std::numeric_limits<SimTime>::infinity());
    }
    pending_ = sim_.at(target, [this] {
      pending_ = 0;
      sweep();
    });
  }

  void sweep() {
    advance();
    std::vector<std::function<void()>> fired;
    std::vector<Flow> kept;
    for (Flow& f : flows_) {
      if (done(f)) {
        delivered_ += f.remaining;
        if (f.on_complete) fired.push_back(std::move(f.on_complete));
      } else {
        kept.push_back(std::move(f));
      }
    }
    flows_ = std::move(kept);
    resolve();
    for (auto& cb : fired) sim_.at(sim_.now(), std::move(cb));
  }

  Simulator& sim_;
  std::vector<double> caps_;
  std::vector<Flow> flows_;  // id order
  EventId pending_ = 0;
  SimTime last_ = 0.0;
  FlowId next_id_ = 1;
  Bytes injected_ = 0.0;
  Bytes delivered_ = 0.0;
  Bytes cancelled_ = 0.0;
};

/// One scheduled operation of a random flow schedule.
struct ScheduleOp {
  enum Kind { kStart, kCancel, kCapacity };
  ScheduleOp(Kind k, SimTime t) : kind(k), at(t) {}
  Kind kind;
  SimTime at;
  std::vector<ResourceId> path;  // kStart
  Bytes bytes = 0.0;             // kStart
  FlowId target = kInvalidFlow;  // kCancel
  ResourceId resource = 0;       // kCapacity
  double capacity = 0.0;         // kCapacity
};

/// Completion time and callback order of every flow that completed.
struct ScheduleOutcome {
  std::map<FlowId, SimTime> finished;
  std::vector<std::pair<SimTime, FlowId>> order;
  Bytes injected = 0.0, delivered = 0.0, cancelled = 0.0;
  std::uint64_t events = 0;
};

/// Runs `ops` against a fresh network of type Net with `caps`.  Starts
/// issue ids 1, 2, ... in schedule order on both networks, so a cancel
/// names the same flow in each.
template <typename Net>
ScheduleOutcome run_schedule(const std::vector<double>& caps,
                             const std::vector<ScheduleOp>& ops) {
  ScheduleOutcome out;
  {
    Simulator s;
    Net net(s);
    for (double cap : caps) net.add_resource("r", cap);
    FlowId next = 1;
    for (const ScheduleOp& op : ops) {
      switch (op.kind) {
        case ScheduleOp::kStart: {
          const FlowId id = next++;
          s.at(op.at, [&net, &s, &out, &op, id] {
            const FlowId got =
                net.start_flow(op.path, op.bytes, [&s, &out, id] {
                  out.finished[id] = s.now();
                  out.order.emplace_back(s.now(), id);
                });
            ASSERT_EQ(got, id);
          });
          break;
        }
        case ScheduleOp::kCancel:
          s.at(op.at, [&net, &op] { net.cancel_flow(op.target); });
          break;
        case ScheduleOp::kCapacity:
          s.at(op.at, [&net, &op] {
            net.set_capacity(op.resource, op.capacity);
          });
          break;
      }
    }
    s.run();
    out.events = s.events_executed();
    out.injected = net.bytes_injected();
    out.delivered = net.bytes_delivered();
    out.cancelled = net.bytes_cancelled();
    EXPECT_EQ(net.active_flows(), 0u);
  }
  return out;
}

/// A random schedule over `caps.size()` resources and a few repeated
/// paths: starts (some zero-byte, some bursts of equal flows on one
/// path, which finish at one instant), cancels of earlier ids (finished
/// or not), and capacity changes including outages.  Every capacity is
/// restored at the end so all flows finish.  Gaps between bursts let
/// classes empty and refill.
std::vector<ScheduleOp> random_schedule(Rng& rng, std::vector<double>& caps) {
  const std::size_t nr = 2 + rng.uniform_index(5);
  caps.clear();
  for (std::size_t r = 0; r < nr; ++r) {
    caps.push_back(std::pow(10.0, rng.uniform(2.0, 4.0)));
  }
  std::vector<std::vector<ResourceId>> paths;
  const std::size_t np = 1 + rng.uniform_index(5);
  for (std::size_t p = 0; p < np; ++p) {
    std::vector<ResourceId> path;
    const std::size_t hops = 1 + rng.uniform_index(3);
    for (std::size_t h = 0; h < hops; ++h) {
      const ResourceId r = rng.uniform_index(nr);
      if (std::find(path.begin(), path.end(), r) == path.end()) {
        path.push_back(r);
      }
    }
    paths.push_back(path);
  }
  std::vector<ScheduleOp> ops;
  FlowId issued = 0;
  SimTime t = 0.0;
  for (int i = 0; i < 150; ++i) {
    // Mostly dense arrivals, now and then a quiet gap.
    t += rng.uniform() < 0.1 ? rng.uniform(20.0, 60.0) : rng.uniform(0.0, 2.0);
    const double pick = rng.uniform();
    if (pick < 0.7) {
      const auto& path = paths[rng.uniform_index(np)];
      const Bytes bytes =
          rng.uniform() < 0.1 ? 0.0 : std::pow(10.0, rng.uniform(1.0, 4.0));
      const int copies = rng.uniform() < 0.15 ? 3 : 1;
      for (int c = 0; c < copies; ++c) {
        ScheduleOp op(ScheduleOp::kStart, t);
        op.path = path;
        op.bytes = bytes;
        ops.push_back(op);
        ++issued;
      }
    } else if (pick < 0.85) {
      if (issued == 0) continue;
      ScheduleOp op(ScheduleOp::kCancel, t);
      op.target = 1 + rng.uniform_index(issued);
      ops.push_back(op);
    } else {
      ScheduleOp op(ScheduleOp::kCapacity, t);
      op.resource = rng.uniform_index(nr);
      op.capacity =
          rng.uniform() < 0.2 ? 0.0 : std::pow(10.0, rng.uniform(2.0, 4.0));
      ops.push_back(op);
    }
  }
  for (std::size_t r = 0; r < nr; ++r) {
    ScheduleOp op(ScheduleOp::kCapacity, t + 1.0);
    op.resource = r;
    op.capacity = caps[r];
    ops.push_back(op);
  }
  return ops;
}

class FlowBookkeepingDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowBookkeepingDifferential, CompletionTimesMatchPerFlowReference) {
  Rng rng(GetParam());
  std::size_t same_instant = 0;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> caps;
    const auto ops = random_schedule(rng, caps);
    const auto got = run_schedule<FlowNetwork>(caps, ops);
    const auto want = run_schedule<ReferenceNetwork>(caps, ops);

    ASSERT_EQ(got.finished.size(), want.finished.size()) << "trial " << trial;
    for (const auto& [id, at] : want.finished) {
      const auto it = got.finished.find(id);
      ASSERT_NE(it, got.finished.end()) << "flow " << id << " never finished";
      EXPECT_NEAR(it->second, at, 1e-9 * std::max(at, 1.0))
          << "trial " << trial << " flow " << id;
    }
    // Callbacks that fire at one instant fire in flow-id order.
    for (std::size_t i = 1; i < got.order.size(); ++i) {
      if (got.order[i].first != got.order[i - 1].first) continue;
      ++same_instant;
      EXPECT_LT(got.order[i - 1].second, got.order[i].second)
          << "trial " << trial;
    }
    EXPECT_DOUBLE_EQ(got.injected, want.injected);
    EXPECT_NEAR(got.delivered + got.cancelled, got.injected,
                1e-9 * got.injected);
    EXPECT_NEAR(got.cancelled, want.cancelled,
                1e-6 * std::max(want.cancelled, 1.0));
  }
  EXPECT_GT(same_instant, 0u) << "schedules never finished flows together";
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, FlowBookkeepingDifferential,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(FlowNetwork, SameInstantCallbacksFireInFlowIdOrderAcrossClasses) {
  Simulator s;
  FlowNetwork net(s);
  const auto a = net.add_resource("a", 100.0);
  const auto b = net.add_resource("b", 100.0);
  const auto c = net.add_resource("c", 100.0);
  std::vector<FlowId> order;
  auto record = [&order](FlowId id) { return [&order, id] { order.push_back(id); }; };
  net.start_flow({a}, 10.0, record(1));    // a's class empties at t=0.1
  net.start_flow({b}, 1000.0, record(2));  // t=10
  net.start_flow({c}, 1000.0, record(3));  // t=10
  // Class a refills after it emptied, so the classes no longer sit in
  // flow-id order inside the network.
  s.at(1.0, [&] { net.start_flow({a}, 100.0, record(4)); });
  s.run();
  EXPECT_EQ(order, (std::vector<FlowId>{1, 4, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 10.0);
}

// A class that never empties while it carries >= 1e15 B: its virtual
// clock runs into the quadrillions, and 64 KiB flows joining it late
// must still finish when per-flow bookkeeping says they do, without a
// zero-progress spin.  Once the class empties its clock restarts at 0,
// so a tiny flow after the refill matches the reference exactly.
TEST(FlowNetwork, VirtualClockKeepsSmallLateFlowsPrecise) {
  const std::vector<double> caps{1e12};
  std::vector<ScheduleOp> ops;
  ScheduleOp big(ScheduleOp::kStart, 0.0);
  big.path = {0};
  big.bytes = 4e15;  // alone it would run 4000 s
  ops.push_back(big);
  std::vector<std::pair<FlowId, SimTime>> small;  // id, start
  for (int k = 0; k < 16; ++k) {
    ScheduleOp op(ScheduleOp::kStart, 2000.0 + 1e-3 * k);
    op.path = {0};
    op.bytes = 65536.0;
    ops.push_back(op);
    small.emplace_back(2 + k, op.at);
  }
  ScheduleOp drop(ScheduleOp::kCancel, 2100.0);
  drop.target = 1;  // the class empties
  ops.push_back(drop);
  ScheduleOp slow(ScheduleOp::kCapacity, 2100.0);
  slow.capacity = 1e6;
  ops.push_back(slow);
  ScheduleOp tiny(ScheduleOp::kStart, 2200.0);
  tiny.path = {0};
  tiny.bytes = 1000.3;  // not a multiple of ulp(2e15) = 0.25
  ops.push_back(tiny);
  const FlowId tiny_id = 18;

  const auto got = run_schedule<FlowNetwork>(caps, ops);
  const auto want = run_schedule<ReferenceNetwork>(caps, ops);
  for (const auto& [id, start] : small) {
    ASSERT_EQ(got.finished.count(id), 1u) << "flow " << id;
    const SimTime at = want.finished.at(id);
    EXPECT_NEAR(got.finished.at(id), at, 1e-9 * at) << "flow " << id;
    // ~131 ns at 2000 s: the duration itself must agree, not just the
    // absolute time.  ulp(served) = 0.25 B bounds the error to ~1e-5.
    EXPECT_NEAR(got.finished.at(id) - start, at - start, 1e-4 * (at - start))
        << "flow " << id;
  }
  EXPECT_LE(got.events, 64u);
  EXPECT_EQ(got.finished.at(tiny_id), want.finished.at(tiny_id));
  EXPECT_NEAR(got.finished.at(tiny_id), 2200.0010003, 1e-9);
  EXPECT_NEAR(got.cancelled, want.cancelled, 1.0);
}

// sim.flow.* roll-up: two classes, one wide and one narrow resource.
// Start A {wide}: 1 round visiting 1 class.  Start B {wide, narrow}:
// round 1 visits both and freezes B at 10 B/s, round 2 visits only A.
// A finishes at t=1: 1 round, 1 visit for B.  B's finish leaves nothing
// to solve.
TEST(FlowNetwork, SolverWorkCountersRollIntoRegistry) {
  auto& registry = obs::MetricsRegistry::global();
  auto value = [&](const char* name) { return registry.counter(name).value(); };
  const double solves = value("sim.flow.solves");
  const double rounds = value("sim.flow.rounds");
  const double visits = value("sim.flow.class_visits");
  {
    Simulator s;
    FlowNetwork net(s);
    const auto wide = net.add_resource("wide", 100.0);
    const auto narrow = net.add_resource("narrow", 10.0);
    net.start_flow({wide}, 90.0, nullptr);
    net.start_flow({wide, narrow}, 100.0, nullptr);
    s.run();
    EXPECT_DOUBLE_EQ(s.now(), 10.0);
    EXPECT_EQ(value("sim.flow.solves"), solves);  // rolled up once, at exit
  }
  EXPECT_EQ(value("sim.flow.solves") - solves, 3.0);
  EXPECT_EQ(value("sim.flow.rounds") - rounds, 4.0);
  EXPECT_EQ(value("sim.flow.class_visits") - visits, 5.0);
}

}  // namespace
}  // namespace acic::sim
