// Self-tests of the benchmark's own accounting: the percentile rule,
// the open-loop due-time / lateness bookkeeping, the span recorder and
// the result record.  Build and run:
//
//   cmake -S e2ebench -B .bench_build/e2ebench -DCMAKE_BUILD_TYPE=Release
//   cmake --build .bench_build/e2ebench -j4 --target e2ebench_selftest
//   ctest --test-dir .bench_build/e2ebench --output-on-failure
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <numeric>
#include <thread>

#include "loadgen.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileRule, PicksHighestPercentileWithTenBeyond) {
  struct Case {
    std::size_t n;
    double q;
  };
  for (const auto& c : {Case{20, 0.5}, Case{39, 0.5}, Case{40, 0.75},
                        Case{100, 0.9}, Case{199, 0.9}, Case{200, 0.95},
                        Case{1000, 0.99}, Case{9999, 0.99},
                        Case{10000, 0.999}}) {
    const auto t = tail_percentile(one_to(c.n));
    EXPECT_DOUBLE_EQ(t.q, c.q) << "n=" << c.n;
    EXPECT_GE(t.beyond, kMinBeyond) << "n=" << c.n;
    EXPECT_EQ(t.n, c.n);
  }
}

TEST(PercentileRule, NearestRankValuesAndBeyondCounts) {
  const auto t = tail_percentile(one_to(100));
  EXPECT_DOUBLE_EQ(t.value, 90.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(beyond_count(1000, 0.99), 10u);
  EXPECT_EQ(beyond_count(0, 0.5), 0u);
  EXPECT_DOUBLE_EQ(quantile({5, 1, 4, 2, 3}, 0.8), 4.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(PercentileRule, FallsBackToMedianBelowTwentySamples) {
  const auto t = tail_percentile(one_to(12));
  EXPECT_DOUBLE_EQ(t.q, 0.5);
  EXPECT_DOUBLE_EQ(t.value, 6.0);
  EXPECT_LT(t.beyond, kMinBeyond);
}

TEST(PercentileRule, OrderOfSamplesDoesNotMatter) {
  auto v = one_to(1000);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(tail_percentile(v).value, 990.0);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Geomean, OfRatios) {
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(PoissonArrivals, SeededAndWithinWindow) {
  const auto a = poisson_arrivals(2000.0, 2.0, 7);
  EXPECT_EQ(a, poisson_arrivals(2000.0, 2.0, 7));
  EXPECT_NE(a, poisson_arrivals(2000.0, 2.0, 8));
  // 4000 expected arrivals, sd ~63: 5 sd either way.
  EXPECT_NEAR(static_cast<double>(a.size()), 4000.0, 320.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 2.0);
  EXPECT_TRUE(poisson_arrivals(0.0, 2.0, 7).empty());
}

TEST(OpenLoopLedger, LatencyRunsFromDueTimeAcrossAStall) {
  // Three requests due 1 ms apart; the generator stalls until t=10 ms,
  // then sends all three and each is answered 1 ms after sending.
  OpenLoopLedger ledger({0.000, 0.001, 0.002});
  for (std::size_t i = 0; i < 3; ++i) {
    ledger.noticed(i, 0.010);
    ledger.sent(i, 0.010);
    ledger.done(i, 0.011, true);
  }
  const auto latency = ledger.latency_ms();
  ASSERT_EQ(latency.size(), 3u);
  EXPECT_NEAR(latency[0], 11.0, 1e-9);
  EXPECT_NEAR(latency[1], 10.0, 1e-9);
  EXPECT_NEAR(latency[2], 9.0, 1e-9);
  // The stall shows as generator lateness, not as round-trip time.
  EXPECT_NEAR(ledger.max_lateness_ms(), 10.0, 1e-9);
  EXPECT_NEAR(ledger.round_trip_ms(1), 1.0, 1e-9);
  EXPECT_EQ(ledger.failed(), 0u);
}

TEST(OpenLoopLedger, PoolWaitCountsInLatencyButNotLateness) {
  // Noticed on time, but no idle connection until 5 ms later.
  OpenLoopLedger ledger({0.000});
  ledger.noticed(0, 0.000);
  ledger.sent(0, 0.005);
  ledger.done(0, 0.006, true);
  EXPECT_NEAR(ledger.latency_ms().at(0), 6.0, 1e-9);
  EXPECT_NEAR(ledger.max_lateness_ms(), 0.0, 1e-9);
  EXPECT_NEAR(ledger.round_trip_ms(0), 1.0, 1e-9);
}

TEST(OpenLoopLedger, UnansweredAndMalformedCountAsFailed) {
  OpenLoopLedger ledger({0.0, 0.1, 0.2});
  ledger.noticed(0, 0.0);
  ledger.sent(0, 0.0);
  ledger.done(0, 0.001, true);
  ledger.noticed(1, 0.1);
  ledger.sent(1, 0.1);
  ledger.done(1, 0.101, false);  // answered, but not a well-formed ok
  // request 2 never answered
  EXPECT_EQ(ledger.answered_ok(), 1u);
  EXPECT_EQ(ledger.failed(), 2u);
  EXPECT_EQ(ledger.latency_ms().size(), 1u);
  EXPECT_LT(ledger.round_trip_ms(1), 0.0);
}

TEST(Tracer, DisabledRecordsNothingButStillTimes) {
  Tracer off(false);
  {
    Span span(off, "x");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_GE(span.end(), 0.002);
    EXPECT_EQ(span.id(), 0u);
  }
  EXPECT_EQ(off.size(), 0u);
}

TEST(Tracer, RecordsNameAndParentIntoTheChromeTrace) {
  Tracer on(true);
  std::uint64_t parent_id = 0;
  {
    Span parent(on, "outer");
    parent_id = parent.id();
    Span child(on, "inner", parent.id());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(child.end(), 0.001);
  }
  EXPECT_EQ(on.size(), 2u);
  ASSERT_NE(parent_id, 0u);
  const std::string path = "e2ebench_selftest_trace.json";
  on.write_chrome_trace(path);
  std::ifstream in(path);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\": " + std::to_string(parent_id) + "}"),
            std::string::npos);
}

TEST(Result, JsonRecordAndChecks) {
  Result r;
  r.attempt(3);
  r.fail();
  r.add("latency_ms", 1.5, "ms");
  r.add("broken", std::nan(""), "ms");
  EXPECT_TRUE(r.correct());
  r.check(false, "boom");
  EXPECT_FALSE(r.correct());
  EXPECT_EQ(r.to_json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.5, \"unit\": "
            "\"ms\"}, \"broken\": {\"value\": null, \"unit\": \"ms\"}}}");
}

}  // namespace
}  // namespace e2e
