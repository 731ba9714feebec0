// The workloads.  Each fills `values` with every end-to-end slot
// (peak_rss_mb included) and whichever per-layer metrics it measures,
// and records its operation tally and output checks in `result`.
#pragma once

#include <string>

#include "acic/core/ranking.hpp"
#include "acic/core/training.hpp"
#include "common.hpp"
#include "report.hpp"

namespace e2e {

/// Cold pipeline (PB screen, sweep, train, recommend, verify picks) in a
/// fresh run store, then warm restarts of this binary against it, then
/// serving the trained engine (run_serving).
void run_cold_start(const Context& ctx, Result& result, Values& values);

/// One warm restart (child process): rebuild the recommendation from the
/// filled store at `store_root`; prints one `warm-child …` line.
int warm_child_main(const Context& ctx, const std::string& store_root);

/// One set-up child process: arm fresh stores at `store_root`, as the
/// cold run does before its pipeline; prints `setup-child armed` once
/// both are armed.
int setup_child_main(const Context& ctx, const std::string& store_root);

/// 9 apps x 56 candidates, clean and under the spot-preempt preset.
void run_app_grid(const Context& ctx, Result& result, Values& values);

/// cold_start's serving phase: open-loop load over acic::net against a
/// QueryService trained on `db`; fills the serve/service/net/gen
/// per-layer metrics.
void run_serving(const Context& ctx, const acic::core::TrainingDatabase& db,
                 const acic::core::PbRankingResult& ranking, Result& result,
                 Values& values);

}  // namespace e2e
