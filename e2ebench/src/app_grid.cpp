// app_grid: the nine evaluation apps x 56 candidate configurations, run
// clean (the 504 golden-key grid, three times) and twice under the registered
// spot-preempt chaos preset with checkpointing on.  Each pass uses a
// fresh exec::Executor with no store, so it bypasses core, ml and the
// run store and puts simcore under MPI compute/communication phases,
// preemption (set_capacity / cancel_flow), checkpoint writes and
// restarts.
#include <cmath>
#include <cstdio>

#include "acic/apps/apps.hpp"
#include "acic/plugin/substrates.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace acic;

namespace {

constexpr double kCheckpointInterval = 120.0;   // sim seconds
constexpr double kCheckpointBytes = 4.0 * GiB;
constexpr int kCleanPasses = 3;

std::vector<exec::RunRequest> grid_requests(const Context& ctx, bool chaos) {
  const auto candidates = cloud::IoConfig::enumerate_candidates();
  std::vector<exec::RunRequest> requests;
  for (const auto& app : apps::evaluation_suite()) {
    for (const auto& cfg : candidates) {
      io::RunOptions opts;
      opts.seed = ctx.seed ^ label_hash(app.app + std::to_string(app.scale) +
                                        cfg.label());
      if (chaos) {
        opts.fault_model = plugin::fault_models().lookup("spot-preempt").model;
        opts.checkpoint.enabled = true;
        opts.checkpoint.interval = kCheckpointInterval;
        opts.checkpoint.bytes = kCheckpointBytes;
      }
      requests.push_back(exec::RunRequest{app.workload, cfg, opts});
    }
  }
  return requests;
}

/// One pass: the CPU seconds of its set-up (building the grid's requests
/// and a fresh, store-less executor) and the wall seconds of its runs.
struct Pass {
  double setup_s = 0.0;
  double run_s = 0.0;
};

Pass run_pass(const Context& ctx, TimedRuns& timed, const char* name,
              bool chaos, std::vector<io::RunResult>& out) {
  Pass pass;
  Span setup(*ctx.tracer, "grid.setup");
  const double setup_cpu_ms = thread_cpu_ms();
  const auto requests = grid_requests(ctx, chaos);
  exec::Executor engine(timed.options(ctx.threads));
  pass.setup_s = (thread_cpu_ms() - setup_cpu_ms) / 1e3;
  setup.end();
  Span span(*ctx.tracer, name);
  out = engine.run_batch(requests, ctx.threads);
  pass.run_s = span.end();
  return pass;
}

std::array<std::size_t, 3> outcome_counts(
    const std::vector<io::RunResult>& runs) {
  std::array<std::size_t, 3> counts{};
  for (const auto& r : runs) counts[static_cast<std::size_t>(r.outcome)]++;
  return counts;
}

}  // namespace

void run_app_grid(const Context& ctx, Result& result, Values& values) {
  TimedRuns timed(*ctx.tracer, 0);
  const CounterDelta counters;
  // The clean grid is short (about 3 s on 4 cores) and its wall time
  // hinges on when its few longest runs start, so it runs three times
  // and reports the median.
  std::vector<double> setups, clean_walls;
  std::size_t clean_runs = 0;
  for (int pass = 0; pass < kCleanPasses; ++pass) {
    std::vector<io::RunResult> clean;
    const auto p = run_pass(ctx, timed, "grid.clean", false, clean);
    setups.push_back(p.setup_s);
    clean_walls.push_back(p.run_s);
    // Every cell an ok run with finite, positive time and cost.
    std::size_t clean_ok = 0;
    for (const auto& r : clean) {
      clean_ok += r.outcome == io::RunOutcome::kOk &&
                  std::isfinite(r.total_time) && r.total_time > 0.0 &&
                  std::isfinite(r.cost) && r.cost > 0.0;
    }
    result.check(clean.size() == 504 && clean_ok == 504,
                 "clean grid: " + std::to_string(clean_ok) + " of " +
                     std::to_string(clean.size()) +
                     " cells are clean ok runs");
    result.fail(clean.size() - clean_ok);
    clean_runs += clean.size();
  }
  const std::size_t clean_timed = timed.cpu_ms().size();
  std::vector<io::RunResult> chaos_a, chaos_b;
  const auto pass_a = run_pass(ctx, timed, "grid.chaos", true, chaos_a);
  const auto pass_b = run_pass(ctx, timed, "grid.chaos_repeat", true, chaos_b);
  setups.push_back(pass_a.setup_s);
  setups.push_back(pass_b.setup_s);
  const double chaos_s = pass_a.run_s + pass_b.run_s;

  // Chaos half: graded outcomes are outputs; a repeat with the same seed
  // must reproduce them exactly.
  const auto counts_a = outcome_counts(chaos_a);
  const auto counts_b = outcome_counts(chaos_b);
  result.check(counts_a == counts_b,
               "chaos grid outcome counts differ on a same-seed repeat");
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < chaos_a.size(); ++i) {
    mismatched += chaos_a[i].total_time != chaos_b[i].total_time ||
                  chaos_a[i].outcome != chaos_b[i].outcome;
  }
  result.check(mismatched == 0, "chaos grid: " + std::to_string(mismatched) +
                                    " cells differ on a same-seed repeat");
  result.attempt(clean_runs + chaos_a.size() + chaos_b.size());

  const auto ms = timed.host_ms();
  const auto cpu_ms = timed.cpu_ms();
  const auto tail = tail_percentile(ms);
  const auto cpu_tail = tail_percentile(cpu_ms);
  std::fprintf(stderr,
               "app_grid: grid_runs_per_s=%.2f 1/s (clean, 504 runs in "
               "%.3f s, median of %d) chaos_runs_per_s=%.2f 1/s chaos "
               "outcomes ok=%zu degraded=%zu failed=%zu; run_ms host "
               "p50=%.3f p90=%.3f p%g=%.3f, cpu p50=%.3f p90=%.3f p%g=%.3f "
               "(n=%zu)\n",
               504 / median(clean_walls), median(clean_walls), kCleanPasses,
               (chaos_a.size() + chaos_b.size()) / chaos_s, counts_a[0],
               counts_a[1], counts_a[2], median(ms), quantile(ms, kRunTailQ),
               100 * tail.q, tail.value, median(cpu_ms),
               quantile(cpu_ms, kRunTailQ), 100 * cpu_tail.q, cpu_tail.value,
               tail.n);

  values["setup_s"] = median(setups);
  values["result_s"] = median(clean_walls);
  // Chaos runs per CPU second of simulation, as in cold_start: their
  // runs per wall second spread 0.29 of the median over ten runs of the
  // same code, where CPU ms per run spread 0.16.  result_s gates the
  // wall time.
  double chaos_cpu_s = 0.0;
  for (std::size_t i = clean_timed; i < cpu_ms.size(); ++i) {
    chaos_cpu_s += cpu_ms[i] / 1e3;
  }
  values["rate_per_s"] =
      chaos_cpu_s > 0.0 ? (cpu_ms.size() - clean_timed) / chaos_cpu_s : 0.0;
  values["p50_ms"] = median(cpu_ms);
  values["tail_ms"] = quantile(cpu_ms, kRunTailQ);
  values["simcore.events"] = counters.delta("sim.events");
  values["exec.runs_executed"] = counters.delta("exec.runs_executed");
  values["exec.cache_hits"] = counters.delta("exec.cache_hits");
  values["exec.store_hits"] = counters.delta("exec.store_hits");
  record_io_layer(timed, counters, values);
  values["peak_rss_mb"] = peak_rss_mb();
}

}  // namespace e2e
