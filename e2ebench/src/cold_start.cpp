// cold_start: what a user, or a restarting service, waits for.
//
// A fresh run store, then the whole pipeline once: PB screening (always
// through Executor::global()), the IOR training sweep (top_dims=12)
// through a timed executor, CART training for both objectives, and a
// top-1 recommendation per objective for the nine evaluation apps.  The
// perf picks and the baseline are then simulated (pick_speedup).
// Afterwards fresh child processes of this binary restart against the
// filled store and must rebuild the same recommendation with zero
// simulations, and the trained engine serves open-loop load (serve.cpp).
//
// Set-up (setup_s) is what precedes the cold pipeline: a fresh process
// of this binary up to both run stores armed.  It is measured in fresh
// child processes that exit once armed, as their CPU time (user +
// system), and reported as their median: their wall time, a few
// milliseconds, doubled in busy stretches of a shared 4-vCPU host
// (3.5-4.5 ms, then 8.5-9 ms over three consecutive runs) while their
// CPU time held within about a third.
//
// The end-to-end p50/tail slots are CPU milliseconds per training-sweep
// run (see TimedRuns::cpu_ms), not warm-restart times: on a shared
// 4-vCPU host the median warm restart read 12.3 ms in some runs and
// 16-18 ms in others (p90 13-28 ms), a spread past any regression
// bound, while the CPU-bound simulation figures held within about 10%.
// The verification runs are left out of them: their seeds follow
// --seed, the sweep's do not.
// Warm restarts stay checked and are reported as per-layer metrics.
#include <cerrno>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>

#include "acic/apps/apps.hpp"
#include "acic/core/predictor.hpp"
#include "acic/core/ranking.hpp"
#include "acic/core/training.hpp"
#include "workloads.hpp"

extern char** environ;

namespace e2e {

using namespace acic;

namespace {

constexpr int kTopDims = 12;
constexpr std::size_t kMaxSamples = 150;
// The sweep's sampling seed is fixed, so every run measures the same
// amount of work: which 150 points a seed draws from the 12-D space
// decides the cost (sweeps drawn with seeds 11-14 took 22-59 CPU-s),
// and that spread would swamp any change to the code.  --seed still
// drives PB screening's jitter and the verification runs.
constexpr std::uint64_t kSweepSeed = 1;
// Fixed, so the tail is the same percentile every run: p95, with 10
// restarts beyond it.
constexpr std::size_t kWarmRestarts = 200;
constexpr int kSetupChildren = 15;

/// Opens both run stores under `store_root`: PB screening's (armed on
/// the process-wide executor, which run_pb_ranking always uses) and the
/// sweep's (a timed executor of our own).
std::unique_ptr<exec::Executor> open_stores(const Context& ctx,
                                            const std::string& store_root,
                                            TimedRuns& timed,
                                            double* open_s) {
  Span span(*ctx.tracer, "exec.arm_store");
  exec::Executor::global().arm_store(store_root + "/pb");
  auto options = timed.options(ctx.threads);
  options.store_dir = store_root + "/sweep";
  auto sweep = std::make_unique<exec::Executor>(std::move(options));
  *open_s = span.end();
  return sweep;
}

struct Recommended {
  core::PbRankingResult pb;
  core::TrainingDatabase db;
  std::vector<std::string> perf_top1;
  std::vector<std::string> cost_top1;
  std::vector<cloud::IoConfig> perf_picks;
  std::size_t sweep_runs = 0;
  double pb_s = 0.0;
  double sweep_s = 0.0;
  double train_s = 0.0;
  std::vector<double> recommend_us;
};

/// PB screen -> sweep -> train both objectives -> recommend per app.
Recommended recommend_all(const Context& ctx, exec::Executor& sweep_exec) {
  Recommended out;
  Tracer& tracer = *ctx.tracer;

  core::PbRankingOptions pb_opts;
  pb_opts.seed = ctx.seed;
  pb_opts.threads = ctx.threads;
  Span pb_span(tracer, "core.run_pb_ranking");
  out.pb = core::run_pb_ranking(pb_opts);
  out.pb_s = pb_span.end();

  core::TrainingPlan plan;
  plan.dim_order = out.pb.importance;
  plan.top_dims = kTopDims;
  plan.max_samples = kMaxSamples;
  plan.seed = kSweepSeed;
  plan.threads = ctx.threads;
  plan.executor = &sweep_exec;
  Span sweep_span(tracer, "core.collect_training_data");
  out.sweep_runs = core::collect_training_data(out.db, plan).runs;
  out.sweep_s = sweep_span.end();

  Span train_span(tracer, "ml.train");
  const core::Acic perf(out.db, core::Objective::kPerformance);
  const core::Acic cost(out.db, core::Objective::kCost);
  out.train_s = train_span.end();

  for (const auto& app : apps::evaluation_suite()) {
    for (const core::Acic* model : {&perf, &cost}) {
      Span span(tracer, "core.recommend");
      const auto recs = model->recommend(app.workload, 1);
      out.recommend_us.push_back(1e6 * span.end());
      const auto& pick = recs.front().config;
      if (model == &perf) {
        out.perf_top1.push_back(pick.label());
        out.perf_picks.push_back(pick);
      } else {
        out.cost_top1.push_back(pick.label());
      }
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts) {
  std::string s;
  for (const auto& p : parts) s += (s.empty() ? "" : ",") + p;
  return s;
}

std::string top1_signature(const Recommended& r) {
  return join(r.perf_top1) + "|" + join(r.cost_top1);
}

/// Simulates every perf pick and the baseline; returns the geometric
/// mean of baseline time / pick time.
double verify_picks(const Context& ctx, exec::Executor& engine,
                    const std::vector<cloud::IoConfig>& picks,
                    Result& result) {
  Span span(*ctx.tracer, "exec.verify_picks");
  const auto suite = apps::evaluation_suite();
  std::vector<exec::RunRequest> batch;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    for (const auto& cfg : {picks[i], cloud::IoConfig::baseline()}) {
      io::RunOptions opts;
      opts.seed = ctx.seed ^ label_hash(cfg.label());
      batch.push_back(exec::RunRequest{suite[i].workload, cfg, opts});
    }
  }
  const auto runs = engine.run_batch(batch, ctx.threads);
  std::vector<double> speedups;
  for (std::size_t i = 0; i < runs.size(); i += 2) {
    const auto& pick = runs[i];
    const auto& base = runs[i + 1];
    result.attempt(2);
    const bool ok = pick.outcome == io::RunOutcome::kOk &&
                    base.outcome == io::RunOutcome::kOk &&
                    std::isfinite(pick.total_time) && pick.total_time > 0.0 &&
                    std::isfinite(base.total_time) && base.total_time > 0.0;
    result.check(ok, "verification run of " + suite[i / 2].app + " on " +
                         picks[i / 2].label() + " is not a clean run");
    if (!ok) {
      result.fail();
      continue;
    }
    speedups.push_back(base.total_time / pick.total_time);
  }
  return geomean(speedups);
}

/// One child process of this binary: its stdout, when it ran and the
/// CPU time it used.
struct Child {
  bool ok = false;  ///< spawned and exited with status 0
  Clock::time_point spawned;
  Clock::time_point exited;
  double cpu_s = 0.0;  ///< user + system
  std::string output;
};

Child spawn_child(const Context& ctx, std::vector<std::string> args) {
  Child child;
  int pipefd[2];
  if (pipe(pipefd) != 0) return child;
  args.insert(args.begin(), ctx.self_exe);
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipefd[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipefd[0]);
  posix_spawn_file_actions_addclose(&actions, pipefd[1]);

  child.spawned = Clock::now();
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, ctx.self_exe.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(pipefd[1]);
  if (rc == 0) {
    char buf[4096];
    for (ssize_t n; (n = read(pipefd[0], buf, sizeof buf)) != 0;) {
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      child.output.append(buf, static_cast<std::size_t>(n));
    }
  }
  close(pipefd[0]);
  int status = 0;
  rusage usage{};
  if (rc != 0 || wait4(pid, &status, 0, &usage) != pid) return child;
  child.exited = Clock::now();
  child.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  for (const timeval& tv : {usage.ru_utime, usage.ru_stime}) {
    child.cpu_s += static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  }
  return child;
}

/// The `key=value` fields of the child's line that starts with `tag`.
std::map<std::string, std::string> child_fields(const Child& child,
                                                const std::string& tag) {
  std::map<std::string, std::string> fields;
  std::istringstream lines(child.output);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(tag + " ", 0) != 0) continue;
    std::istringstream words(line.substr(tag.size() + 1));
    for (std::string kv; words >> kv;) {
      const auto eq = kv.find('=');
      if (eq != std::string::npos) fields[kv.substr(0, eq)] = kv.substr(eq + 1);
    }
  }
  return fields;
}

double field_or(const std::map<std::string, std::string>& fields,
                const std::string& key, double fallback) {
  const auto it = fields.find(key);
  return it == fields.end() ? fallback : std::stod(it->second);
}

/// Set-up of the cold process, measured in `kSetupChildren` fresh
/// processes that arm both stores, each in an empty directory, and exit:
/// the median of their CPU seconds.  0 when a child failed, which the
/// caller checks.
double timed_setup(const Context& ctx) {
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupChildren; ++k) {
    const auto dir = ctx.workdir + "/setup/" + std::to_string(k);
    const auto child = spawn_child(ctx, {"--setup-child", dir});
    if (!child.ok || child.output.rfind("setup-child armed", 0) != 0) {
      return 0.0;
    }
    setup_s.push_back(child.cpu_s);
  }
  std::filesystem::remove_all(ctx.workdir + "/setup");
  return median(setup_s);
}

}  // namespace

int setup_child_main(const Context& ctx, const std::string& store_root) {
  TimedRuns timed(*ctx.tracer, 0);
  double open_s = 0.0;
  const auto sweep_exec = open_stores(ctx, store_root, timed, &open_s);
  std::printf("setup-child armed\n");
  return 0;
}

int warm_child_main(const Context& ctx, const std::string& store_root) {
  TimedRuns timed(*ctx.tracer, 0);
  const CounterDelta counters;
  double open_s = 0.0;
  const auto sweep_exec = open_stores(ctx, store_root, timed, &open_s);
  const auto rec = recommend_all(ctx, *sweep_exec);
  std::printf(
      "warm-child runs_executed=%.0f store_open_ms=%.6f pb_s=%.6f "
      "sweep_s=%.6f top1=%s\n",
      counters.delta("exec.runs_executed"), 1e3 * open_s, rec.pb_s,
      rec.sweep_s, top1_signature(rec).c_str());
  return 0;
}

void run_cold_start(const Context& ctx, Result& result, Values& values) {
  const double setup_s = timed_setup(ctx);
  result.check(setup_s > 0.0, "a set-up child process failed");
  values["setup_s"] = setup_s;

  const std::string store_root = ctx.workdir + "/store";
  std::filesystem::create_directories(store_root);
  Tracer& tracer = *ctx.tracer;
  TimedRuns timed(tracer, 0);
  const CounterDelta counters;

  // --- cold: fresh store, whole pipeline -------------------------------
  const auto cold_start = Clock::now();
  double open_s = 0.0;
  const auto sweep_exec = open_stores(ctx, store_root, timed, &open_s);
  const auto rec = recommend_all(ctx, *sweep_exec);
  const double time_to_recommend_s =
      seconds_between(cold_start, Clock::now());
  result.attempt(rec.sweep_runs);
  const auto sweep_ms = timed.host_ms();  // before the verification runs
  const auto sweep_cpu_ms = timed.cpu_ms();
  result.check(!exec::Executor::global().store_degraded() &&
                   !sweep_exec->store_degraded(),
               "cold run store degraded to memo-only");
  const double pick_speedup =
      verify_picks(ctx, *sweep_exec, rec.perf_picks, result);
  const double sim_events = counters.delta("sim.events");
  const double runs_executed = counters.delta("exec.runs_executed");
  const double cache_hits = counters.delta("exec.cache_hits");
  const double store_hits = counters.delta("exec.store_hits");

  // --- warm restarts: fresh processes against the filled store ---------
  const std::string expected = top1_signature(rec);
  std::vector<double> warm_ms, open_ms, warm_pb_s, warm_sweep_s;
  double warm_executed = 0.0;
  const std::string seed = std::to_string(ctx.seed);
  const std::string threads = std::to_string(ctx.threads);
  while (warm_ms.size() < kWarmRestarts) {
    Span span(tracer, "warm.restart");
    const auto child = spawn_child(
        ctx, {"--warm-child", store_root, "--seed", seed, "--threads",
              threads});
    const auto fields = child_fields(child, "warm-child");
    const double executed = field_or(fields, "runs_executed", -1.0);
    const auto top1 = fields.count("top1") ? fields.at("top1") : "";
    result.attempt();
    const bool ok = child.ok && executed == 0.0 && top1 == expected;
    result.check(child.ok, "warm restart exited abnormally");
    result.check(executed == 0.0, "warm restart executed simulations");
    result.check(top1 == expected,
                 "warm restart returned other top-1 configs: " + top1);
    if (!ok) result.fail();
    warm_ms.push_back(1e3 * seconds_between(child.spawned, child.exited));
    open_ms.push_back(field_or(fields, "store_open_ms", 0.0));
    warm_pb_s.push_back(field_or(fields, "pb_s", 0.0));
    warm_sweep_s.push_back(field_or(fields, "sweep_s", 0.0));
    warm_executed += std::max(executed, 0.0);
  }

  const auto warm_tail = tail_percentile(warm_ms);
  const auto run_tail = tail_percentile(sweep_ms);
  const auto cpu_tail = tail_percentile(sweep_cpu_ms);
  std::fprintf(stderr,
               "cold_start: time_to_recommend_s=%.3f s sweep_runs_per_s=%.2f "
               "1/s sweep run_ms host p50=%.3f p90=%.3f p%g=%.3f, cpu "
               "p50=%.3f p90=%.3f p%g=%.3f (n=%zu) "
               "warm_ready_ms=%.2f ms (p%g=%.2f ms, n=%zu) "
               "pick_speedup=%.4f x\n",
               time_to_recommend_s, rec.sweep_runs / rec.sweep_s,
               median(sweep_ms), quantile(sweep_ms, kRunTailQ),
               100 * run_tail.q, run_tail.value, median(sweep_cpu_ms),
               quantile(sweep_cpu_ms, kRunTailQ), 100 * cpu_tail.q,
               cpu_tail.value, run_tail.n,
               median(warm_ms), 100 * warm_tail.q, warm_tail.value,
               warm_tail.n, pick_speedup);

  values["result_s"] = time_to_recommend_s;
  // Runs per CPU second of simulation, not per wall second: the sweep's
  // wall time also hinges on when its few largest runs start on the
  // four threads, and its runs-per-wall-second spread 0.24 of the median
  // over ten runs of the same code.  result_s gates the wall time.
  double sweep_cpu_s = 0.0;
  for (double ms : sweep_cpu_ms) sweep_cpu_s += ms / 1e3;
  values["rate_per_s"] =
      sweep_cpu_s > 0.0 ? sweep_cpu_ms.size() / sweep_cpu_s : 0.0;
  values["p50_ms"] = median(sweep_cpu_ms);
  values["tail_ms"] = quantile(sweep_cpu_ms, kRunTailQ);

  values["core.pb_screen_s"] = rec.pb_s;
  values["core.sweep_s"] = rec.sweep_s;
  values["core.recommend_us"] = median(rec.recommend_us);
  values["core.pick_speedup"] = pick_speedup;
  values["ml.train_ms"] = 1e3 * rec.train_s;
  values["simcore.events"] = sim_events;
  values["exec.runs_executed"] = runs_executed;
  values["exec.cache_hits"] = cache_hits;
  values["exec.store_hits"] = store_hits;
  values["exec.store_open_ms"] = median(open_ms);
  values["core.pb_screen_s.warm"] = median(warm_pb_s);
  values["core.sweep_s.warm"] = median(warm_sweep_s);
  values["warm.runs_executed"] = warm_executed;
  values["warm.ready_ms.p50"] = median(warm_ms);
  values["warm.ready_ms.tail"] = warm_tail.value;
  record_io_layer(timed, counters, values);
  // Before serving, whose memory is mostly the load generator's own
  // request lines and records.
  values["peak_rss_mb"] = peak_rss_mb();

  // --- serving the trained engine ---------------------------------------
  run_serving(ctx, rec.db, rec.pb, result, values);
}

}  // namespace e2e
