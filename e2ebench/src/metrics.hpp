// The metric vocabulary of the benchmark.  Every workload reports every
// end-to-end metric (untraced run) or every per-layer metric (traced
// run); BENCHMARK.json lists the same names and units, and run.py
// refuses a result whose names or units differ from it.
//
// End-to-end slots are shared by the workloads; what each one means per
// workload is in README.md.  A per-layer metric that a
// workload bypasses reads 0 on that workload: that is the prediction
// "no change" for layers it does not touch.
#pragma once

#include <array>
#include <string_view>

namespace e2e {

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

inline constexpr std::array kEndToEnd = {
    MetricDef{"result_s", "s"},      MetricDef{"rate_per_s", "1/s"},
    MetricDef{"p50_ms", "ms"},       MetricDef{"tail_ms", "ms"},
    MetricDef{"setup_s", "s"},       MetricDef{"peak_rss_mb", "MiB"},
};

inline constexpr std::array kPerLayer = {
    // core / ml
    MetricDef{"core.pb_screen_s", "s"},
    MetricDef{"core.sweep_s", "s"},
    MetricDef{"core.recommend_us", "us"},
    MetricDef{"core.pick_speedup", "x"},
    MetricDef{"ml.train_ms", "ms"},
    // io / simcore (timed through ExecutorOptions::run_fn)
    MetricDef{"io.runs", "count"},
    MetricDef{"io.run_ms.p50", "ms"},
    MetricDef{"io.run_ms.tail", "ms"},
    MetricDef{"io.outcomes.ok", "count"},
    MetricDef{"io.outcomes.degraded", "count"},
    MetricDef{"io.outcomes.failed", "count"},
    MetricDef{"io.preempt.restarts", "count"},
    MetricDef{"io.checkpoint.writes", "count"},
    MetricDef{"cloud.faults.injected", "count"},
    MetricDef{"simcore.events", "count"},
    MetricDef{"simcore.ns_per_event", "ns"},
    // exec (cold process, then warm restarts)
    MetricDef{"exec.runs_executed", "count"},
    MetricDef{"exec.cache_hits", "count"},
    MetricDef{"exec.store_hits", "count"},
    MetricDef{"exec.store_open_ms", "ms"},
    MetricDef{"core.pb_screen_s.warm", "s"},
    MetricDef{"core.sweep_s.warm", "s"},
    MetricDef{"warm.runs_executed", "count"},
    MetricDef{"warm.ready_ms.p50", "ms"},
    MetricDef{"warm.ready_ms.tail", "ms"},
    // serving phase: service / net / load generator
    MetricDef{"serve.ready_ms", "ms"},
    MetricDef{"serve.p50_ms", "ms"},
    MetricDef{"serve.p90_ms", "ms"},
    MetricDef{"serve.tail_ms", "ms"},
    MetricDef{"service.handle_us.recommend.p50", "us"},
    MetricDef{"service.handle_us.recommend.tail", "us"},
    MetricDef{"service.handle_us.predict.p50", "us"},
    MetricDef{"service.handle_us.predict.tail", "us"},
    MetricDef{"service.handle_us.rank.p50", "us"},
    MetricDef{"service.handle_us.rank.tail", "us"},
    MetricDef{"service.handle_us.stats.p50", "us"},
    MetricDef{"service.handle_us.stats.tail", "us"},
    MetricDef{"service.queue_wait_us.p50", "us"},
    MetricDef{"service.queue_wait_us.tail", "us"},
    MetricDef{"net.overhead_us.p50", "us"},
    MetricDef{"net.overhead_us.tail", "us"},
    MetricDef{"service.update_ms", "ms"},
    MetricDef{"net.queue_shed", "count"},
    MetricDef{"gen.lateness_ms.max", "ms"},
    // the traced run's own end-to-end values (tracing overhead is the
    // difference to the untraced run's) and its span count
    MetricDef{"trace.result_s", "s"},
    MetricDef{"trace.rate_per_s", "1/s"},
    MetricDef{"trace.p50_ms", "ms"},
    MetricDef{"trace.tail_ms", "ms"},
    MetricDef{"trace.spans", "count"},
};

}  // namespace e2e
