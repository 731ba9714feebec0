#include "common.hpp"

#include <ctime>

#include "acic/io/runner.hpp"
#include "acic/obs/metrics.hpp"

namespace e2e {

using namespace acic;

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) +
         1e-6 * static_cast<double>(ts.tv_nsec);
}

exec::ExecutorOptions TimedRuns::options(unsigned threads) {
  exec::ExecutorOptions o;
  o.threads = threads;
  o.run_fn = [this](const exec::RunRequest& r) {
    Span span(tracer_, "io.run_workload", parent_);
    const double cpu_start = thread_cpu_ms();
    auto result = io::run_workload(r.workload, r.config, r.options);
    const double cpu = thread_cpu_ms() - cpu_start;
    const double ms = 1e3 * span.end();
    std::lock_guard<std::mutex> lock(mutex_);
    host_ms_.push_back(ms);
    cpu_ms_.push_back(cpu);
    events_ += result.sim_events;
    outcomes_[static_cast<std::size_t>(result.outcome)]++;
    return result;
  };
  return o;
}

std::vector<double> TimedRuns::host_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return host_ms_;
}

std::vector<double> TimedRuns::cpu_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cpu_ms_;
}

double TimedRuns::host_s() const {
  double sum = 0.0;
  for (double ms : host_ms()) sum += ms / 1e3;
  return sum;
}

std::uint64_t TimedRuns::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::array<std::size_t, 3> TimedRuns::outcomes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return outcomes_;
}

CounterDelta::CounterDelta() {
  for (const auto& [name, value] :
       obs::MetricsRegistry::global().snapshot().counters) {
    base_[name] = value;
  }
}

double CounterDelta::delta(const std::string& name) const {
  const double now = obs::MetricsRegistry::global().counter(name).value();
  const auto it = base_.find(name);
  return now - (it == base_.end() ? 0.0 : it->second);
}

void record_io_layer(const TimedRuns& timed, const CounterDelta& counters,
                     Values& values) {
  const auto ms = timed.host_ms();
  const auto outcomes = timed.outcomes();
  values["io.runs"] = static_cast<double>(ms.size());
  values["io.run_ms.p50"] = median(ms);
  values["io.run_ms.tail"] = tail_percentile(ms).value;
  values["io.outcomes.ok"] = static_cast<double>(outcomes[0]);
  values["io.outcomes.degraded"] = static_cast<double>(outcomes[1]);
  values["io.outcomes.failed"] = static_cast<double>(outcomes[2]);
  values["io.preempt.restarts"] = counters.delta("io.preempt.restarts");
  values["io.checkpoint.writes"] = counters.delta("io.checkpoint.writes");
  values["cloud.faults.injected"] = counters.delta("cloud.faults.injected");
  const auto events = timed.events();
  values["simcore.ns_per_event"] =
      events ? 1e9 * timed.host_s() / static_cast<double>(events) : 0.0;
}

std::uint64_t label_hash(const std::string& label) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace e2e
