// Configuration query service — the paper's §8 future work ("web-based
// ACIC query service") realised as a transport-agnostic request/response
// engine: a line-oriented text protocol any front end (CLI, web gateway,
// batch script) can speak.
//
// Protocol (one request per line, key=value pairs, order-free):
//
//   recommend objective=performance top_k=3 np=256 io_procs=256
//             interface=MPI-IO iterations=40 data=4MiB request=4MiB
//             op=write collective=yes shared=yes
//   predict   config=pvfs.4.D.eph <same workload keys>
//   rank      [top=N] [model=yes objective=... <workload keys>]
//                                         — PB dimension ranking; model=yes
//                                           appends the trained model's
//                                           workload-specific dimension
//                                           spreads (one batch prediction)
//   simulate  config=<label> <workload keys> [seed= failures= brownouts=
//             brownout_fraction= stragglers= straggler_factor= correlated=
//             permanent= retry= timeout= attempts= watchdog=]
//                                         — one chaos run, reproducible
//   stats                                 — database + request metrics
//   plugins                               — substrate inventory (kind,
//                                           name, knob count, schema)
//   help
//
// recommend/predict additionally accept learner=<name> (any registered
// learner plugin trained in the snapshot) and recommend accepts
// fs=<name> to restrict candidates to one registered filesystem;
// simulate accepts chaos=<preset> (a registered fault-model plugin,
// overridable field by field).  Unknown names answer with a typed
// error listing what is registered.
//
// Responses are "ok ..." / "error ..." lines followed by indented detail
// rows, so they stay greppable and machine-parseable.  Under graceful
// degradation two more typed first words appear: "shed ..." (bounded
// admission rejected the request) and "timeout ..." (the per-request
// deadline expired) — clients can branch on the first token alone.
//
// Concurrency model: the service state is an immutable `Engine` snapshot
// (training database + ranking + both trained models) behind an
// atomically swapped shared_ptr.  `handle()` pins the current snapshot
// for the duration of one request; `update_database()` trains a *new*
// engine off to the side and swaps the pointer (copy-on-write) — the
// micro-mutex guards only the shared_ptr copy (a refcount bump, never
// training or prediction), so readers never wait on a writer's work and
// in-flight requests keep answering from the snapshot they started with.
// Both models are trained eagerly when an engine is built, so the hot
// path never trains.  Every request is counted and timed into the
// process-wide `acic::obs` registry under `service.requests.<verb>` /
// `service.latency_us.<verb>`.
#pragma once

#include <atomic>
#include <chrono>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "acic/common/mutex.hpp"
#include "acic/common/thread_annotations.hpp"
#include "acic/core/predictor.hpp"
#include "acic/core/ranking.hpp"
#include "acic/core/training.hpp"
#include "acic/obs/metrics.hpp"

namespace acic::service {

/// Parse a size literal: "4MiB", "256KiB", "1.5GiB", "2048" (bytes).
/// The value must be a positive, finite number; anything else (including
/// "-4MiB", "nan", or a bare unit) throws acic::Error naming the input.
Bytes parse_size(const std::string& text);

/// Parse a non-negative integer protocol field (top_k=…, np=…).  Signs,
/// non-digit characters, and out-of-range values throw acic::Error with
/// the offending key and text (std::stoul would happily wrap "-1").
std::size_t parse_count(const std::string& key, const std::string& text);

/// Parse one protocol line into a workload description.  Unknown keys
/// throw; missing keys keep the defaults below.
io::Workload parse_workload_query(const std::string& line);

/// Graceful-degradation knobs.  Both default off, which preserves the
/// legacy unbounded/undeadlined behaviour.
struct ServiceOptions {
  /// Bounded admission: requests beyond this many concurrently running
  /// ones are answered with a typed "shed ..." line instead of queuing
  /// (0 = unbounded).
  std::size_t max_in_flight = 0;
  /// Per-request compute deadline in microseconds; a request that blows
  /// it gets a typed "timeout ..." response (0 = none).
  double deadline_us = 0.0;
  /// Registered learner plugins to train per engine snapshot; the first
  /// entry is the primary (answers requests without a learner= key).
  /// Every name is validated against the plugin registry at
  /// construction, so a typo fails service startup with a typed error
  /// instead of surfacing per-request.
  std::vector<std::string> learners = {"cart"};
};

class QueryService {
 public:
  /// Builds the first engine snapshot: trains one model per objective
  /// eagerly so concurrent `handle()` calls never observe a half-trained
  /// model.  If training is impossible (e.g. an empty database), the
  /// service still comes up in fallback mode: recommend answers from the
  /// PB ranking, predict reports the model as unavailable.
  QueryService(core::TrainingDatabase database, core::PbRankingResult ranking,
               ServiceOptions options = {});

  /// Handle one protocol line; never throws — malformed input yields an
  /// "error ..." response.  Safe to call from any number of threads
  /// concurrently, including while `update_database()` swaps snapshots.
  ///
  /// The deadline clock starts at `admitted_at`, by default the call
  /// itself; a network front end passes the frame-arrival time so queue
  /// wait counts against `deadline_us`.  The deadline is enforced on both sides of the verb
  /// dispatch: a request that is already over budget when it reaches
  /// compute is answered `timeout ... phase=queue` without doing the
  /// work, and one that blows the budget *during* compute is answered
  /// `timeout ... phase=compute degraded=yes` — both count into
  /// `service.deadline_exceeded`.
  std::string handle(const std::string& request_line,
                     std::chrono::steady_clock::time_point admitted_at =
                         std::chrono::steady_clock::now());

  /// Drive the service from a stream: reads request lines until EOF or a
  /// "quit"/"exit" line, skipping blank ones, and answers each line (then
  /// flushes `out`) before reading the next.  Concurrency belongs to the
  /// network transport (acic::net::Server), not to this loop.  Returns
  /// the number of requests served.
  std::size_t serve(std::istream& in, std::ostream& out);

  /// Refresh the database snapshot (a crowdsourced contribution batch):
  /// trains a replacement engine and atomically publishes it.  In-flight
  /// requests finish on the old snapshot; it is freed when the last one
  /// drops its reference.  If the replacement cannot be trained while
  /// the current engine has working models, the current one is kept (a
  /// bad contribution batch must not degrade a healthy service).
  void update_database(core::TrainingDatabase database);

  std::size_t database_size() const;

  /// Requests currently inside handle() (admission gauge; exposed so
  /// overload tests can synchronise deterministically).
  std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  /// True while the current snapshot answers from the PB-ranking
  /// fallback instead of trained models.
  bool degraded() const;

 private:
  /// Both objectives' models for one learner plugin.  Only complete
  /// pairs are published into an engine's model map.
  struct ModelSet {
    std::optional<core::Acic> perf;
    std::optional<core::Acic> cost;
  };

  /// Immutable service state; shared read-only by concurrent requests.
  /// Models are optional: a snapshot whose training failed (empty or
  /// corrupt database) still serves rank/stats and fallback recommends.
  struct Engine {
    Engine(core::TrainingDatabase db, core::PbRankingResult rank,
           std::vector<std::string> learner_names);

    core::TrainingDatabase database;
    core::PbRankingResult ranking;
    /// Requested learner plugin names; front() is the primary.
    std::vector<std::string> learners;
    /// Trained models per learner; a learner whose training threw is
    /// simply absent (per-learner failure isolation).
    std::map<std::string, ModelSet, std::less<>> models;

    const std::string& primary_learner() const { return learners.front(); }
    bool degraded() const { return model_set(primary_learner()) == nullptr; }
    const ModelSet* model_set(std::string_view learner) const {
      const auto it = models.find(learner);
      return it == models.end() ? nullptr : &it->second;
    }
    const core::Acic* model_for(core::Objective objective) const {
      return model_for(objective, primary_learner());
    }
    const core::Acic* model_for(core::Objective objective,
                                std::string_view learner) const {
      const ModelSet* set = model_set(learner);
      if (set == nullptr) return nullptr;
      const auto& m = objective == core::Objective::kPerformance ? set->perf
                                                                 : set->cost;
      return m ? &*m : nullptr;
    }
  };
  using EngineRef = std::shared_ptr<const Engine>;

  // A plain mutex around the shared_ptr copy instead of
  // std::atomic<shared_ptr>: the critical sections are two instructions
  // wide, and libstdc++'s lock-bit _Sp_atomic confuses TSan (the tsan CI
  // preset is how this file's guarantees are enforced).
  EngineRef engine() const ACIC_EXCLUDES(engine_mutex_) {
    MutexLock lock(&engine_mutex_);
    return engine_;
  }
  void publish(EngineRef next) ACIC_EXCLUDES(engine_mutex_) {
    MutexLock lock(&engine_mutex_);
    engine_ = std::move(next);
  }

  std::string handle_recommend(const Engine& engine,
                               const std::string& line);
  static std::string handle_predict(const Engine& engine,
                                    const std::string& line);
  static std::string handle_rank(const Engine& engine,
                                 const std::string& line);
  static std::string handle_simulate(const std::string& line);
  static std::string handle_stats(const Engine& engine);
  static std::string handle_plugins();
  static std::string help_text();
  /// The registered-but-untrained learner error (distinct from the
  /// unknown-name PluginError the registry itself throws): lists the
  /// learners this snapshot actually trained.
  static Error untrained_learner_error(const Engine& engine,
                                       const std::string& learner);
  /// PB-effects fallback: score every candidate config against the
  /// screening effects and return the top_k (used when no model
  /// snapshot exists).
  static std::string fallback_recommend(const Engine& engine,
                                        core::Objective objective,
                                        std::size_t top_k);
  std::string dispatch(const std::string& verb, const std::string& line);

  /// Per-verb instruments, resolved once at construction so the request
  /// path never takes the registry lock.
  struct VerbMetrics {
    obs::Counter* requests = nullptr;
    obs::Histogram* latency_us = nullptr;
  };
  const VerbMetrics& metrics_for(const std::string& verb) const;

  mutable Mutex engine_mutex_;
  EngineRef engine_ ACIC_GUARDED_BY(engine_mutex_);
  ServiceOptions options_;
  std::atomic<std::size_t> in_flight_{0};
  VerbMetrics recommend_metrics_;
  VerbMetrics predict_metrics_;
  VerbMetrics rank_metrics_;
  VerbMetrics simulate_metrics_;
  VerbMetrics stats_metrics_;
  VerbMetrics plugins_metrics_;
  VerbMetrics other_metrics_;
  obs::Counter* errors_ = nullptr;
  obs::Counter* shed_ = nullptr;
  obs::Counter* deadline_exceeded_ = nullptr;
  obs::Counter* fallback_answers_ = nullptr;
  obs::Counter* engine_build_failures_ = nullptr;
  // Resolved once in the constructor: the engine-rebuild instruments
  // used by both the constructor and update_database().  (They used to
  // be re-registered inline at each call site — two registration sites
  // for one name, which the acic-lint metrics rule now rejects.)
  obs::Counter* engine_builds_ = nullptr;
  obs::Histogram* train_latency_us_ = nullptr;
};

}  // namespace acic::service
