#include "acic/service/query_service.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>

#include "acic/common/error.hpp"
#include "acic/exec/executor.hpp"
#include "acic/io/runner.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::service {

namespace {

std::map<std::string, std::string> parse_pairs(const std::string& line) {
  std::map<std::string, std::string> kv;
  std::istringstream is(line);
  std::string token;
  is >> token;  // skip the verb
  while (is >> token) {
    const auto eq = token.find('=');
    ACIC_CHECK_MSG(eq != std::string::npos && eq > 0,
                   "expected key=value, got '" << token << "'");
    kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return kv;
}

bool parse_bool(const std::string& v) {
  if (v == "yes" || v == "true" || v == "1" || v == "on") return true;
  if (v == "no" || v == "false" || v == "0" || v == "off") return false;
  throw Error("expected yes/no, got '" + v + "'");
}

core::Objective parse_objective(const std::string& v) {
  if (v == "performance" || v == "perf" || v == "time") {
    return core::Objective::kPerformance;
  }
  if (v == "cost" || v == "money") return core::Objective::kCost;
  throw Error("unknown objective '" + v + "'");
}

cloud::IoConfig config_by_label(const std::string& label) {
  for (const auto& c : cloud::IoConfig::enumerate_candidates()) {
    if (c.label() == label) return c;
  }
  throw Error("unknown config label '" + label + "'");
}

std::string verb_of(const std::string& line) {
  std::istringstream is(line);
  std::string verb;
  is >> verb;
  return verb;
}

/// parse_count, bounded to int for the workload fields.
int parse_int_field(const std::string& key, const std::string& text) {
  const std::size_t v = parse_count(key, text);
  if (v > static_cast<std::size_t>(std::numeric_limits<int>::max())) {
    throw Error(key + "='" + text + "' is out of range");
  }
  return static_cast<int>(v);
}

/// Non-negative, finite double protocol field (fault-model knobs).
double parse_nonneg_double(const std::string& key, const std::string& text) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &pos);
  } catch (const std::exception&) {
    throw Error(key + "='" + text + "' is not a number");
  }
  if (pos != text.size() || !std::isfinite(v) || v < 0.0) {
    throw Error(key + "='" + text + "' must be a non-negative number");
  }
  return v;
}

/// Keys of the simulate verb that are *not* workload keys.
bool is_simulate_key(const std::string& key) {
  static const char* kKeys[] = {
      "seed",       "failures", "brownouts", "brownout_fraction",
      "stragglers", "straggler_factor", "correlated", "permanent",
      "retry",      "timeout",  "attempts",  "watchdog",  "chaos",
      "preemptions", "notice",  "checkpoint", "checkpoint_interval",
      "checkpoint_bytes", "max_restarts", "spot", "spot_factor",
      "restart_cost"};
  for (const char* k : kKeys) {
    if (key == k) return true;
  }
  return false;
}

}  // namespace

Bytes parse_size(const std::string& text) {
  ACIC_CHECK_MSG(!text.empty(), "empty size literal");
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    // std::stod's "stod" message is useless to a protocol client; name
    // the offending input instead.
    throw Error("malformed size literal '" + text + "'");
  }
  if (!std::isfinite(value) || value <= 0.0) {
    throw Error("size literal '" + text + "' must be positive and finite");
  }
  std::string unit = text.substr(pos);
  std::transform(unit.begin(), unit.end(), unit.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (unit.empty() || unit == "b") return value;
  if (unit == "kib" || unit == "kb" || unit == "k") return value * KiB;
  if (unit == "mib" || unit == "mb" || unit == "m") return value * MiB;
  if (unit == "gib" || unit == "gb" || unit == "g") return value * GiB;
  if (unit == "tib" || unit == "tb" || unit == "t") return value * TiB;
  throw Error("unknown size unit '" + unit + "'");
}

std::size_t parse_count(const std::string& key, const std::string& text) {
  const bool all_digits =
      !text.empty() &&
      std::all_of(text.begin(), text.end(),
                  [](unsigned char c) { return std::isdigit(c) != 0; });
  if (!all_digits) {
    throw Error(key + " must be a non-negative integer, got '" + text + "'");
  }
  try {
    return static_cast<std::size_t>(std::stoull(text));
  } catch (const std::exception&) {
    throw Error(key + "='" + text + "' is out of range");
  }
}

io::Workload parse_workload_query(const std::string& line) {
  const auto kv = parse_pairs(line);
  io::Workload w;
  w.name = "query";
  for (const auto& [key, value] : kv) {
    if (key == "objective" || key == "top_k" || key == "config") continue;
    if (key == "top" || key == "model") continue;  // rank verb controls
    if (key == "learner" || key == "fs") continue;  // plugin selectors
    if (is_simulate_key(key)) continue;
    if (key == "np") {
      w.num_processes = parse_int_field(key, value);
    } else if (key == "io_procs") {
      w.num_io_processes = parse_int_field(key, value);
    } else if (key == "interface") {
      w.interface = io::interface_from_string(value);
    } else if (key == "iterations") {
      w.iterations = parse_int_field(key, value);
    } else if (key == "data") {
      w.data_size = parse_size(value);
    } else if (key == "request") {
      w.request_size = parse_size(value);
    } else if (key == "op") {
      w.op = io::opmix_from_string(value);
    } else if (key == "collective") {
      w.collective = parse_bool(value);
    } else if (key == "shared") {
      w.file_shared = parse_bool(value);
    } else {
      throw Error("unknown workload key '" + key + "'");
    }
  }
  w.normalize();
  ACIC_CHECK_MSG(w.valid(), "query describes an invalid workload");
  return w;
}

QueryService::Engine::Engine(core::TrainingDatabase db,
                             core::PbRankingResult rank,
                             std::vector<std::string> learner_names)
    : database(std::move(db)),
      ranking(std::move(rank)),
      learners(std::move(learner_names)) {
  // A snapshot whose models cannot be trained (empty or degenerate
  // database) still serves: recommend falls back to the PB ranking.
  // Each learner trains independently — one blowing up must not take
  // the others (or the fallback path) down with it.
  for (const auto& name : learners) {
    try {
      ModelSet set;
      set.perf.emplace(database, core::Objective::kPerformance,
                       std::string_view(name));
      set.cost.emplace(database, core::Objective::kCost,
                       std::string_view(name));
      models.emplace(name, std::move(set));
    } catch (const std::exception&) {
      // Absent from the map; requests naming it get a typed error.
    }
  }
}

QueryService::QueryService(core::TrainingDatabase database,
                           core::PbRankingResult ranking,
                           ServiceOptions options)
    : options_(std::move(options)) {
  ACIC_CHECK_MSG(!options_.learners.empty(),
                 "ServiceOptions::learners must name at least one learner");
  // Validate the learner names against the plugin registry up front: a
  // typo fails startup with a PluginError listing what is registered,
  // instead of every future request erroring.
  for (const auto& name : options_.learners) {
    plugin::learners().lookup(name);
  }
  auto& registry = obs::MetricsRegistry::global();
  auto verb_metrics = [&registry](const char* verb) {
    VerbMetrics m;
    m.requests = &registry.counter(std::string("service.requests.") + verb);
    m.latency_us =
        &registry.histogram(std::string("service.latency_us.") + verb);
    return m;
  };
  recommend_metrics_ = verb_metrics("recommend");
  predict_metrics_ = verb_metrics("predict");
  rank_metrics_ = verb_metrics("rank");
  simulate_metrics_ = verb_metrics("simulate");
  stats_metrics_ = verb_metrics("stats");
  plugins_metrics_ = verb_metrics("plugins");
  other_metrics_ = verb_metrics("other");
  errors_ = &registry.counter("service.errors");
  shed_ = &registry.counter("service.shed");
  deadline_exceeded_ = &registry.counter("service.deadline_exceeded");
  fallback_answers_ = &registry.counter("service.fallback_answers");
  engine_build_failures_ =
      &registry.counter("service.engine_build_failures");
  engine_builds_ = &registry.counter("service.engine_builds");
  train_latency_us_ = &registry.histogram("service.train_latency_us");

  obs::Timer train_timer(*train_latency_us_);
  engine_builds_->inc();
  auto first = std::make_shared<const Engine>(
      std::move(database), std::move(ranking), options_.learners);
  if (first->degraded()) engine_build_failures_->inc();
  publish(std::move(first));
}

void QueryService::update_database(core::TrainingDatabase database) {
  obs::Timer train_timer(*train_latency_us_);
  engine_builds_->inc();
  // Train the replacement engine *before* publishing it: readers keep
  // answering from the old snapshot during the (expensive) build, then
  // pick up the new one on their next request.
  const EngineRef current = engine();
  auto next = std::make_shared<const Engine>(
      std::move(database), current->ranking, current->learners);
  if (next->degraded()) {
    engine_build_failures_->inc();
    // A contribution batch that cannot train must not degrade a healthy
    // service: keep the current snapshot.  (If the service was already
    // degraded, take the new database anyway — at least the stats and
    // fallback answers reflect it.)
    if (!current->degraded()) return;
  }
  publish(std::move(next));
}

std::size_t QueryService::database_size() const {
  return engine()->database.size();
}

bool QueryService::degraded() const { return engine()->degraded(); }

const QueryService::VerbMetrics& QueryService::metrics_for(
    const std::string& verb) const {
  if (verb == "recommend") return recommend_metrics_;
  if (verb == "predict") return predict_metrics_;
  if (verb == "rank") return rank_metrics_;
  if (verb == "simulate") return simulate_metrics_;
  if (verb == "stats") return stats_metrics_;
  if (verb == "plugins") return plugins_metrics_;
  return other_metrics_;
}

std::string QueryService::handle(
    const std::string& request_line,
    std::chrono::steady_clock::time_point admitted_at) {
  const std::string verb = verb_of(request_line);
  const VerbMetrics& vm = metrics_for(verb);
  vm.requests->inc();

  // Bounded admission: shed instead of queuing up behind slow requests.
  // The shed path is counted but not timed — the latency histograms
  // describe admitted work only.
  const std::size_t running =
      in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  struct InFlightGuard {
    std::atomic<std::size_t>& gauge;
    ~InFlightGuard() { gauge.fetch_sub(1, std::memory_order_acq_rel); }
  } guard{in_flight_};
  if (options_.max_in_flight > 0 && running > options_.max_in_flight) {
    shed_->inc();
    std::ostringstream os;
    os << "shed at capacity (" << options_.max_in_flight
       << " requests in flight); retry later\n";
    return os.str();
  }

  const auto elapsed_us_since = [](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t)
        .count();
  };
  // Deadline gate #1, before the verb runs: a request that burned its
  // whole budget waiting (in the network transport's dispatch queue) is
  // answered without doing the work — under overload, computing an
  // answer nobody is waiting for anymore only deepens the overload.
  if (options_.deadline_us > 0.0) {
    const double waited_us = elapsed_us_since(admitted_at);
    if (waited_us > options_.deadline_us) {
      deadline_exceeded_->inc();
      std::ostringstream os;
      os << "timeout request exceeded deadline (" << waited_us << "us > "
         << options_.deadline_us << "us) phase=queue\n";
      return os.str();
    }
  }

  obs::Timer timer(*vm.latency_us);
  std::string response = dispatch(verb, request_line);
  // Deadline gate #2, re-checked after the verb dispatch: a request
  // that blows `deadline_us` *during* compute is counted too, and the
  // late answer is replaced by a typed, explicitly degraded response.
  if (options_.deadline_us > 0.0) {
    const double elapsed_us = elapsed_us_since(admitted_at);
    if (elapsed_us > options_.deadline_us) {
      deadline_exceeded_->inc();
      std::ostringstream os;
      os << "timeout request exceeded deadline (" << elapsed_us << "us > "
         << options_.deadline_us << "us) phase=compute degraded=yes\n";
      return os.str();
    }
  }
  return response;
}

std::string QueryService::dispatch(const std::string& verb,
                                   const std::string& request_line) {
  try {
    // Pin one immutable snapshot for the whole request; a concurrent
    // update_database() cannot pull the models out from under us.
    const EngineRef e = engine();
    if (verb == "recommend") return handle_recommend(*e, request_line);
    if (verb == "predict") return handle_predict(*e, request_line);
    if (verb == "rank") return handle_rank(*e, request_line);
    if (verb == "simulate") return handle_simulate(request_line);
    if (verb == "stats") return handle_stats(*e);
    if (verb == "plugins") return handle_plugins();
    if (verb == "help" || verb.empty()) return help_text();
    errors_->inc();
    return "error unknown verb '" + verb + "' (try: help)\n";
  } catch (const std::exception& e) {
    errors_->inc();
    return std::string("error ") + e.what() + "\n";
  }
}

std::size_t QueryService::serve(std::istream& in, std::ostream& out) {
  std::size_t served = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line == "quit" || line == "exit") break;
    if (line.empty()) continue;
    out << handle(line);
    out.flush();
    ++served;
  }
  return served;
}

std::string QueryService::handle_recommend(const Engine& engine,
                                           const std::string& line) {
  const auto kv = parse_pairs(line);
  const auto obj_it = kv.find("objective");
  const core::Objective objective =
      obj_it == kv.end() ? core::Objective::kPerformance
                         : parse_objective(obj_it->second);
  const auto k_it = kv.find("top_k");
  const std::size_t top_k =
      k_it == kv.end() ? 3 : parse_count("top_k", k_it->second);
  const auto traits = parse_workload_query(line);

  // Optional fs= filter: restrict the candidate pool to one registered
  // filesystem.  An unknown name throws the registry's PluginError
  // listing the registered filesystems.
  const auto fs_it = kv.find("fs");
  std::vector<cloud::IoConfig> candidates;
  if (fs_it != kv.end()) {
    const auto& substrate = plugin::filesystem_named(fs_it->second);
    for (const auto& c : cloud::IoConfig::enumerate_candidates()) {
      if (c.fs == &substrate) candidates.push_back(c);
    }
    if (candidates.empty()) {
      throw Error("no candidate configs for filesystem '" + substrate.name +
                  "' (registered, but not in the default grid)");
    }
  } else {
    candidates = cloud::IoConfig::enumerate_candidates();
  }

  // Optional learner= selection; defaults to the snapshot's primary.
  // An unregistered name throws the registry's PluginError; a
  // registered name this snapshot did not train is a typed error
  // listing what *is* trained.
  const auto learner_it = kv.find("learner");
  const std::string learner = learner_it != kv.end()
                                  ? learner_it->second
                                  : engine.primary_learner();
  plugin::learners().lookup(learner);
  const core::Acic* model = engine.model_for(objective, learner);
  if (model == nullptr) {
    if (learner_it != kv.end()) throw untrained_learner_error(engine, learner);
    // No trained snapshot: degrade gracefully to the PB screening
    // ranking instead of erroring out.
    fallback_answers_->inc();
    return fallback_recommend(engine, objective, top_k);
  }
  // Optional restart-aware ranking: chaos=<preset> (or an explicit
  // preemptions= rate) arms a PreemptionModel, so the ranking trades raw
  // bandwidth against checkpoint-dump and recovery economics under the
  // given spot terms.
  core::PreemptionModel preemption;
  if (const auto chaos_it = kv.find("chaos"); chaos_it != kv.end()) {
    preemption.preemptions_per_hour = plugin::fault_models()
                                          .lookup(chaos_it->second)
                                          .model.preemptions_per_hour;
  }
  if (const auto it = kv.find("preemptions"); it != kv.end()) {
    preemption.preemptions_per_hour =
        parse_nonneg_double("preemptions", it->second);
  }
  if (const auto it = kv.find("checkpoint_interval"); it != kv.end()) {
    preemption.checkpoint_interval =
        parse_nonneg_double("checkpoint_interval", it->second);
  }
  if (const auto it = kv.find("checkpoint_bytes"); it != kv.end()) {
    preemption.checkpoint_bytes = parse_size(it->second);
  }
  if (const auto it = kv.find("spot_factor"); it != kv.end()) {
    preemption.spot.price_factor =
        parse_nonneg_double("spot_factor", it->second);
  }
  if (const auto it = kv.find("restart_cost"); it != kv.end()) {
    preemption.spot.per_restart_cost =
        parse_nonneg_double("restart_cost", it->second);
  }
  const auto recs =
      preemption.active()
          ? model->recommend(traits, preemption, top_k, candidates)
          : model->recommend(traits, top_k, candidates);
  std::ostringstream os;
  os << "ok " << recs.size() << " recommendations (objective="
     << core::to_string(objective);
  if (learner_it != kv.end()) os << ", learner=" << learner;
  if (fs_it != kv.end()) os << ", fs=" << fs_it->second;
  if (preemption.active()) os << ", preemption_adjusted=yes";
  os << ")\n";
  for (const auto& r : recs) {
    os << "  " << r.config.label() << " predicted_improvement="
       << r.predicted_improvement << "\n";
  }
  return os.str();
}

Error QueryService::untrained_learner_error(const Engine& engine,
                                            const std::string& learner) {
  std::string trained;
  for (const auto& [name, set] : engine.models) {
    if (!trained.empty()) trained += ", ";
    trained += name;
  }
  return Error("learner '" + learner +
               "' is not trained in this snapshot (trained: " +
               (trained.empty() ? "none" : trained) + ")");
}

std::string QueryService::fallback_recommend(const Engine& engine,
                                             core::Objective objective,
                                             std::size_t top_k) {
  // Score each candidate by the PB effects of its system levels: the
  // effects are signed impacts on log(time) (positive = a higher level
  // slows the job down), so a candidate whose high-valued dimensions
  // carry negative effects scores well.  Workload traits play no role —
  // this is a workload-agnostic prior, which is exactly what the paper's
  // screening phase provides before any model exists.
  const auto& effects = engine.ranking.effects;
  struct Scored {
    double score = 0.0;
    const cloud::IoConfig* config = nullptr;
  };
  const auto candidates = cloud::IoConfig::enumerate_candidates();
  std::vector<Scored> scored;
  scored.reserve(candidates.size());
  io::Workload neutral;  // defaults; only system dims are scored anyway
  for (const auto& c : candidates) {
    const core::Point p = core::ParamSpace::encode(c, neutral);
    double score = 0.0;
    for (const auto& d : core::ParamSpace::dimensions()) {
      if (!d.is_system) continue;
      const auto dim = static_cast<std::size_t>(d.dim);
      if (dim >= effects.size()) continue;
      const double lo = core::ParamSpace::low(d.dim);
      const double hi = core::ParamSpace::high(d.dim);
      if (hi <= lo) continue;
      // Normalise the level to [-1, 1] (the PB design's coding).
      const double level = 2.0 * (p[dim] - lo) / (hi - lo) - 1.0;
      score += -effects[dim] * level;
    }
    scored.push_back({score, &c});
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     return a.score > b.score;
                   });
  const std::size_t n = std::min(top_k, scored.size());
  std::ostringstream os;
  os << "ok " << n << " recommendations (objective="
     << core::to_string(objective) << ", fallback=pb-ranking)\n";
  for (std::size_t i = 0; i < n; ++i) {
    os << "  " << scored[i].config->label() << " pb_score="
       << scored[i].score << "\n";
  }
  return os.str();
}

std::string QueryService::handle_predict(const Engine& engine,
                                         const std::string& line) {
  const auto kv = parse_pairs(line);
  const auto cfg_it = kv.find("config");
  ACIC_CHECK_MSG(cfg_it != kv.end(), "predict needs config=<label>");
  const auto config = config_by_label(cfg_it->second);
  const auto obj_it = kv.find("objective");
  const core::Objective objective =
      obj_it == kv.end() ? core::Objective::kPerformance
                         : parse_objective(obj_it->second);
  const auto traits = parse_workload_query(line);
  const auto learner_it = kv.find("learner");
  const std::string learner = learner_it != kv.end()
                                  ? learner_it->second
                                  : engine.primary_learner();
  plugin::learners().lookup(learner);  // typed unknown-learner error
  const core::Acic* model = engine.model_for(objective, learner);
  if (model == nullptr && learner_it != kv.end()) {
    throw untrained_learner_error(engine, learner);
  }
  ACIC_CHECK_MSG(model != nullptr,
                 "no trained model snapshot available (empty training "
                 "database?); try recommend for a PB-ranking fallback");
  const double improvement = model->predict(config, traits);
  std::ostringstream os;
  os << "ok predicted_improvement=" << improvement << " config="
     << config.label() << " objective=" << core::to_string(objective);
  if (learner_it != kv.end()) os << " learner=" << learner;
  os << "\n";
  return os.str();
}

std::string QueryService::handle_simulate(const std::string& line) {
  const auto kv = parse_pairs(line);
  const auto cfg_it = kv.find("config");
  ACIC_CHECK_MSG(cfg_it != kv.end(), "simulate needs config=<label>");
  const auto config = config_by_label(cfg_it->second);
  const auto traits = parse_workload_query(line);

  io::RunOptions opts;
  const auto get = [&kv](const char* key) {
    const auto it = kv.find(key);
    return it == kv.end() ? static_cast<const std::string*>(nullptr)
                          : &it->second;
  };
  // chaos=<preset> seeds the whole fault model from a registered plugin
  // (unknown names throw the registry's PluginError listing the
  // presets); the explicit fields below still override per knob.
  if (const auto* v = get("chaos")) {
    opts.fault_model = plugin::fault_models().lookup(*v).model;
  }
  if (const auto* v = get("seed")) opts.seed = parse_count("seed", *v);
  if (const auto* v = get("failures")) {
    opts.fault_model.outages_per_hour = parse_nonneg_double("failures", *v);
  }
  if (const auto* v = get("brownouts")) {
    opts.fault_model.brownouts_per_hour =
        parse_nonneg_double("brownouts", *v);
  }
  if (const auto* v = get("brownout_fraction")) {
    opts.fault_model.brownout_fraction =
        parse_nonneg_double("brownout_fraction", *v);
  }
  if (const auto* v = get("stragglers")) {
    opts.fault_model.stragglers_per_hour =
        parse_nonneg_double("stragglers", *v);
  }
  if (const auto* v = get("straggler_factor")) {
    opts.fault_model.straggler_factor =
        parse_nonneg_double("straggler_factor", *v);
  }
  if (const auto* v = get("correlated")) {
    opts.fault_model.correlated_outage_probability =
        parse_nonneg_double("correlated", *v);
  }
  if (const auto* v = get("permanent")) {
    opts.fault_model.permanent_loss_probability =
        parse_nonneg_double("permanent", *v);
  }
  if (const auto* v = get("retry")) {
    opts.tuning.retry.enabled = parse_bool(*v);
  }
  if (const auto* v = get("timeout")) {
    opts.tuning.retry.request_timeout = parse_nonneg_double("timeout", *v);
  }
  if (const auto* v = get("attempts")) {
    opts.tuning.retry.max_attempts =
        parse_int_field("attempts", *v);
  }
  if (const auto* v = get("watchdog")) {
    opts.watchdog_sim_time = parse_nonneg_double("watchdog", *v);
  }
  if (const auto* v = get("preemptions")) {
    opts.fault_model.preemptions_per_hour =
        parse_nonneg_double("preemptions", *v);
  }
  if (const auto* v = get("notice")) {
    opts.fault_model.preemption_notice = parse_nonneg_double("notice", *v);
  }
  if (const auto* v = get("checkpoint")) {
    opts.checkpoint.enabled = parse_bool(*v);
  }
  if (const auto* v = get("checkpoint_interval")) {
    opts.checkpoint.interval =
        parse_nonneg_double("checkpoint_interval", *v);
  }
  if (const auto* v = get("checkpoint_bytes")) {
    opts.checkpoint.bytes = parse_size(*v);
    // Naming a dump size is opting into the periodic dumps.
    opts.checkpoint.enabled = true;
  }
  if (const auto* v = get("max_restarts")) {
    opts.checkpoint.max_restarts = parse_int_field("max_restarts", *v);
  }
  if (const auto* v = get("spot")) {
    if (parse_bool(*v)) opts.spot_pricing.emplace();
  }
  if (const auto* v = get("spot_factor")) {
    if (!opts.spot_pricing) opts.spot_pricing.emplace();
    opts.spot_pricing->price_factor = parse_nonneg_double("spot_factor", *v);
  }
  if (const auto* v = get("restart_cost")) {
    if (!opts.spot_pricing) opts.spot_pricing.emplace();
    opts.spot_pricing->per_restart_cost =
        parse_nonneg_double("restart_cost", *v);
  }
  ACIC_CHECK_MSG(opts.fault_model.valid(), "invalid fault model");
  ACIC_CHECK_MSG(opts.tuning.retry.valid(), "invalid retry policy");
  ACIC_CHECK_MSG(opts.checkpoint.valid(), "invalid checkpoint policy");

  // Through the engine: a simulate verb repeated with identical
  // parameters — or one matching a run a training sweep already did —
  // answers from the run cache instead of burning a fresh simulation.
  const auto r = exec::Executor::global().run(
      exec::RunRequest{traits, config, opts});
  std::ostringstream os;
  os << "ok time=" << r.total_time << " cost=" << r.cost
     << " outcome=" << io::to_string(r.outcome) << " retries=" << r.retries
     << " timeouts=" << r.timeouts << " failed_requests="
     << r.failed_requests << " cancelled_fault_events="
     << r.fault_events_cancelled << " preemptions=" << r.preemptions
     << " restarts=" << r.restarts << " lost_time=" << r.lost_sim_time
     << " checkpoint_bytes=" << r.checkpoint_bytes
     << " sim_events=" << r.sim_events << "\n";
  return os.str();
}

std::string QueryService::handle_rank(const Engine& engine,
                                      const std::string& line) {
  const auto kv = parse_pairs(line);
  const auto top_it = kv.find("top");
  std::size_t top = top_it == kv.end()
                        ? engine.ranking.importance.size()
                        : parse_count("top", top_it->second);
  top = std::min(top, engine.ranking.importance.size());
  std::ostringstream os;
  os << "ok " << top << " dimensions by PB importance\n";
  for (std::size_t i = 0; i < top; ++i) {
    const auto dim = static_cast<core::Dim>(engine.ranking.importance[i]);
    os << "  " << (i + 1) << ". "
       << core::ParamSpace::dimension(dim).name << "\n";
  }

  // Opt-in model-side section: one batch prediction over every candidate
  // config ranks the *system* dimensions by how much the trained model
  // thinks they matter for the given workload (defaults if no workload
  // keys are supplied).  Opt-in keeps the default response stable for
  // existing clients.
  const auto model_it = kv.find("model");
  if (model_it != kv.end() && parse_bool(model_it->second)) {
    const auto obj_it = kv.find("objective");
    const core::Objective objective =
        obj_it == kv.end() ? core::Objective::kPerformance
                           : parse_objective(obj_it->second);
    const core::Acic* model = engine.model_for(objective);
    ACIC_CHECK_MSG(model != nullptr,
                   "no trained model snapshot for the model-spread section "
                   "(empty training database?)");
    const auto traits = parse_workload_query(line);
    const auto spreads = core::model_dimension_spread(*model, traits);
    os << "  model spread (objective=" << core::to_string(objective)
       << ", workload-specific, higher = more impact)\n";
    for (std::size_t i = 0; i < spreads.size(); ++i) {
      os << "  " << (i + 1) << ". " << spreads[i].name
         << " spread=" << spreads[i].spread << "\n";
    }
  }
  return os.str();
}

std::string QueryService::handle_stats(const Engine& engine) {
  std::ostringstream os;
  os << "ok database=" << engine.database.size() << " samples, "
     << cloud::IoConfig::enumerate_candidates().size()
     << " candidate configs, mode="
     << (engine.degraded() ? "fallback" : "full") << "\n";
  std::string trained;
  for (const auto& [name, set] : engine.models) {
    if (!trained.empty()) trained += ",";
    trained += name;
  }
  os << "  learners=" << (trained.empty() ? "none" : trained)
     << " primary=" << engine.primary_learner() << "\n";
  for (const auto& info : plugin::inventory()) {
    os << "  plugin " << info.summary << "\n";
  }
  os << obs::MetricsRegistry::global().snapshot().to_text("  ");
  return os.str();
}

std::string QueryService::handle_plugins() {
  const auto inv = plugin::inventory();
  std::ostringstream os;
  os << "ok " << inv.size() << " plugins registered\n";
  for (const auto& info : inv) {
    os << "  " << info.summary << "\n";
  }
  // A healthy binary has none of these; surfacing them here is what
  // keeps "registration never aborts" honest.
  for (const auto& err : plugin::registration_errors()) {
    os << "  registration-error " << err << "\n";
  }
  return os.str();
}

std::string QueryService::help_text() {
  return
      "ok commands\n"
      "  recommend objective=performance|cost top_k=N [learner=<name>]\n"
      "            [fs=<name>] [chaos=<preset>|preemptions=R\n"
      "            checkpoint_interval=S checkpoint_bytes=SZ spot_factor=F\n"
      "            restart_cost=$] <workload keys>\n"
      "  predict config=<label> objective=... [learner=<name>]\n"
      "          <workload keys>\n"
      "  rank [top=N] [model=yes objective=... <workload keys>]\n"
      "  simulate config=<label> <workload keys> [chaos=<preset>]\n"
      "           [chaos keys]\n"
      "  stats\n"
      "  plugins   (registered substrates: filesystems, learners,\n"
      "             fault-model presets, pricing models)\n"
      "  workload keys: np io_procs interface iterations data request op\n"
      "                 collective shared (sizes like 4MiB, 256KiB)\n"
      "  chaos keys: seed failures brownouts brownout_fraction stragglers\n"
      "              straggler_factor correlated permanent preemptions\n"
      "              notice retry timeout attempts watchdog checkpoint\n"
      "              checkpoint_interval checkpoint_bytes max_restarts\n"
      "              spot spot_factor restart_cost (rates per hour;\n"
      "              retry=yes arms deadline/backoff; checkpoint=yes or a\n"
      "              checkpoint_bytes size arms periodic dumps; spot=yes\n"
      "              bills at the spot discount plus per-restart fees;\n"
      "              seeded runs are reproducible)\n"
      "  learner/fs/chaos names resolve through the plugin registry;\n"
      "  unknown names answer with the registered list\n";
}

}  // namespace acic::service
