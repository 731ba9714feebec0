// The serving phase of cold_start: what the freshly trained engine does
// once it is ready.
//
// An in-process net::Server over a QueryService trained (learners `cart`
// and `forest`) on the cold run's database and PB ranking.  Time to
// ready is timed first: train the service, bind, first `ok` answer.
// Then one open-loop window: one generator thread, seeded Poisson
// arrivals at a fixed rate over min(4, nproc) connections, each request
// timed from its due time.  Beside the reads, an updater thread calls
// update_database with fixed batches of held-back samples at fixed
// intervals.
//
// The requests are the repository's recorded serving traffic: the
// `example_acic_serve --demo` burst ("the same requests a load balancer
// would fan in") and the `stats` that follows it, each drawn with equal
// probability.  That equal mix is an assumption, not a measurement:
// nothing in the repository records how often each verb is asked.  No
// `simulate`, so simcore stays out of the tail.
//
// Its figures are per-layer metrics only: on a shared 4-vCPU host the
// open-loop latencies moved several-fold between runs (p90 at 2000
// req/s read 0.33-0.52 ms in quiet stretches and 1-6 ms in busy ones),
// far past any regression bound.
#include <algorithm>
#include <mutex>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "acic/core/ranking.hpp"
#include "acic/core/training.hpp"
#include "acic/net/client.hpp"
#include "acic/net/server.hpp"
#include "acic/service/query_service.hpp"
#include "loadgen.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace acic;

namespace {

constexpr double kRate = 2000;  // offered requests/s
constexpr double kDrainS = 1.0;
constexpr int kReadyRepeats = 9;
constexpr std::size_t kHeldBack = 16;  // fed back in kUpdates batches
constexpr int kUpdates = 4;

const char* const kVerbs[] = {"recommend", "predict", "rank", "stats"};
constexpr std::size_t kNumVerbs = 4;

// examples/acic_serve.cpp, --demo: the burst, then `stats`.
const char* const kRequestLines[] = {
    "recommend objective=performance top_k=3 np=256 io_procs=256 "
    "interface=MPI-IO iterations=40 data=4MiB request=4MiB op=write "
    "collective=yes shared=yes",
    "recommend objective=cost top_k=2 np=64 io_procs=64 "
    "interface=POSIX iterations=1 data=1344MiB request=1MiB op=read "
    "shared=no",
    "predict config=pvfs.4.D.eph.4M np=64 io_procs=64 "
    "interface=MPI-IO iterations=2 data=256MiB request=64MiB "
    "op=read+write shared=yes",
    "rank top=5",
    "stats",
};

/// Index into kVerbs of a request line's verb; -1 for none.
int verb_of(const std::string& line) {
  for (std::size_t v = 0; v < kNumVerbs; ++v) {
    if (line.rfind(kVerbs[v], 0) == 0) return static_cast<int>(v);
  }
  return -1;
}

/// What the handler wrapper saw for one tagged request.
struct HandlerRecord {
  int verb = -1;
  Clock::time_point received;
  Clock::time_point start;
  Clock::time_point end;
};

/// Requests carry a benchmark tag " @<id>"; the wrapper strips it before
/// the service sees the line and files the timing under that id.  Each
/// id is written by one worker; the records are read only after the
/// server's workers are joined.
net::Handler tagged_handler(service::QueryService& svc,
                            std::vector<HandlerRecord>& records,
                            Tracer& tracer) {
  return [&svc, &records, &tracer](const net::Request& req) {
    const auto start = Clock::now();
    std::string line = req.line;
    long id = -1;
    if (const auto at = line.rfind(" @"); at != std::string::npos) {
      id = std::strtol(line.c_str() + at + 2, nullptr, 10);
      line.resize(at);
    }
    Span span(tracer, "service.handle");
    std::string response = svc.handle(line, req.received_at);
    span.end();
    if (id >= 0 && static_cast<std::size_t>(id) < records.size()) {
      records[id] =
          HandlerRecord{verb_of(line), req.received_at, start, Clock::now()};
    }
    return response;
  };
}

/// A running server over a service, on its own loop thread.
struct Serving {
  std::unique_ptr<service::QueryService> service;
  std::unique_ptr<net::Server> server;
  std::thread loop;

  Serving() = default;
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;
  ~Serving() { stop(); }
  void stop() {
    if (server) server->request_drain();
    if (loop.joinable()) loop.join();
  }
};

struct Request {
  int verb = 0;
  std::string line;
  std::string config;  ///< predict: the label asked about
};

Request make_request(std::mt19937_64& rng) {
  Request r;
  r.line = kRequestLines[rng() % std::size(kRequestLines)];
  r.verb = verb_of(r.line);
  if (const auto at = r.line.find("config="); at != std::string::npos) {
    r.config = r.line.substr(at + 7, r.line.find(' ', at) - at - 7);
  }
  return r;
}

bool finite_number_after(const std::string& text, const std::string& key) {
  const auto at = text.find(key);
  if (at == std::string::npos) return false;
  const double v = std::strtod(text.c_str() + at + key.size(), nullptr);
  return std::isfinite(v);
}

/// Output check of one served response.
bool well_formed(const Request& req, const std::string& response,
                 const std::set<std::string>& labels) {
  if (response.rfind("ok", 0) != 0) return false;
  std::istringstream lines(response);
  std::string head;
  std::getline(lines, head);
  switch (req.verb) {
    case 0: {  // "ok N recommendations (...)" + N "  <label> predicted_…"
      const long n = std::strtol(head.c_str() + 3, nullptr, 10);
      long rows = 0;
      for (std::string row; std::getline(lines, row); ++rows) {
        std::istringstream fields(row);
        std::string label, improvement;
        fields >> label >> improvement;
        if (!labels.count(label) ||
            !finite_number_after(improvement, "predicted_improvement=")) {
          return false;
        }
      }
      return n >= 1 && rows == n;
    }
    case 1:
      return finite_number_after(head, "predicted_improvement=") &&
             head.find(" config=" + req.config + " ") != std::string::npos;
    case 2: {
      const long n = std::strtol(head.c_str() + 3, nullptr, 10);
      long rows = 0;
      for (std::string row; std::getline(lines, row);) rows += !row.empty();
      return n >= 1 && rows == n &&
             head.find("dimensions by PB importance") != std::string::npos;
    }
    default:
      return head.rfind("ok database=", 0) == 0;
  }
}

/// Interruptible fixed-interval loop for the updater thread.
class Stopper {
 public:
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopped_ = true;
    }
    cv_.notify_all();
  }
  /// Sleeps `s` seconds, or not at all once stop() was called.
  void sleep_for(double s) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::duration<double>(s),
                 [this] { return stopped_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopped_ = false;
};

}  // namespace

void run_serving(const Context& ctx, const core::TrainingDatabase& db,
                 const core::PbRankingResult& ranking, Result& result,
                 Values& values) {
  Tracer& tracer = *ctx.tracer;
  std::set<std::string> labels;
  for (const auto& c : cloud::IoConfig::enumerate_candidates()) {
    labels.insert(c.label());
  }

  // The window's arrivals and requests, and one handler record per
  // tagged request id.
  std::mt19937_64 rng(ctx.seed * 0x9E3779B97F4A7C15ULL + 1);
  OpenLoopLedger ledger(poisson_arrivals(kRate, ctx.seconds, rng()));
  std::vector<Request> reqs;
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    reqs.push_back(make_request(rng));
    lines.push_back(reqs.back().line + " @" + std::to_string(i));
  }
  std::vector<HandlerRecord> records(ledger.size());

  service::ServiceOptions svc_opts;
  svc_opts.learners = {"cart", "forest"};
  net::ServerOptions net_opts;
  net_opts.workers = std::max(1u, ctx.threads / 2);
  net_opts.idle_timeout_ms = 60000;

  core::TrainingDatabase train_db;
  std::vector<core::TrainingSample> held_back;
  const auto& samples = db.samples();
  const std::size_t keep =
      samples.size() > kHeldBack ? samples.size() - kHeldBack : 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i < keep) {
      train_db.insert(samples[i]);
    } else {
      held_back.push_back(samples[i]);
    }
  }
  result.check(held_back.size() == kHeldBack && train_db.size() > 0,
               "training database too small to hold samples back");

  // --- time to ready: train the service, serve, first ok answer ---------
  std::vector<double> ready_s;
  Serving serving;
  for (int rep = 0; rep < kReadyRepeats; ++rep) {
    serving.stop();
    serving.server.reset();
    serving.service.reset();
    Span span(tracer, "service.ready");
    serving.service =
        std::make_unique<service::QueryService>(train_db, ranking, svc_opts);
    serving.server = std::make_unique<net::Server>(
        net_opts, tagged_handler(*serving.service, records, tracer));
    serving.loop = std::thread([&serving] { serving.server->run(); });
    net::BlockingClient probe;
    const bool up = probe.connect("127.0.0.1", serving.server->port()) &&
                    probe.call("stats").value_or("").rfind("ok", 0) == 0;
    result.check(up, "service did not answer its first request");
    ready_s.push_back(span.end());
  }

  // --- writes beside reads -------------------------------------------
  // A jthread, so an exception out of the load still joins it (after
  // its remaining batches) before anything it uses is destroyed.
  Stopper stopper;
  std::vector<double> update_ms;
  std::jthread updater([&] {
    const std::size_t batch = held_back.size() / kUpdates;
    core::TrainingDatabase db = train_db;
    for (int k = 0; k < kUpdates; ++k) {
      stopper.sleep_for(ctx.seconds / (kUpdates + 1));
      for (std::size_t i = k * batch; i < (k + 1) * batch; ++i) {
        db.insert(held_back[i]);
      }
      Span span(tracer, "service.update_database");
      serving.service->update_database(db);
      update_ms.push_back(1e3 * span.end());
    }
  });

  // --- one open-loop window at kRate ------------------------------------
  const CounterDelta counters;
  {
    Span span(tracer, "gen.window");
    OpenLoopClient client(serving.server->port(), ctx.threads);
    client.run(ledger, lines, kDrainS,
               [&](std::size_t i, const std::string& response) {
                 return well_formed(reqs[i], response, labels);
               });
  }
  stopper.stop();
  updater.join();
  serving.stop();  // workers joined: every handler record is final
  result.attempt(ledger.size());
  result.fail(ledger.failed());

  // --- output checks and metrics --------------------------------------
  // Every answer must be a well-formed `ok` (one request in flight per
  // connection never overflows the server's queue, and no deadline is
  // set, so there is no legitimate `shed` or `timeout`).  Requests left
  // unanswered are failed operations, not wrong outputs.
  result.check(ledger.malformed() == 0,
               std::to_string(ledger.malformed()) +
                   " served responses were not a well-formed ok");
  result.check(static_cast<int>(update_ms.size()) == kUpdates &&
                   serving.service->database_size() ==
                       train_db.size() + held_back.size(),
               "update_database did not publish every held-back batch");

  std::vector<double> handle_us[kNumVerbs];
  std::vector<double> queue_us, overhead_us;
  for (std::size_t id = 0; id < records.size(); ++id) {
    const auto& r = records[id];
    if (r.verb < 0) continue;
    const double handle = 1e6 * seconds_between(r.start, r.end);
    handle_us[r.verb].push_back(handle);
    queue_us.push_back(1e6 * seconds_between(r.received, r.start));
    if (const double rtt_ms = ledger.round_trip_ms(id); rtt_ms >= 0.0) {
      overhead_us.push_back(1e3 * rtt_ms - handle);
    }
  }

  const auto latency = ledger.latency_ms();
  const auto tail = tail_percentile(latency);
  std::fprintf(stderr,
               "serving: %zu requests at %g/s, failed=%zu; serve_p50_ms=%.4f "
               "ms serve_p90_ms=%.4f ms serve_p%g_ms=%.4f ms (n=%zu); "
               "lateness_max=%.3f ms; ready_ms=%.3f ms; update %.1f ms\n",
               ledger.size(), kRate, ledger.failed(), median(latency),
               quantile(latency, 0.9), 100 * tail.q, tail.value, tail.n,
               ledger.max_lateness_ms(), 1e3 * median(ready_s),
               median(update_ms));

  values["serve.ready_ms"] = 1e3 * median(ready_s);
  values["serve.p50_ms"] = median(latency);
  values["serve.p90_ms"] = quantile(latency, 0.9);
  values["serve.tail_ms"] = tail.value;
  for (std::size_t v = 0; v < kNumVerbs; ++v) {
    const std::string base = std::string("service.handle_us.") + kVerbs[v];
    values[base + ".p50"] = median(handle_us[v]);
    values[base + ".tail"] = tail_percentile(handle_us[v]).value;
  }
  values["service.queue_wait_us.p50"] = median(queue_us);
  values["service.queue_wait_us.tail"] = tail_percentile(queue_us).value;
  values["net.overhead_us.p50"] = median(overhead_us);
  values["net.overhead_us.tail"] = tail_percentile(overhead_us).value;
  values["service.update_ms"] = median(update_ms);
  values["net.queue_shed"] = counters.delta("net.queue_shed");
  values["gen.lateness_ms.max"] = ledger.max_lateness_ms();
}

}  // namespace e2e
