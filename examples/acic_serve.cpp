// Concurrent ACIC query server — the production-shaped front end over
// acic::service::QueryService.  Two transports:
//
//  * stdin/stdout (default): protocol lines are read until EOF or
//    "quit", each answered in order before the next is read
//    (QueryService::serve).
//  * --listen host:port: the acic::net epoll front end — framed
//    requests over TCP with backpressure, idle deadlines, bounded
//    dispatch, and graceful drain (see src/acic/net/server.hpp).
//    bench/acic_slap is the matching load generator.
//
// Usage:
//   example_acic_serve [training_db.csv] [--listen host:port]
//                      [--threads N] [--max-inflight N]
//                      [--deadline-us X] [--idle-ms N] [--drain-ms N]
//                      [--max-conns N] [--net-queue N] [--quick]
//                      [--demo] [--help]
//
// --max-inflight bounds admission: requests beyond N concurrently running
// ones get a typed "shed ..." response instead of queuing.  --deadline-us
// arms the per-request compute deadline ("timeout ..." responses); in
// --listen mode the clock starts when the frame arrives, so queue wait
// counts.  --threads sizes the --listen worker pool (0 = hardware
// concurrency).  --quick skips PB screening and model training (identity
// ranking, empty database → fallback answers) so smoke tests and the CI
// loopback job start in milliseconds instead of minutes.
//
// Signals: SIGPIPE is ignored (a dead peer must not kill the server);
// SIGINT/SIGTERM route into the drain path — in --listen mode the
// listener closes, in-flight requests finish under the drain deadline,
// and the process exits 0; in stdin mode the blocking read is
// interrupted and the process exits 0.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "acic/core/ranking.hpp"
#include "acic/net/server.hpp"
#include "acic/obs/metrics.hpp"
#include "acic/plugin/substrates.hpp"
#include "acic/service/query_service.hpp"

namespace {

void print_usage() {
  std::printf(
      "usage: example_acic_serve [training_db.csv] [--listen host:port]\n"
      "                          [--threads N]\n"
      "                          [--max-inflight N] [--deadline-us X]\n"
      "                          [--idle-ms N] [--drain-ms N]\n"
      "                          [--max-conns N] [--net-queue N]\n"
      "                          [--learner NAME[,NAME...]]\n"
      "                          [--quick] [--demo] [--help]\n"
      "  Serves the line-oriented ACIC query protocol from stdin, one\n"
      "  answer per line in order; 'help' on the stream lists the verbs.\n"
      "  --listen host:port  framed-TCP front end instead of stdin\n"
      "  --threads N       net: worker pool size (0 = hardware)\n"
      "  --max-inflight N  shed requests beyond N in flight (0 = off)\n"
      "  --deadline-us X   per-request deadline incl. queue wait (0 = off)\n"
      "  --idle-ms N       net: idle/slow-loris/write-stall deadline\n"
      "  --drain-ms N      net: drain budget after SIGTERM/SIGINT\n"
      "  --max-conns N     net: connection cap\n"
      "  --net-queue N     net: bounded dispatch queue depth\n"
      "  --learner NAMES   learner plugin(s) to train, comma-separated;\n"
      "                    the first is the primary (default: cart)\n"
      "  --quick           no PB screening / training (fallback mode)\n"
      "  SIGINT/SIGTERM drain gracefully and exit 0 in both modes.\n"
      "\n"
      "registered plugins:\n");
  for (const auto& info : acic::plugin::inventory()) {
    std::printf("  %s\n", info.summary.c_str());
  }
  for (const auto& err : acic::plugin::registration_errors()) {
    std::printf("  registration-error %s\n", err.c_str());
  }
}

// Signal routing: handlers may only touch async-signal-safe state.  In
// --listen mode they forward into Server::request_drain() (an atomic
// store plus send() on the wake socketpair); in stdin mode the unblocked
// read returns EINTR, std::getline fails, and serve() returns.
std::sig_atomic_t g_stop_requested = 0;
acic::net::Server* g_server = nullptr;

void handle_stop_signal(int) {
  g_stop_requested = 1;
  if (g_server != nullptr) g_server->request_drain();
}

void install_signal_handlers() {
  std::signal(SIGPIPE, SIG_IGN);
  struct sigaction sa{};
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: the stdin read must return EINTR
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

/// --quick: a do-nothing ranking (identity importance, zero effects) so
/// the service starts without running the PB screening simulations.
acic::core::PbRankingResult identity_ranking() {
  acic::core::PbRankingResult r;
  for (int d = 0; d < acic::core::kNumDims; ++d) {
    r.importance.push_back(d);
    r.rank_of_each.push_back(d + 1);
    r.effects.push_back(0.0);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace acic;

  std::string db_path;
  std::string listen_spec;
  bool demo = false;
  bool quick = false;
  service::ServiceOptions service_options;
  net::ServerOptions net_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--demo") {
      demo = true;
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--listen" && i + 1 < argc) {
      listen_spec = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      net_options.workers = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (arg == "--max-inflight" && i + 1 < argc) {
      service_options.max_in_flight =
          static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--deadline-us" && i + 1 < argc) {
      service_options.deadline_us = std::atof(argv[++i]);
    } else if (arg == "--idle-ms" && i + 1 < argc) {
      net_options.idle_timeout_ms = std::atol(argv[++i]);
    } else if (arg == "--drain-ms" && i + 1 < argc) {
      net_options.drain_timeout_ms = std::atol(argv[++i]);
    } else if (arg == "--max-conns" && i + 1 < argc) {
      net_options.max_connections =
          static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--net-queue" && i + 1 < argc) {
      net_options.max_queue_depth =
          static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--learner" && i + 1 < argc) {
      service_options.learners.clear();
      std::string names = argv[++i];
      std::size_t start = 0;
      while (start <= names.size()) {
        const std::size_t comma = names.find(',', start);
        const std::string name =
            names.substr(start, comma == std::string::npos ? std::string::npos
                                                           : comma - start);
        if (!name.empty()) service_options.learners.push_back(name);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      if (service_options.learners.empty()) {
        std::fprintf(stderr, "error: --learner needs at least one name\n");
        return 1;
      }
    } else {
      db_path = arg;
    }
  }

  install_signal_handlers();

  core::PbRankingResult ranking;
  if (quick) {
    std::fprintf(stderr, "[serve] --quick: identity ranking, no PB run\n");
    ranking = identity_ranking();
  } else {
    std::fprintf(stderr, "[serve] PB screening...\n");
    ranking = core::run_pb_ranking();
  }

  core::TrainingDatabase db;
  if (!db_path.empty()) {
    db = core::TrainingDatabase::load(db_path);
    std::fprintf(stderr, "[serve] loaded %zu shared samples from %s\n",
                 db.size(), db_path.c_str());
  } else if (quick) {
    std::fprintf(stderr,
                 "[serve] --quick: empty database (fallback answers)\n");
  } else {
    std::fprintf(stderr, "[serve] bootstrapping training database...\n");
    core::TrainingPlan plan;
    plan.dim_order = ranking.importance;
    plan.top_dims = 12;
    plan.max_samples = 300;
    core::collect_training_data(db, plan);
  }

  std::fprintf(stderr, "[serve] training models (%s)...\n",
               [&] {
                 std::string names;
                 for (const auto& n : service_options.learners) {
                   if (!names.empty()) names += ",";
                   names += n;
                 }
                 return names;
               }()
                   .c_str());
  std::optional<service::QueryService> service;
  try {
    service.emplace(std::move(db), std::move(ranking), service_options);
  } catch (const std::exception& e) {
    // e.g. a --learner typo: the registry's error lists what exists.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (demo) {
    // A mixed burst: the requests a load balancer would fan in, eight
    // rounds of them, so the stats block below has counts to show.
    const std::vector<std::string> burst = {
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
    };
    for (int repeat = 0; repeat < 8; ++repeat) {
      for (const auto& request : burst) {
        const std::string response = service->handle(request);
        if (repeat == 0) {
          std::printf("> %s\n%s", request.c_str(), response.c_str());
        }
      }
    }
    std::printf("> stats\n%s", service->handle("stats").c_str());
    return 0;
  }

  if (!listen_spec.empty()) {
    const auto colon = listen_spec.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "error: --listen expects host:port, got %s\n",
                   listen_spec.c_str());
      return 1;
    }
    net_options.host = listen_spec.substr(0, colon);
    net_options.port = static_cast<std::uint16_t>(
        std::atoi(listen_spec.c_str() + colon + 1));
    try {
      net::Server server(net_options, [&service](const net::Request& req) {
        return service->handle(req.line, req.received_at);
      });
      g_server = &server;
      if (g_stop_requested) server.request_drain();  // signal beat us here
      std::fprintf(stderr, "[serve] listening on %s:%u (framed protocol)\n",
                   net_options.host.c_str(), server.port());
      server.run();
      g_server = nullptr;
      std::fprintf(stderr, "[serve] drained; final metrics:\n%s",
                   obs::MetricsRegistry::global()
                       .snapshot()
                       .to_text("  ")
                       .c_str());
    } catch (const std::exception& e) {
      g_server = nullptr;
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  std::fprintf(stderr, "[serve] ready — protocol lines on stdin.\n");
  const std::size_t served = service->serve(std::cin, std::cout);
  if (g_stop_requested) std::fprintf(stderr, "[serve] stop signal.\n");
  std::fprintf(stderr, "[serve] served %zu requests; final metrics:\n%s",
               served,
               obs::MetricsRegistry::global().snapshot().to_text("  ").c_str());
  return 0;
}
