// Open-loop load generation over the acic::net framed protocol.
//
// An open loop sends on a schedule regardless of how fast answers come
// back, so a stalled server grows a queue instead of slowing the load.
// Every request is therefore timed from when it was *due*, not from
// when it was written: a stall charges its wait to every request that
// fell due behind it.  The generator's own lag (noticing a due request
// late) is reported separately as lateness.
//
// One generator thread drives up to `connections` non-blocking sockets.
// Each connection carries one request at a time (the server may answer
// pipelined requests out of order, and the protocol has no request id),
// so a request that falls due while every connection is busy waits in a
// FIFO; that wait is part of its latency.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace e2e {

/// Seeded Poisson arrival offsets, seconds from the phase start, for
/// `rate` requests/s over `duration` seconds.  Same seed, same schedule.
std::vector<double> poisson_arrivals(double rate, double duration,
                                     std::uint64_t seed);

/// Due-time bookkeeping of one open-loop phase.  Times are seconds since
/// the phase start.
class OpenLoopLedger {
 public:
  explicit OpenLoopLedger(std::vector<double> due);

  std::size_t size() const { return due_.size(); }
  double due(std::size_t i) const { return due_[i]; }
  /// The generator saw request i fall due at `t`.
  void noticed(std::size_t i, double t) { noticed_[i] = t; }
  /// Request i was written to a connection at `t`.
  void sent(std::size_t i, double t) { sent_[i] = t; }
  /// Request i was answered at `t`; `ok` = well-formed `ok` response.
  void done(std::size_t i, double t, bool ok);

  /// Latency from due time, ms, of every request answered ok.
  std::vector<double> latency_ms() const;
  /// Answer time minus write time of request i, ms; -1 unless it was
  /// answered ok.
  double round_trip_ms(std::size_t i) const;
  /// Generator lateness (noticed minus due), ms, of every noticed request.
  std::vector<double> lateness_ms() const;
  double max_lateness_ms() const;

  std::size_t answered_ok() const;
  /// Requests answered with something other than a well-formed `ok`.
  std::size_t malformed() const;
  /// Requests not answered ok: refused, malformed or never answered.
  std::size_t failed() const { return size() - answered_ok(); }

 private:
  std::vector<double> due_;
  std::vector<double> noticed_;
  std::vector<double> sent_;
  std::vector<double> done_;
  std::vector<char> ok_;
};

/// Generator side of the load: non-blocking framed connections to
/// 127.0.0.1:`port`.
class OpenLoopClient {
 public:
  /// Connects `connections` sockets; throws acic::Error on failure.
  OpenLoopClient(std::uint16_t port, std::size_t connections);
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;
  ~OpenLoopClient();

  /// Called with (request index, response payload); returns whether the
  /// response is well formed.
  using Checker = std::function<bool(std::size_t, const std::string&)>;

  /// Sends `lines[i]` when `ledger.due(i)` comes, then waits for every
  /// answer until `drain_s` past the last due time.  Unanswered requests
  /// stay failed in the ledger.
  void run(OpenLoopLedger& ledger, const std::vector<std::string>& lines,
           double drain_s, const Checker& check);

 private:
  struct Conn;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace e2e
