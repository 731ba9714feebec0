#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <random>

#include "acic/common/error.hpp"
#include "acic/net/frame.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace e2e {

std::vector<double> poisson_arrivals(double rate, double duration,
                                     std::uint64_t seed) {
  std::vector<double> due;
  if (rate <= 0.0) return due;
  std::mt19937_64 rng(seed);
  // Inverse-CDF exponential gaps from 53-bit uniforms: unlike
  // std::exponential_distribution, identical on every standard library.
  double t = 0.0;
  for (;;) {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / rate;
    if (t >= duration) return due;
    due.push_back(t);
  }
}

OpenLoopLedger::OpenLoopLedger(std::vector<double> due)
    : due_(std::move(due)),
      noticed_(due_.size(), -1.0),
      sent_(due_.size(), -1.0),
      done_(due_.size(), -1.0),
      ok_(due_.size(), 0) {}

void OpenLoopLedger::done(std::size_t i, double t, bool ok) {
  done_[i] = t;
  ok_[i] = ok;
}

std::vector<double> OpenLoopLedger::latency_ms() const {
  std::vector<double> out;
  for (std::size_t i = 0; i < size(); ++i) {
    if (ok_[i]) out.push_back(1e3 * (done_[i] - due_[i]));
  }
  return out;
}

double OpenLoopLedger::round_trip_ms(std::size_t i) const {
  return ok_[i] ? 1e3 * (done_[i] - sent_[i]) : -1.0;
}

std::vector<double> OpenLoopLedger::lateness_ms() const {
  std::vector<double> out;
  for (std::size_t i = 0; i < size(); ++i) {
    if (noticed_[i] >= 0.0) out.push_back(1e3 * (noticed_[i] - due_[i]));
  }
  return out;
}

double OpenLoopLedger::max_lateness_ms() const {
  const auto late = lateness_ms();
  return late.empty() ? 0.0 : *std::max_element(late.begin(), late.end());
}

std::size_t OpenLoopLedger::answered_ok() const {
  return static_cast<std::size_t>(std::count(ok_.begin(), ok_.end(), 1));
}

std::size_t OpenLoopLedger::malformed() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < size(); ++i) n += done_[i] >= 0.0 && !ok_[i];
  return n;
}

struct OpenLoopClient::Conn {
  int fd = -1;
  acic::net::FrameDecoder decoder;
  std::string out;
  std::size_t out_offset = 0;
  long busy = -1;  ///< index of the outstanding request, -1 when idle
};

OpenLoopClient::OpenLoopClient(std::uint16_t port, std::size_t connections) {
  for (std::size_t c = 0; c < connections; ++c) {
    auto conn = std::make_unique<Conn>();
    conn->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (conn->fd < 0) throw acic::Error("loadgen: socket failed");
    conns_.push_back(std::move(conn));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int fd = conns_.back()->fd;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
            0 &&
        errno != EINPROGRESS) {
      throw acic::Error(std::string("loadgen: connect: ") +
                        std::strerror(errno));
    }
    pollfd p{fd, POLLOUT, 0};
    int err = 0;
    socklen_t len = sizeof err;
    if (::poll(&p, 1, 5000) != 1 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      throw acic::Error("loadgen: connect to port " + std::to_string(port) +
                        " failed");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
}

OpenLoopClient::~OpenLoopClient() {
  for (auto& c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
  }
}

void OpenLoopClient::run(OpenLoopLedger& ledger,
                         const std::vector<std::string>& lines, double drain_s,
                         const Checker& check) {
  const auto start = Clock::now();
  const auto now_s = [start] { return seconds_between(start, Clock::now()); };
  const double give_up = (ledger.size() ? ledger.due(ledger.size() - 1) : 0.0) +
                         drain_s;
  std::size_t next = 0;
  std::size_t outstanding = 0;
  std::deque<std::size_t> waiting;  // due, no idle connection yet
  std::vector<pollfd> fds(conns_.size());
  char buf[64 * 1024];

  for (;;) {
    double t = now_s();
    while (next < ledger.size() && ledger.due(next) <= t) {
      ledger.noticed(next, t);
      waiting.push_back(next++);
    }
    for (auto& c : conns_) {
      if (waiting.empty()) break;
      if (c->busy >= 0 || c->fd < 0) continue;
      const std::size_t i = waiting.front();
      waiting.pop_front();
      c->out += acic::net::encode_frame(lines[i]);
      c->busy = static_cast<long>(i);
      ++outstanding;
      ledger.sent(i, now_s());
    }
    for (auto& c : conns_) {
      while (c->fd >= 0 && c->out_offset < c->out.size()) {
        const ssize_t n =
            ::send(c->fd, c->out.data() + c->out_offset,
                   c->out.size() - c->out_offset, MSG_NOSIGNAL);
        if (n > 0) {
          c->out_offset += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          break;  // EAGAIN: poll for POLLOUT; errors surface on read
        }
      }
      if (c->out_offset == c->out.size()) {
        c->out.clear();
        c->out_offset = 0;
      }
    }
    t = now_s();
    if (next == ledger.size() && waiting.empty() && outstanding == 0) return;
    if (t > give_up) return;

    // Sleep until the next due time, or until a socket is ready.
    double wait_s = give_up - t;
    if (next < ledger.size()) wait_s = std::min(wait_s, ledger.due(next) - t);
    wait_s = std::max(wait_s, 0.0);
    for (std::size_t k = 0; k < conns_.size(); ++k) {
      const auto& c = conns_[k];
      fds[k] = pollfd{c->fd, static_cast<short>(POLLIN | (c->out.empty()
                                                              ? 0
                                                              : POLLOUT)),
                      0};
    }
    const timespec ts{static_cast<time_t>(wait_s),
                      static_cast<long>((wait_s - std::floor(wait_s)) * 1e9)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;

    for (std::size_t k = 0; k < conns_.size(); ++k) {
      auto& c = *conns_[k];
      if (c.fd < 0 || !(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) {
        continue;
      }
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
      if (n <= 0) {  // peer closed: the outstanding request stays failed
        ::close(c.fd);
        c.fd = -1;
        if (c.busy >= 0) --outstanding;
        c.busy = -1;
        continue;
      }
      c.decoder.feed(buf, static_cast<std::size_t>(n));
      for (auto frame = c.decoder.next();
           frame.status == acic::net::FrameDecoder::Status::kFrame;
           frame = c.decoder.next()) {
        if (c.busy < 0) continue;  // unsolicited frame: ignore
        const auto i = static_cast<std::size_t>(c.busy);
        ledger.done(i, now_s(), check(i, frame.payload));
        c.busy = -1;
        --outstanding;
      }
    }
  }
}

}  // namespace e2e
