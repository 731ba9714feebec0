#include "trace.hpp"

#include <atomic>
#include <fstream>

namespace e2e {

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next++;
  return index;
}

}  // namespace

std::uint64_t Tracer::next_id() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(std::string_view name, std::uint64_t id,
                    std::uint64_t parent, Clock::time_point start,
                    Clock::time_point end) {
  if (!enabled_) return;
  SpanRecord span{std::string(name), id, parent, start, end, thread_index()};
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const auto us = [this](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << us(s.start) << ", \"dur\": " << us(s.end) - us(s.start)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n]}\n";
}

double Span::end() {
  if (!ended_) {
    end_ = Clock::now();
    ended_ = true;
    tracer_.record(name_, id_, parent_, start_, end_);
  }
  return seconds_between(start_, end_);
}

}  // namespace e2e
