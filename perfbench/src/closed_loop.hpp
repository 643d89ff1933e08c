// Closed-loop callers for the admission service.
//
// `outstanding` callers each wait for their answer before sending the next
// request, so the service never holds more than `outstanding` of their
// requests. One producer thread submits; responses arrive through
// the service's ordered emit callback, on worker threads. Latency runs from
// just before submit() to the emit of the response, so it includes queue
// wait and the wait in the service's reorder buffer.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct PhaseResult {
  double seconds{0};                ///< first submit to last response
  std::vector<double> latency_ms;   ///< per request, in submit order
  std::vector<std::string> responses;  ///< per request, in submit order
  std::vector<std::uint32_t> request;  ///< pool index of each request
  std::size_t duplicate_answers{0}; ///< responses for an already answered seq
  std::size_t stray_answers{0};     ///< responses for a seq outside the phase
};

class ClosedLoop {
 public:
  /// `first_seq` is the sequence number the service will assign to the
  /// first submit: these callers must be the service's only producer.
  explicit ClosedLoop(std::uint64_t first_seq) : next_seq_(first_seq) {}

  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Emit hook; forward the service's (seq, line) callback here.
  void on_response(std::uint64_t seq, const std::string& line);

  /// Keeps `outstanding` requests in flight until `duration` has passed
  /// (and at least `min_requests` were sent), then waits for every answer.
  /// `next()` returns the pool index of the next request and `line(i)` its
  /// text; `submit(text)` enqueues it and returns the service's sequence.
  PhaseResult run(std::size_t outstanding, std::chrono::nanoseconds duration,
                  std::size_t min_requests,
                  const std::function<std::uint32_t()>& next,
                  const std::function<const std::string&(std::uint32_t)>& line,
                  const std::function<std::uint64_t(const std::string&)>& submit);

  /// Sequence number the next submit will get.
  std::uint64_t next_seq() const noexcept { return next_seq_; }

 private:
  using Clock = std::chrono::steady_clock;

  std::mutex mutex_;
  std::condition_variable answered_;
  std::uint64_t next_seq_;
  std::uint64_t phase_base_{0};
  std::size_t in_flight_{0};
  PhaseResult* phase_{nullptr};  ///< guarded by mutex_
  std::vector<Clock::time_point> submitted_;
  std::vector<char> done_;
  Clock::time_point last_answer_{};
};

}  // namespace perfbench
