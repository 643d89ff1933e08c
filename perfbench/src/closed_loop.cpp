#include "closed_loop.hpp"

#include <stdexcept>

namespace perfbench {

namespace {

/// A response not back this long after the phase ended counts as missing
/// instead of hanging the benchmark.
constexpr std::chrono::seconds kDrainTimeout{60};

}  // namespace

void ClosedLoop::on_response(std::uint64_t seq, const std::string& line) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  if (phase_ == nullptr) return;
  if (seq < phase_base_ || seq - phase_base_ >= submitted_.size()) {
    ++phase_->stray_answers;
    return;
  }
  const std::size_t slot = static_cast<std::size_t>(seq - phase_base_);
  if (done_[slot] != 0) {
    ++phase_->duplicate_answers;
    return;
  }
  done_[slot] = 1;
  phase_->latency_ms[slot] =
      std::chrono::duration<double, std::milli>(now - submitted_[slot]).count();
  phase_->responses[slot] = line;
  last_answer_ = now;
  --in_flight_;
  answered_.notify_all();
}

PhaseResult ClosedLoop::run(
    std::size_t outstanding, std::chrono::nanoseconds duration,
    std::size_t min_requests, const std::function<std::uint32_t()>& next,
    const std::function<const std::string&(std::uint32_t)>& line,
    const std::function<std::uint64_t(const std::string&)>& submit) {
  if (outstanding == 0) throw std::invalid_argument("closed loop: 0 callers");
  PhaseResult result;
  std::unique_lock<std::mutex> lock(mutex_);
  // However run() leaves, even by an exception thrown while the lock is
  // released, on_response must stop writing into `result` first.
  struct Detach {
    ClosedLoop* self;
    std::unique_lock<std::mutex>* lock;
    ~Detach() {
      if (!lock->owns_lock()) lock->lock();
      self->phase_ = nullptr;
    }
  } detach{this, &lock};
  phase_ = &result;
  phase_base_ = next_seq_;
  in_flight_ = 0;
  submitted_.clear();
  done_.clear();
  const Clock::time_point start = Clock::now();
  last_answer_ = start;
  const Clock::time_point deadline = start + duration;

  for (;;) {
    answered_.wait(lock, [&] { return in_flight_ < outstanding; });
    if (submitted_.size() >= min_requests && Clock::now() >= deadline) break;
    const std::uint32_t index = next();
    result.request.push_back(index);
    result.latency_ms.push_back(0);
    result.responses.emplace_back();
    done_.push_back(0);
    ++in_flight_;
    const std::uint64_t expected = next_seq_++;
    submitted_.push_back(Clock::now());
    lock.unlock();
    const std::uint64_t seq = submit(line(index));
    lock.lock();
    if (seq != expected) {
      throw std::logic_error(
          "closed loop: the service numbered a request out of turn; the "
          "callers must be its only producer");
    }
  }

  answered_.wait_for(lock, kDrainTimeout, [&] { return in_flight_ == 0; });
  result.seconds =
      std::chrono::duration<double>(last_answer_ - start).count();
  return result;
}

}  // namespace perfbench
