// In-memory span recorder for the traced run.
//
// The benchmark's own code opens a span around each call it makes into a
// library layer. A span records its name, wall-clock start and end, the
// thread CPU time it consumed (CLOCK_THREAD_CPUTIME_ID; hardware counters
// are not used), its parent, and the id of the task set or request it
// served. Spans stay in memory and are written out once, when the run ends.
//
// Names are "<layer>.<call>" (for example "sim.run_stats"); names starting
// with "bench." mark the benchmark's own grouping spans, which are not a
// layer. A span's self time is its duration minus the part of it that its
// direct children cover; coverage is the layer spans' self time as a share
// of the root spans' duration.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t name{0};    ///< index into SpanRecorder::names()
  std::int32_t parent{-1};  ///< enclosing span, -1 for a root
  std::uint64_t id{0};      ///< task set or request the call served
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::int64_t cpu_ns{0};   ///< thread CPU time between open and close
};

/// Single-threaded: spans nest strictly (open/close in stack order).
class SpanRecorder {
 public:
  SpanRecorder();

  /// Interns `name`; cheap to call once per span site, not per span.
  std::uint32_t intern(std::string_view name);

  /// Opens a span as a child of the innermost open span; returns its index.
  std::size_t open(std::uint32_t name, std::uint64_t id);
  /// Closes the innermost open span, which must be `index`.
  void close(std::size_t index);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  const std::vector<std::string>& names() const noexcept { return names_; }

  /// Writes one CSV line per span (index, name, parent, id, start_ns,
  /// end_ns, cpu_ns). Returns false when the file cannot be written.
  bool write_csv(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::vector<std::int32_t> stack_;
};

/// RAII span on a recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::uint32_t name, std::uint64_t id)
      : rec_(rec), index_(rec.open(name, id)) {}
  ~ScopedSpan() { rec_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::size_t index_;
};

/// Wall self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the span's own interval.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Same rule over thread CPU time (children's CPU time is subtracted).
std::vector<std::int64_t> cpu_self_times(const std::vector<Span>& spans);

/// Sum of root-span durations, in ns.
std::int64_t root_ns(const std::vector<Span>& spans);

struct LayerTime {
  double self_s{0};
  double cpu_s{0};
  std::uint64_t spans{0};
};

/// Self time per span name (and per layer, keyed "<layer>"), skipping roots
/// and "bench." spans.
std::map<std::string, LayerTime> totals_by_name(
    const std::vector<Span>& spans, const std::vector<std::string>& names);
std::map<std::string, LayerTime> totals_by_layer(
    const std::vector<Span>& spans, const std::vector<std::string>& names);

/// Self time of `name` in a totals_by_name map (0 if absent).
double self_s(const std::map<std::string, LayerTime>& totals,
              const std::string& name);

/// Layer spans' self time over the root spans' duration (0 without roots).
double coverage(const std::vector<Span>& spans,
                const std::vector<std::string>& names);

}  // namespace perfbench
