#include "spans.hpp"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <tuple>

namespace perfbench {

namespace {

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

bool is_layer_span(const Span& s, const std::vector<std::string>& names) {
  return s.parent >= 0 && names[s.name].rfind("bench.", 0) != 0;
}

}  // namespace

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

std::uint32_t SpanRecorder::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::size_t SpanRecorder::open(std::uint32_t name, std::uint64_t id) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.id = id;
  s.cpu_ns = thread_cpu_ns();
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin_)
                   .count();
  spans_.push_back(s);
  stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  Span& s = spans_[index];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - origin_)
                 .count();
  s.cpu_ns = thread_cpu_ns() - s.cpu_ns;
  if (!stack_.empty() && stack_.back() == static_cast<std::int32_t>(index)) {
    stack_.pop_back();
  }
}

bool SpanRecorder::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("index,name,parent,id,start_ns,end_ns,cpu_ns\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%s,%d,%llu,%lld,%lld,%lld\n", i,
                 names_[s.name].c_str(), s.parent,
                 static_cast<unsigned long long>(s.id),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.cpu_ns));
  }
  return std::fclose(f) == 0;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  // Children sorted by (parent, start): one sweep per parent merges
  // overlapping children so no instant is subtracted twice.
  std::vector<std::tuple<std::int32_t, std::int64_t, std::int64_t>> kids;
  for (const Span& s : spans) {
    if (s.parent >= 0) kids.emplace_back(s.parent, s.start_ns, s.end_ns);
  }
  std::sort(kids.begin(), kids.end());

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = std::max<std::int64_t>(0, spans[i].end_ns - spans[i].start_ns);
  }
  std::int32_t current = -1;
  std::int64_t covered_to = 0;
  for (const auto& [parent, start, end] : kids) {
    const Span& p = spans[static_cast<std::size_t>(parent)];
    if (parent != current) {
      current = parent;
      covered_to = p.start_ns;
    }
    const std::int64_t lo = std::max(start, covered_to);
    const std::int64_t hi = std::min(end, p.end_ns);
    if (hi > lo) {
      self[static_cast<std::size_t>(parent)] -= hi - lo;
      covered_to = hi;
    }
  }
  return self;
}

std::vector<std::int64_t> cpu_self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].cpu_ns;
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.cpu_ns;
  }
  for (std::int64_t& v : self) v = std::max<std::int64_t>(0, v);
  return self;
}

std::int64_t root_ns(const std::vector<Span>& spans) {
  std::int64_t total = 0;
  for (const Span& s : spans) {
    if (s.parent < 0) total += std::max<std::int64_t>(0, s.end_ns - s.start_ns);
  }
  return total;
}

namespace {

template <class KeyOf>
std::map<std::string, LayerTime> totals(const std::vector<Span>& spans,
                                        const std::vector<std::string>& names,
                                        KeyOf key_of) {
  const std::vector<std::int64_t> wall = self_times(spans);
  const std::vector<std::int64_t> cpu = cpu_self_times(spans);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!is_layer_span(spans[i], names)) continue;
    LayerTime& t = out[key_of(names[spans[i].name])];
    t.self_s += static_cast<double>(wall[i]) * 1e-9;
    t.cpu_s += static_cast<double>(cpu[i]) * 1e-9;
    ++t.spans;
  }
  return out;
}

}  // namespace

std::map<std::string, LayerTime> totals_by_name(
    const std::vector<Span>& spans, const std::vector<std::string>& names) {
  return totals(spans, names, [](const std::string& n) { return n; });
}

std::map<std::string, LayerTime> totals_by_layer(
    const std::vector<Span>& spans, const std::vector<std::string>& names) {
  return totals(spans, names,
                [](const std::string& n) { return n.substr(0, n.find('.')); });
}

double self_s(const std::map<std::string, LayerTime>& totals,
              const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.self_s;
}

double coverage(const std::vector<Span>& spans,
                const std::vector<std::string>& names) {
  const std::int64_t roots = root_ns(spans);
  if (roots <= 0) return 0;
  const std::vector<std::int64_t> self = self_times(spans);
  std::int64_t layer = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (is_layer_span(spans[i], names)) layer += self[i];
  }
  return static_cast<double>(layer) / static_cast<double>(roots);
}

}  // namespace perfbench
