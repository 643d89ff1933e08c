// Unit tests of the benchmark's own arithmetic and load generation: the
// percentile rule, span self-time and coverage, and the closed-loop callers.
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "closed_loop.hpp"
#include "mkss.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

// --- Percentile rule --------------------------------------------------------

TEST(Percentile, NearestRankIsCeilingOfPTimesN) {
  EXPECT_EQ(nearest_rank(100, 0.99), 99u);  // 0.99 * 100 rounds below 99
  EXPECT_EQ(nearest_rank(1000, 0.99), 990u);
  EXPECT_EQ(nearest_rank(101, 0.99), 100u);
  EXPECT_EQ(nearest_rank(10, 0.5), 5u);
  EXPECT_EQ(nearest_rank(11, 0.5), 6u);
  EXPECT_EQ(nearest_rank(1, 0.99), 1u);
  EXPECT_EQ(nearest_rank(7, 1.0), 7u);
  EXPECT_EQ(nearest_rank(0, 0.5), 0u);
}

TEST(Percentile, ReturnsAMeasuredSampleNeverAnInterpolation) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  EXPECT_EQ(percentile(samples, 0.99), 99.0);
  EXPECT_EQ(percentile(samples, 0.50), 50.0);
  EXPECT_EQ(percentile(samples, 1.0), 100.0);
  EXPECT_EQ(percentile({1.0, 10.0}, 0.5), 1.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Percentile, TenSamplesBeyondP99NeedAThousandSamples) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(100, 0.99), 1u);
  EXPECT_EQ(samples_beyond(20, 0.5), 10u);
}

// --- Span arithmetic --------------------------------------------------------

Span make_span(std::uint32_t name, std::int32_t parent, std::int64_t start,
               std::int64_t end, std::int64_t cpu = 0) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.cpu_ns = cpu;
  return s;
}

TEST(Spans, SelfTimeSubtractsTheUnionOfDirectChildren) {
  // root [0,100] with children A [10,40] and B [30,60] (overlapping) and a
  // child C [90,120] that runs past the root's end; A has child D [15,20].
  const std::vector<Span> spans{
      make_span(0, -1, 0, 100), make_span(1, 0, 10, 40),
      make_span(2, 0, 30, 60),  make_span(3, 1, 15, 20),
      make_span(4, 0, 90, 120)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);  // union [10,60] plus clipped [90,100]
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 5);
  EXPECT_EQ(self[4], 30);
}

TEST(Spans, CoverageCountsLayerSpansButNotRootsOrBenchSpans) {
  const std::vector<std::string> names{"bench.run", "bench.set", "sim.run",
                                       "io.parse"};
  // root [0,100]; bench.set [0,80] groups sim.run [10,50] and io.parse
  // [50,60]; io.parse [80,90] sits directly under the root.
  const std::vector<Span> spans{
      make_span(0, -1, 0, 100), make_span(1, 0, 0, 80),
      make_span(2, 1, 10, 50),  make_span(3, 1, 50, 60),
      make_span(3, 0, 80, 90)};
  EXPECT_EQ(root_ns(spans), 100);
  EXPECT_DOUBLE_EQ(coverage(spans, names), 0.6);  // 40 + 10 + 10 of 100
  const auto by_layer = totals_by_layer(spans, names);
  ASSERT_EQ(by_layer.size(), 2u);
  EXPECT_DOUBLE_EQ(by_layer.at("sim").self_s, 40e-9);
  EXPECT_DOUBLE_EQ(by_layer.at("io").self_s, 20e-9);
  EXPECT_EQ(by_layer.at("io").spans, 2u);
  EXPECT_DOUBLE_EQ(self_s(totals_by_name(spans, names), "io.parse"), 20e-9);
  EXPECT_EQ(totals_by_name(spans, names).at("sim.run").spans, 1u);
}

TEST(Spans, CpuSelfTimeSubtractsChildrenCpu) {
  const std::vector<Span> spans{make_span(0, -1, 0, 100, 90),
                                make_span(1, 0, 10, 40, 30),
                                make_span(2, 1, 15, 20, 5)};
  const std::vector<std::int64_t> cpu = cpu_self_times(spans);
  EXPECT_EQ(cpu[0], 60);
  EXPECT_EQ(cpu[1], 25);
  EXPECT_EQ(cpu[2], 5);
}

TEST(Spans, RecorderNestsScopedSpansAndTheirSelfTimesAddUp) {
  SpanRecorder rec;
  const std::uint32_t run = rec.intern("bench.run");
  const std::uint32_t work = rec.intern("sim.work");
  EXPECT_EQ(rec.intern("sim.work"), work);  // interned once
  {
    ScopedSpan root(rec, run, 7);
    for (int i = 0; i < 3; ++i) {
      ScopedSpan child(rec, work, static_cast<std::uint64_t>(i));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const std::vector<Span>& spans = rec.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[0].id, 7u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(spans[i].parent, 0);
    EXPECT_GE(spans[i].start_ns, spans[0].start_ns);
    EXPECT_LE(spans[i].end_ns, spans[0].end_ns);
  }
  const std::vector<std::int64_t> self = self_times(spans);
  std::int64_t sum = 0;
  for (const std::int64_t v : self) sum += v;
  EXPECT_EQ(sum, root_ns(spans));  // self times partition the root
  EXPECT_GT(coverage(spans, rec.names()), 0.9);
}

// --- Closed-loop callers ----------------------------------------------------

std::string request_id(std::size_t i) {
  std::string id = "t";
  id += std::to_string(i);
  return id;
}

std::string tiny_request(std::size_t i) {
  mkss::io::ServeRequest req;
  req.id = request_id(i);
  req.taskset = "a 5 5 1 1 2\nb 10 10 2 1 3\n";
  req.scheme = i % 2 ? "selective" : "st";
  req.horizon = mkss::core::from_ms(std::int64_t{50});
  req.audit = false;
  return mkss::io::serialize_serve_request(req);
}

TEST(ClosedLoop, NeverExceedsItsCallersAndAnswersEveryRequestOnce) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < 16; ++i) lines.push_back(tiny_request(i));

  for (const std::size_t callers : {std::size_t{1}, std::size_t{3}}) {
    ClosedLoop loop(0);
    std::atomic<std::uint64_t> emitted{0};
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> worst{0};
    mkss::harness::ServeConfig cfg;
    cfg.workers = 2;
    mkss::harness::AdmissionService service(
        cfg, [&](std::uint64_t seq, const std::string& line) {
          ++emitted;
          loop.on_response(seq, line);
        });
    std::uint32_t next = 0;
    const PhaseResult r = loop.run(
        callers, std::chrono::nanoseconds(0), 300,
        [&] { return next++ % 16; },
        [&](std::uint32_t i) -> const std::string& { return lines[i]; },
        [&](const std::string& line) {
          // In flight as the service sees it, counting this request.
          const std::uint64_t in_flight = ++submitted - emitted.load();
          if (in_flight > worst) worst = in_flight;
          return service.submit(line);
        });
    service.finish();

    EXPECT_EQ(worst.load(), callers);
    ASSERT_EQ(r.responses.size(), 300u);
    EXPECT_EQ(r.duplicate_answers, 0u);
    EXPECT_EQ(r.stray_answers, 0u);
    EXPECT_EQ(emitted.load(), 300u);
    for (std::size_t i = 0; i < r.responses.size(); ++i) {
      std::string error;
      const auto json = mkss::io::parse_json(r.responses[i], &error);
      ASSERT_TRUE(json.has_value()) << error;
      EXPECT_EQ(json->find("id")->string, request_id(r.request[i]));
      EXPECT_GE(r.latency_ms[i], 0.0);
    }
    EXPECT_EQ(loop.next_seq(), 300u);
  }
}

TEST(ClosedLoop, CountsDuplicateAndStrayAnswersAndSurvivesInlineReplies) {
  // A fake service that answers inside submit(), before it returns -- the
  // earliest a reply can arrive -- and answers request 2 twice.
  ClosedLoop loop(100);
  std::uint64_t seq = 100;
  const std::string line = "x";
  const PhaseResult r = loop.run(
      2, std::chrono::nanoseconds(0), 5, [] { return 0u; },
      [&](std::uint32_t) -> const std::string& { return line; },
      [&](const std::string& text) {
        const std::uint64_t s = seq++;
        loop.on_response(s, "re:" + text);
        if (s == 102) loop.on_response(s, "again");
        if (s == 103) loop.on_response(999, "stray");
        return s;
      });
  ASSERT_EQ(r.responses.size(), 5u);
  for (const std::string& resp : r.responses) EXPECT_EQ(resp, "re:x");
  EXPECT_EQ(r.duplicate_answers, 1u);
  EXPECT_EQ(r.stray_answers, 1u);
  EXPECT_EQ(loop.next_seq(), 105u);
}

TEST(ClosedLoop, IgnoresAnswersAfterASubmitFailed) {
  ClosedLoop loop(0);
  std::uint64_t seq = 0;
  const std::string line = "x";
  EXPECT_THROW(loop.run(
                   2, std::chrono::nanoseconds(0), 5, [] { return 0u; },
                   [&](std::uint32_t) -> const std::string& { return line; },
                   [&](const std::string&) -> std::uint64_t {
                     if (seq == 1) throw std::runtime_error("service gone");
                     return seq++;
                   }),
               std::runtime_error);
  // The phase that request 0 belonged to is over; its late answer must not
  // reach the destroyed result.
  loop.on_response(0, "late");
  EXPECT_EQ(loop.next_seq(), 2u);
}

}  // namespace
}  // namespace perfbench
