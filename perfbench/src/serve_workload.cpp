// serve_closed: closed-loop callers against an in-process AdmissionService.
//
// Set-up builds a corpus of distinct schedulable task sets (sized so every
// set's release timeline fits each worker's TimelineCache), turns it into a
// pool of distinct lean admission requests -- each set under each of the
// four paper schemes, with a seeded fault spec and no pinned horizon, so
// the server simulates over the (m,k) hyperperiod up to its 10 s cap --
// starts a 2-worker service and sends every pool request through it to warm
// the workers' timeline and theta caches. The timed phases then draw
// requests from the pool: phase `light` keeps 2 callers waiting, phase
// `full` keeps 8. No generation or auditing runs in the timed phases.
//
// The reference is a direct in-order AdmissionService::process pass on one
// RunContext over the pool requests the phases used; every response in the
// ordered stream must match its request's reference bytes. Requests in flight
// are counted at the service (submitted minus emitted), apart from the
// callers' own books, and may never exceed the phase's callers.
//
// The traced run (--trace 1) adds a closed-loop pass with `timing: true`, so
// each latency splits into service time and queue wait, and replays every
// timed request in order through the public calls the service makes --
// parse_serve_request, parse_taskset_string, AdmissionContext::admit,
// BatchRunner, run_stats, serialize_serve_response -- with a span around
// each, checking the replica's bytes against the service's.
#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "closed_loop.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using namespace mkss;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kLightCallers = 2;
constexpr std::size_t kFullCallers = 8;
constexpr std::size_t kCorpusSetsPerBin = 150;
constexpr std::size_t kCorpusAttemptsPerBin = 250 * kCorpusSetsPerBin;
/// Release-timeline bytes the corpus may hold per worker: well inside the
/// TimelineCache's 64 MB byte budget, so warm requests never evict.
constexpr double kCorpusTimelineBytes = 56.0 * (1 << 20);
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kWarmupPasses = 2;
constexpr double kLambdaPerMs = 1e-3;
constexpr std::uint64_t kCorpusStream = 11;
constexpr std::uint64_t kPoolStream = 12;
constexpr std::uint64_t kLightStream = 13;
constexpr std::uint64_t kFullStream = 14;
/// Failed requests listed by name per phase; the rest are only counted.
constexpr std::uint64_t kFailureNotes = 20;
/// Requests of the traced run's untraced overhead baseline.
constexpr std::size_t kOverheadPrefix = 4000;

const char* const kSchemes[] = {"st", "dp", "greedy", "selective"};

std::vector<core::TaskSet> build_corpus(std::uint64_t seed,
                                        core::Ticks horizon_cap) {
  const workload::GenParams params;
  const std::uint64_t root = core::stream_seed(seed, kCorpusStream, 0);
  std::vector<std::vector<core::TaskSet>> bins;
  std::size_t most = 0;
  for (std::size_t b = 0; b < 8; ++b) {
    const double lo = 0.1 + 0.1 * static_cast<double>(b);
    bins.push_back(workload::generate_bin(params, lo, lo + 0.1,
                                          kCorpusSetsPerBin,
                                          kCorpusAttemptsPerBin, root, b)
                       .sets);
    most = std::max(most, bins.back().size());
  }
  // Round-robin over the bins, so every utilization level is represented,
  // until the corpus's release timelines would outgrow the byte budget.
  std::vector<core::TaskSet> corpus;
  double bytes = 0;
  for (std::size_t j = 0; j < most; ++j) {
    for (std::vector<core::TaskSet>& bin : bins) {
      if (j >= bin.size()) continue;
      // One release-timeline entry (28 bytes over four lanes) per job.
      const core::Ticks horizon = harness::choose_horizon(bin[j], horizon_cap);
      double jobs = 0;
      for (const core::Task& t : bin[j]) {
        jobs += static_cast<double>((horizon + t.period - 1) / t.period);
      }
      bytes += jobs * 28;
      if (bytes > kCorpusTimelineBytes) return corpus;
      corpus.push_back(std::move(bin[j]));
    }
  }
  return corpus;
}

struct Pool {
  std::vector<std::string> lines;        ///< timing off: the timed phases
  std::vector<std::string> timed_lines;  ///< the same requests, timing on
};

Pool build_pool(const std::vector<core::TaskSet>& corpus, std::uint64_t seed,
                core::Ticks horizon_cap) {
  Pool pool;
  core::Rng rng(core::stream_seed(seed, kPoolStream, 0));
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::string text = io::serialize_taskset(corpus[i]);
    const auto horizon_ms = static_cast<std::uint64_t>(
        core::to_ms(harness::choose_horizon(corpus[i], horizon_cap)));
    for (const char* scheme : kSchemes) {
      io::ServeRequest req;
      req.id = std::to_string(i);
      req.id.insert(req.id.begin(), 's');
      req.id += '.';
      req.id += scheme;
      req.taskset = text;
      req.scheme = scheme;
      req.audit = false;
      req.seed = rng.below(std::uint64_t{1} << 53);  // the protocol's range
      const std::uint64_t faults = rng.below(4);  // none/perm/trans/both
      if (faults == 1 || faults == 3) {
        req.permanent = sim::PermanentFault{
            static_cast<sim::ProcessorId>(rng.below(2)),
            core::from_ms(static_cast<std::int64_t>(
                rng.below(horizon_ms > 0 ? horizon_ms : 1)))};
      }
      if (faults >= 2) req.lambda_per_ms = kLambdaPerMs;
      pool.lines.push_back(io::serialize_serve_request(req));
      req.timing = true;
      pool.timed_lines.push_back(io::serialize_serve_request(req));
    }
  }
  return pool;
}

/// A warm service and its only producer. The service is declared last so
/// it is joined before the callers and counters its emit callback points to
/// go away.
struct Server {
  Pool pool;
  std::unique_ptr<ClosedLoop> loop;
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> emitted{0};  ///< counted in the emit callback
  std::uint64_t max_in_flight{0};  ///< of the last run(), counted at submit
  std::unique_ptr<harness::AdmissionService> service;

  PhaseResult run(std::size_t callers, double seconds, std::size_t min_requests,
                  const std::vector<std::string>& lines,
                  const std::function<std::uint32_t()>& next) {
    max_in_flight = 0;
    return loop->run(
        callers,
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::duration<double>(seconds)),
        min_requests, next,
        [&lines](std::uint32_t i) -> const std::string& { return lines[i]; },
        [this](const std::string& line) {
          // In flight as the service sees it, counting this request.
          max_in_flight =
              std::max(max_in_flight, ++submitted - emitted.load());
          return service->submit(line);
        });
  }
};

std::unique_ptr<Server> start_server(std::uint64_t seed,
                                     const harness::ServeConfig& cfg) {
  auto server = std::make_unique<Server>();
  server->pool =
      build_pool(build_corpus(seed, cfg.horizon_cap), seed, cfg.horizon_cap);
  server->loop = std::make_unique<ClosedLoop>(0);
  Server* srv = server.get();
  server->service = std::make_unique<harness::AdmissionService>(
      cfg, [srv](std::uint64_t seq, const std::string& line) {
        ++srv->emitted;
        srv->loop->on_response(seq, line);
      });
  const std::size_t n = server->pool.lines.size();
  std::uint32_t next = 0;
  server->run(kFullCallers, 0, n * kWarmupPasses, server->pool.lines,
              [&next, n] { return static_cast<std::uint32_t>(next++ % n); });
  return server;
}

struct Reference {
  std::vector<std::string> line;
  std::vector<char> ok;
  std::vector<char> have;
};

/// Checks one phase's stream against the reference, filling the reference
/// for pool requests seen for the first time. Returns failed requests.
std::uint64_t check_phase(const char* name, const PhaseResult& phase,
                          const Pool& pool, const harness::ServeConfig& cfg,
                          harness::RunContext& ctx, Reference& ref,
                          Report& report) {
  std::uint64_t failed = 0, missing = 0, mismatched = 0;
  for (std::size_t i = 0; i < phase.request.size(); ++i) {
    const std::uint32_t idx = phase.request[i];
    if (!ref.have[idx]) {
      const io::ServeResponse r =
          harness::AdmissionService::process(pool.lines[idx], ctx, cfg);
      ref.line[idx] = io::serialize_serve_response(r);
      ref.ok[idx] = r.ok ? 1 : 0;
      ref.have[idx] = 1;
    }
    if (phase.responses[i].empty()) {
      ++missing;
      ++failed;
    } else if (phase.responses[i] != ref.line[idx]) {
      ++mismatched;
    } else if (!ref.ok[idx]) {
      if (++failed <= kFailureNotes) {
        report.notes.push_back(std::string("failed: ") + name + " request " +
                               std::to_string(i) + ": " + ref.line[idx]);
      }
    }
  }
  report.check(mismatched == 0,
               std::string(name) + ": " + std::to_string(mismatched) +
                   " response(s) differ from the in-order process() pass");
  report.check(phase.duplicate_answers == 0 && phase.stray_answers == 0,
               std::string(name) + ": a request was answered more than once");
  if (missing > 0) {
    report.notes.push_back(std::string("failed: ") + name + ": " +
                           std::to_string(missing) + " request(s) unanswered");
  }
  return failed;
}

// --- Traced replica --------------------------------------------------------

std::optional<sched::SchemeKind> paper_kind(const std::string& name) {
  for (const sched::SchemeKind kind : paper_schemes()) {
    if (name == sched::registry_name(kind)) return kind;
  }
  return std::nullopt;
}

struct SpanIds {
  explicit SpanIds(SpanRecorder& r)
      : run(r.intern("bench.run")),
        request(r.intern("bench.request")),
        parse(r.intern("io.parse_request")),
        parse_taskset(r.intern("io.parse_taskset")),
        resolve(r.intern("sched.resolve")),
        admit(r.intern("analysis.admit")),
        runner(r.intern("harness.batch_runner")),
        timeline(r.intern("core.timeline")),
        plan(r.intern("fault.plan")),
        theta(r.intern("analysis.theta")),
        make(r.intern("sched.make_scheme")),
        run_stats(r.intern("sim.run_stats")),
        encode(r.intern("io.encode")) {}
  std::uint32_t run, request, parse, parse_taskset, resolve, admit, runner,
      timeline, plan, theta, make, run_stats, encode;
};

/// Replays one lean request through the service's public calls, mirroring
/// AdmissionService::process for a valid request with `audit: false`.
/// Returns the response line, or an empty string when the request needs a
/// path this replica does not take (reported as a mismatch).
std::string replicate_request(const std::string& line, std::uint64_t id,
                              const harness::ServeConfig& cfg,
                              harness::RunContext& ctx, SpanRecorder& rec,
                              const SpanIds& ids, LayerMetrics& m) {
  ScopedSpan request_span(rec, ids.request, id);
  m.bytes_in += static_cast<double>(line.size());
  io::ServeRequestParse parsed;
  {
    ScopedSpan span(rec, ids.parse, id);
    parsed = io::parse_serve_request(line);
  }
  const io::ServeRequest& req = parsed.req;
  if (!parsed.error_code.empty() || req.audit || req.taskset.empty()) return {};
  core::TaskSet ts;
  {
    ScopedSpan span(rec, ids.parse_taskset, id);
    ts = io::parse_taskset_string(req.taskset);
  }
  const sched::SchemeInfo* info = nullptr;
  {
    ScopedSpan span(rec, ids.resolve, id);
    info = &sched::Registry::instance().resolve(req.scheme);
  }
  if (!info->supports(req.procs) ||
      (req.permanent && req.permanent->proc >= req.procs)) {
    return {};
  }
  io::ServeResponse r;
  r.id = req.id;
  {
    ScopedSpan span(rec, ids.admit, id);
    analysis::AdmissionContext admission;
    r.has_admission = true;
    r.admission = admission.admit(ts, analysis::DemandModel::kRPatternMandatory);
  }
  ++m.admits;
  std::optional<harness::BatchRunner> runner;
  {
    ScopedSpan span(rec, ids.runner, id);
    runner.emplace(ts, &ctx);
  }
  core::Ticks horizon = 0;
  {
    ScopedSpan span(rec, ids.timeline, id);
    horizon = req.horizon > 0 ? req.horizon : runner->horizon(cfg.horizon_cap);
    runner->cache().timeline(horizon, &ctx.timelines());
  }
  std::optional<fault::ScenarioFaultPlan> plan;
  {
    ScopedSpan span(rec, ids.plan, id);
    plan.emplace(req.permanent,
                 fault::transient_probabilities(ts, req.lambda_per_ms),
                 req.seed);
  }
  if (req.permanent) ++m.permanent_runs;
  if (const auto kind = paper_kind(info->name)) {
    ScopedSpan span(rec, ids.theta, id);
    resolve_delays(runner->cache(), *kind);
  }
  sim::SimConfig sim_cfg;
  sim_cfg.horizon = horizon;
  sim_cfg.platform = sim::PlatformSpec::standby(req.procs);
  sim_cfg.wall_clock_budget_ms = cfg.run_budget_ms;
  std::unique_ptr<sched::SchemeBase> scheme;
  {
    ScopedSpan span(rec, ids.make, id);
    scheme = info->make();
    runner->bind(*scheme);
  }
  r.has_simulation = true;
  r.scheme = info->name;
  r.procs = req.procs;
  r.horizon = horizon;
  r.audited = req.audit;
  {
    ScopedSpan span(rec, ids.run_stats, id);
    const sim::StatsSink& sink =
        runner->run_stats(*scheme, *plan, sim_cfg, cfg.power);
    r.mk_satisfied = sink.qos().mk_satisfied;
    r.mandatory_misses = sink.qos().mandatory_misses;
    r.jobs_released = sink.stats().jobs_released;
    r.jobs_met = sink.stats().jobs_met;
    r.jobs_missed = sink.stats().jobs_missed;
    r.backups_canceled = sink.stats().backups_canceled;
    r.energy_total = sink.energy().total();
    r.energy_active = sink.energy().active_total();
    ++m.runs;
    m.events += static_cast<double>(sink.stats().sim_events);
    m.preemptions += static_cast<double>(sink.stats().preemptions);
    m.transient_faults += static_cast<double>(sink.stats().transient_faults);
  }
  r.ok = true;
  std::string out;
  {
    ScopedSpan span(rec, ids.encode, id);
    out = io::serialize_serve_response(r);
  }
  m.bytes_out += static_cast<double>(out.size());
  return out;
}

/// Service time (the response's wall_us) and queue wait (latency minus
/// service time) of a timing pass, in ms; p50 and p99 into `m` at `phase`.
void split_latency(const PhaseResult& pass, int phase, LayerMetrics& m,
                   Report& report) {
  std::vector<double> service, wait;
  for (std::size_t i = 0; i < pass.responses.size(); ++i) {
    std::string error;
    const auto json = io::parse_json(pass.responses[i], &error);
    const io::JsonValue* wall = json ? json->find("wall_us") : nullptr;
    if (wall == nullptr) continue;
    service.push_back(wall->number / 1e3);
    wait.push_back(pass.latency_ms[i] - wall->number / 1e3);
  }
  report.check(service.size() == pass.responses.size(),
               "every timing-pass response carries wall_us");
  m.service_p50_ms[phase] = percentile(service, 0.50);
  m.service_p99_ms[phase] = percentile(service, 0.99);
  m.queue_wait_p50_ms[phase] = percentile(wait, 0.50);
  m.queue_wait_p99_ms[phase] = percentile(wait, 0.99);
}

void traced_run(Server& server, const std::vector<const PhaseResult*>& phases,
                const harness::ServeConfig& cfg, harness::RunContext& ctx,
                const Options& opts, Report& report) {
  LayerMetrics m;
  const std::size_t n = server.pool.lines.size();
  for (int p = 0; p < 2; ++p) {
    core::Rng rng(core::stream_seed(opts.seed, p == 0 ? kLightStream : kFullStream, 1));
    const PhaseResult pass = server.run(
        p == 0 ? kLightCallers : kFullCallers, opts.seconds / 4, 1,
        server.pool.timed_lines,
        [&rng, n] { return static_cast<std::uint32_t>(rng.below(n)); });
    split_latency(pass, p, m, report);
  }
  const harness::ServeTelemetry telemetry = server.service->finish();
  m.max_queue_depth = static_cast<double>(telemetry.max_queue_depth);

  std::vector<const std::string*> lines, expected;
  for (const PhaseResult* phase : phases) {
    for (std::size_t i = 0; i < phase->request.size(); ++i) {
      lines.push_back(&server.pool.lines[phase->request[i]]);
      expected.push_back(&phase->responses[i]);
    }
  }

  // Untraced baseline for the overhead figure: the same first requests
  // through AdmissionService::process on the same (warm) context.
  const std::size_t prefix = std::min(kOverheadPrefix, lines.size());
  const auto base_start = Clock::now();
  for (std::size_t i = 0; i < prefix; ++i) {
    io::serialize_serve_response(
        harness::AdmissionService::process(*lines[i], ctx, cfg));
  }
  const double untraced_prefix_s = seconds_since(base_start);

  SpanRecorder rec;
  const SpanIds ids(rec);
  const auto tl_hits0 = ctx.timelines().hits();
  const auto tl_miss0 = ctx.timelines().misses();
  const auto th_hits0 = ctx.postponements().hits();
  const auto th_miss0 = ctx.postponements().misses();
  std::size_t mismatched = 0;
  std::int64_t prefix_end_ns = 0;
  {
    ScopedSpan root(rec, ids.run, opts.seed);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::size_t request_span = rec.spans().size();
      const std::string out =
          replicate_request(*lines[i], i, cfg, ctx, rec, ids, m);
      if (out != *expected[i]) ++mismatched;
      if (i + 1 == prefix) prefix_end_ns = rec.spans()[request_span].end_ns;
    }
  }
  report.check(mismatched == 0,
               "traced replica reproduces the service's responses (" +
                   std::to_string(mismatched) + " differ)");

  const auto by_name = totals_by_name(rec.spans(), rec.names());
  m.admit_s = self_s(by_name, "analysis.admit");
  m.theta_s = self_s(by_name, "analysis.theta");
  m.theta_hit_ratio = hit_ratio(ctx.postponements().hits() - th_hits0,
                                ctx.postponements().misses() - th_miss0);
  m.timeline_s = self_s(by_name, "core.timeline");
  m.timeline_builds = static_cast<double>(ctx.timelines().misses() - tl_miss0);
  m.timeline_hit_ratio = hit_ratio(ctx.timelines().hits() - tl_hits0,
                                   ctx.timelines().misses() - tl_miss0);
  m.run_s = self_s(by_name, "sim.run_stats");
  m.parse_s = self_s(by_name, "io.parse_request");
  m.taskset_parse_s = self_s(by_name, "io.parse_taskset");
  m.encode_s = self_s(by_name, "io.encode");
  m.coverage = coverage(rec.spans(), rec.names());
  // The replica's first `prefix` requests start at the root span's start.
  const double traced_prefix_s =
      static_cast<double>(prefix_end_ns - rec.spans().front().start_ns) * 1e-9;
  m.overhead =
      untraced_prefix_s > 0 ? traced_prefix_s / untraced_prefix_s - 1 : 0;
  add_layer_metrics(m, report);

  add_layer_notes(rec, report);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "traced replica %zu requests %.3f s; first %zu: %.3f s traced "
                "vs %.3f s untraced",
                lines.size(), static_cast<double>(root_ns(rec.spans())) * 1e-9,
                prefix, traced_prefix_s, untraced_prefix_s);
  report.notes.push_back(buf);
  if (!rec.write_csv(trace_path(opts))) {
    report.notes.push_back("warning: could not write " + trace_path(opts));
  }
}

}  // namespace

Report run_serve_workload(const Options& opts) {
  Report report;
  harness::ServeConfig cfg;
  cfg.workers = kWorkers;

  // Set-up, repeated: corpus, request pool, service start, cache warm-up.
  // Every repetition starts a fresh service (cold worker caches); the last
  // one serves the timed phases.
  std::vector<double> setup_s;
  std::unique_ptr<Server> server;
  const auto process_start = Clock::now();
  const std::size_t reps = opts.trace ? 1 : kSetupReps;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    server.reset();
    const auto start = Clock::now();
    server = start_server(opts.seed, cfg);
    setup_s.push_back(seconds_since(start));
  }
  const double to_first_op = seconds_since(process_start);
  const std::size_t n = server->pool.lines.size();

  std::vector<PhaseResult> phases;
  std::uint64_t in_flight[2] = {0, 0};
  for (int p = 0; p < 2; ++p) {
    const std::size_t callers = p == 0 ? kLightCallers : kFullCallers;
    core::Rng rng(core::stream_seed(opts.seed, p == 0 ? kLightStream : kFullStream, 0));
    phases.push_back(server->run(
        callers, opts.seconds / 2, 1, server->pool.lines,
        [&rng, n] { return static_cast<std::uint32_t>(rng.below(n)); }));
    in_flight[p] = server->max_in_flight;
  }
  // Before the reference pass, so the peak is the timed phases' own.
  const double rss_mb = peak_rss_mb();
  const PhaseResult& light = phases[0];
  const PhaseResult& full = phases[1];
  report.check(in_flight[0] <= kLightCallers && in_flight[1] <= kFullCallers,
               "the service held more requests at once than the phase has "
               "callers");

  harness::RunContext ref_ctx;
  Reference ref{std::vector<std::string>(n), std::vector<char>(n, 0),
                std::vector<char>(n, 0)};
  report.attempted = light.request.size() + full.request.size();
  report.failed =
      check_phase("light", light, server->pool, cfg, ref_ctx, ref, report) +
      check_phase("full", full, server->pool, cfg, ref_ctx, ref, report);

  if (opts.trace) {
    traced_run(*server, {&light, &full}, cfg, ref_ctx, opts, report);
    return report;
  }
  const harness::ServeTelemetry telemetry = server->service->finish();

  char buf[240];
  std::snprintf(buf, sizeof buf,
                "pool %zu requests; light %zu requests in %.3f s, full %zu in "
                "%.3f s; timeline cache %llu hit(s) / %llu miss(es); start to "
                "first timed op %.3f s, set-up reps (s) ",
                n, light.request.size(), light.seconds, full.request.size(),
                full.seconds,
                static_cast<unsigned long long>(telemetry.timeline_hits),
                static_cast<unsigned long long>(telemetry.timeline_misses),
                to_first_op);
  report.notes.push_back(buf + seconds_list(setup_s));
  std::snprintf(buf, sizeof buf,
                "p99 has %zu (light) and %zu (full) samples beyond it; at "
                "most %llu (light) and %llu (full) requests in the service",
                samples_beyond(light.latency_ms.size(), 0.99),
                samples_beyond(full.latency_ms.size(), 0.99),
                static_cast<unsigned long long>(in_flight[0]),
                static_cast<unsigned long long>(in_flight[1]));
  report.notes.push_back(buf);

  report.add("setup_s", percentile(setup_s, 0.5), "s");
  report.add("sets_per_s",
             static_cast<double>(light.request.size()) / light.seconds, "1/s");
  report.add("requests_per_s",
             static_cast<double>(full.request.size()) / full.seconds, "1/s");
  report.add("p50_ms.light", percentile(light.latency_ms, 0.50), "ms");
  report.add("p99_ms.light", percentile(light.latency_ms, 0.99), "ms");
  report.add("p50_ms.full", percentile(full.latency_ms, 0.50), "ms");
  report.add("p99_ms.full", percentile(full.latency_ms, 0.99), "ms");
  report.add("peak_rss_mb", rss_mb, "MB");
  return report;
}

}  // namespace perfbench
