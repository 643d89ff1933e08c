// perfbench: end-to-end and per-layer benchmark of the mkss library.
//
//   perfbench --workload <sweep_lean|sweep_audited|serve_closed>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints notes, then as its last stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// run adds a traced replica of the same work and reports per-layer metrics.
// Exit code 0 whenever a result was printed (a failed correctness check
// reads "correct": false); 2 on bad usage; 1 on an unexpected error.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string_view>

#include "bench.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string seconds_list(const std::vector<double>& seconds) {
  std::string out;
  char buf[32];
  for (const double s : seconds) {
    std::snprintf(buf, sizeof buf, "%s%.3f", out.empty() ? "" : "/", s);
    out += buf;
  }
  return out;
}

std::vector<mkss::sched::SchemeKind> paper_schemes() {
  using mkss::sched::SchemeKind;
  return {SchemeKind::kSt, SchemeKind::kDp, SchemeKind::kGreedy,
          SchemeKind::kSelective};
}

void resolve_delays(mkss::analysis::AnalysisCache& cache,
                    mkss::sched::SchemeKind scheme) {
  // Mirrors the default-configured schemes' on_setup (no DVS): DP reads Y
  // through sched::backup_delays(kPromotion), selective reads theta through
  // backup_delays(kPostponed, deeply-red pattern).
  if (scheme == mkss::sched::SchemeKind::kDp) {
    cache.promotions();
  } else if (scheme == mkss::sched::SchemeKind::kSelective) {
    cache.postponement(mkss::analysis::PostponementOptions{});
  }
}

double hit_ratio(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t total = hits + misses;
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

void add_layer_metrics(const LayerMetrics& m, Report& report) {
  const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  report.add("workload.gen_s", m.gen_s, "s");
  report.add("workload.attempts", m.attempts, "count");
  report.add("workload.accept_ratio", per(m.accepted, m.attempts), "ratio");
  report.add("workload.ns_per_attempt", per(m.gen_s * 1e9, m.attempts), "ns");
  report.add("workload.filter_rejects", m.filter_rejects, "count");
  report.add("workload.rta_rejects", m.rta_rejects, "count");
  report.add("analysis.admit_s", m.admit_s, "s");
  report.add("analysis.admits", m.admits, "count");
  report.add("analysis.theta_s", m.theta_s, "s");
  report.add("analysis.theta_hit_ratio", m.theta_hit_ratio, "ratio");
  report.add("core.timeline_s", m.timeline_s, "s");
  report.add("core.timeline_builds", m.timeline_builds, "count");
  report.add("core.timeline_hit_ratio", m.timeline_hit_ratio, "ratio");
  report.add("sim.run_s", m.run_s, "s");
  report.add("sim.runs", m.runs, "count");
  report.add("sim.events", m.events, "count");
  report.add("sim.ns_per_event", per(m.run_s * 1e9, m.events), "ns");
  report.add("sim.preemptions", m.preemptions, "count");
  report.add("energy.account_s", m.account_s, "s");
  report.add("metrics.qos_s", m.qos_s, "s");
  report.add("audit.audit_s", m.audit_s, "s");
  report.add("audit.audits", m.audits, "count");
  report.add("audit.violations", m.violations, "count");
  report.add("fault.transient_faults", m.transient_faults, "count");
  report.add("fault.permanent_runs", m.permanent_runs, "count");
  report.add("fault.quarantined", m.quarantined, "count");
  report.add("io.parse_s", m.parse_s, "s");
  report.add("io.taskset_parse_s", m.taskset_parse_s, "s");
  report.add("io.encode_s", m.encode_s, "s");
  report.add("io.bytes_in", m.bytes_in, "count");
  report.add("io.bytes_out", m.bytes_out, "count");
  const char* phases[2] = {"light", "full"};
  for (int p = 0; p < 2; ++p) {
    const std::string suffix = std::string(".") + phases[p];
    report.add("harness.service_ms.p50" + suffix, m.service_p50_ms[p], "ms");
    report.add("harness.service_ms.p99" + suffix, m.service_p99_ms[p], "ms");
    report.add("harness.queue_wait_ms.p50" + suffix, m.queue_wait_p50_ms[p],
               "ms");
    report.add("harness.queue_wait_ms.p99" + suffix, m.queue_wait_p99_ms[p],
               "ms");
  }
  report.add("harness.max_queue_depth", m.max_queue_depth, "count");
  report.add("harness.aggregate_s", m.aggregate_s, "s");
  report.add("trace.coverage", m.coverage, "ratio");
  report.add("trace.overhead", m.overhead, "ratio");
}

void add_layer_notes(const SpanRecorder& rec, Report& report) {
  char buf[160];
  for (const auto& [layer, t] : totals_by_layer(rec.spans(), rec.names())) {
    std::snprintf(buf, sizeof buf,
                  "layer %-9s self %9.4f s  cpu %9.4f s  %9llu spans",
                  layer.c_str(), t.self_s, t.cpu_s,
                  static_cast<unsigned long long>(t.spans));
    report.notes.push_back(buf);
  }
}

std::string trace_path(const Options& opts) {
  return opts.out_dir + "/spans-" + opts.workload + "-" +
         std::to_string(opts.seed) + ".csv";
}

}  // namespace perfbench

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <sweep_lean|sweep_audited|serve_closed> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               argv0);
}

void print_json(const perfbench::Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    // JSON has no NaN/inf; a non-finite value is a benchmark bug, shown as 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) {
      usage(argv[0]);
      return 2;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && opts.seconds > 0 &&
                     opts.seconds <= 600;
    } else if (arg == "--trace") {
      const std::string_view t = value;
      have_trace = t == "0" || t == "1";
      opts.trace = t == "1";
    } else if (arg == "--out-dir") {
      opts.out_dir = value;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage(argv[0]);
    return 2;
  }

  try {
    perfbench::Report report;
    if (opts.workload == "sweep_lean") {
      report = perfbench::run_sweep_workload(opts, /*audited=*/false);
    } else if (opts.workload == "sweep_audited") {
      report = perfbench::run_sweep_workload(opts, /*audited=*/true);
    } else if (opts.workload == "serve_closed") {
      report = perfbench::run_serve_workload(opts);
    } else {
      usage(argv[0]);
      return 2;
    }
    for (const std::string& note : report.notes) {
      std::printf("%s\n", note.c_str());
    }
    print_json(report);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
