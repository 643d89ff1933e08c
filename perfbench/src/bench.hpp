// Shared vocabulary of the benchmark's workloads: command-line options, the
// result record printed as the last stdout line, and small helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "mkss.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  /// Directory the traced run writes its span CSV into.
  std::string out_dir{"."};
};

struct Metric {
  std::string name;
  double value{0};
  std::string unit;
};

/// One run's verdict: `correct` is false when an output disagreed with its
/// reference; `failed` counts operations that failed (a known defect shows
/// here, not in `correct`).
struct Report {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON line.
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
};

/// Per-layer figures of a traced run. A field the workload does not
/// exercise stays 0; add_layer_metrics emits every field, so each traced
/// run reports the same metric names.
struct LayerMetrics {
  // workload: task-set generation.
  double gen_s{0}, attempts{0}, accepted{0}, filter_rejects{0},
      rta_rejects{0};
  // analysis: staged admission and theta/Y lookups.
  double admit_s{0}, admits{0}, theta_s{0}, theta_hit_ratio{0};
  // core: horizon and release timeline.
  double timeline_s{0}, timeline_builds{0}, timeline_hit_ratio{0};
  // sim: the event loop (scheme callbacks included).
  double run_s{0}, runs{0}, events{0}, preemptions{0};
  double account_s{0};  ///< energy::account_energy
  double qos_s{0};      ///< metrics::audit_qos
  double audit_s{0}, audits{0}, violations{0};
  double transient_faults{0}, permanent_runs{0}, quarantined{0};
  // io: serve protocol.
  double parse_s{0}, taskset_parse_s{0}, encode_s{0}, bytes_in{0},
      bytes_out{0};
  // harness: [0] = phase light, [1] = phase full.
  double service_p50_ms[2]{}, service_p99_ms[2]{};
  double queue_wait_p50_ms[2]{}, queue_wait_p99_ms[2]{};
  double max_queue_depth{0}, aggregate_s{0};
  // trace: layer self time over replica wall time; replica slowdown.
  double coverage{0}, overhead{0};
};

void add_layer_metrics(const LayerMetrics& m, Report& report);

class SpanRecorder;
/// Appends one note line per layer: self time, CPU self time, span count.
void add_layer_notes(const SpanRecorder& rec, Report& report);

Report run_sweep_workload(const Options& opts, bool audited);
Report run_serve_workload(const Options& opts);

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Durations as "0.412/0.398/...", in s, for the notes.
std::string seconds_list(const std::vector<double>& seconds);

/// The four schemes of the paper's Figure 6, in presentation order.
std::vector<mkss::sched::SchemeKind> paper_schemes();

/// Pre-resolves, through `cache`, the backup-delay analysis `scheme` reads
/// at setup: Y promotions for MKSS_DP, theta postponements for
/// MKSS_selective, nothing for the others.
void resolve_delays(mkss::analysis::AnalysisCache& cache,
                    mkss::sched::SchemeKind scheme);

/// Hit share of a cache's traffic between two snapshots; 0 without traffic.
double hit_ratio(std::uint64_t hits, std::uint64_t misses);

/// Span CSV path of a traced run.
std::string trace_path(const Options& opts);

}  // namespace perfbench
