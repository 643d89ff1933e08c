// sweep_lean and sweep_audited: Figure-6 sweeps through harness::run_sweep.
//
// A run is a sequence of rounds. Each round is one Figure-6 sweep (bins
// 0.1-0.8, 2 s horizon cap) at a quarter of the paper's size -- 5
// schedulable sets or 1250 attempts per bin, the paper's 20/5000 scaled
// together -- so a 20-second run holds thousands of rounds and the
// round-latency p99 rests on tens of samples. Each round has its own seed,
// named by (workload seed, round index).
//
// Phase `light` runs a fixed number of rounds, set by --seconds, on one
// thread: the same seed and --seconds always give the same operations, so
// `attempted` and `failed` repeat exactly between runs. Phase `full` re-runs
// the same rounds on run_sweep's own 3-thread pool, as
// `mkss_cli sweep --threads 3` runs a sweep. Results are
// bit-identical for every thread count, so every full result must equal its
// light result. For sweep_lean an untimed reference then re-runs every round
// on the audited path (full traces plus the trace auditor), which checks
// lean against audited on the same sets.
//
// The traced run (--trace 1) replays the light rounds through the public
// calls run_sweep makes -- generate_bin, BatchRunner, fault plans, the run
// entry points, the energy/QoS/audit passes and the index-order aggregation
// -- with a span around each call, and checks that the replica reproduces
// the untraced results byte for byte.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using namespace mkss;

constexpr std::size_t kSetsPerBin = 5;
constexpr std::size_t kAttemptsPerBin = 1250;
constexpr std::int64_t kHorizonCapMs = 2000;
/// run_sweep's pool size in phase full and in sweep_lean's reference.
constexpr std::size_t kPoolThreads = 3;
/// Rounds of phase light per second of --seconds. On the 4-core VM this was
/// tuned on, they take about 60% of --seconds on one thread; phase full, the
/// same rounds on the pool, takes about half as long again.
constexpr double kRoundsPerSecond = 95;
/// Set-up: kSetupReps repetitions of kWarmupRounds rounds on seeds the
/// timed rounds never use (a thread's RunContext caches survive across
/// run_sweep calls, so warming on the timed seeds would time warm hits).
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kWarmupRounds = 80;
constexpr std::uint64_t kTimedStream = 1;
constexpr std::uint64_t kWarmupStream = 2;

harness::SweepConfig round_config(bool audited, std::uint64_t seed,
                                  std::size_t threads) {
  harness::SweepConfig cfg;
  cfg.bin_starts = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8};
  cfg.sets_per_bin = kSetsPerBin;
  cfg.max_attempts_per_bin = kAttemptsPerBin;
  cfg.horizon_cap = core::from_ms(kHorizonCapMs);
  cfg.seed = seed;
  cfg.num_threads = threads;
  if (audited) {
    // Figure 6(c) stressed: one permanent fault plus transients at 1000x
    // the paper's rate, so takeover and recovery paths run.
    cfg.scenario = fault::Scenario::kPermanentAndTransient;
    cfg.lambda_per_ms = 1e-3;
    cfg.schemes = sched::evaluation_schemes();
    cfg.audit = true;
  } else {
    cfg.scenario = fault::Scenario::kNoFault;
    cfg.schemes = paper_schemes();
    cfg.audit = false;
  }
  return cfg;
}

std::string stat_text(const metrics::RunningStat& s) {
  char buf[192];
  std::snprintf(buf, sizeof buf, "%llu %a %a %a %a;",
                static_cast<unsigned long long>(s.count()), s.mean(), s.min(),
                s.max(), s.variance());
  return buf;
}

/// Per-bin statistics in exact (hex-float) text; no timing field.
std::string bins_text(const harness::SweepResult& r) {
  std::string out;
  char buf[256];
  for (const harness::BinSummary& b : r.bins) {
    const workload::GenCounters& c = b.gen_counters;
    std::snprintf(buf, sizeof buf,
                  "bin %a %a sets %zu attempts %llu gen %llu %llu %llu %llu "
                  "%llu %llu\n",
                  b.bin_lo, b.bin_hi, b.sets,
                  static_cast<unsigned long long>(b.attempts),
                  static_cast<unsigned long long>(c.draw_failures),
                  static_cast<unsigned long long>(c.out_of_bin),
                  static_cast<unsigned long long>(c.filter_rejects),
                  static_cast<unsigned long long>(c.rta_rejects),
                  static_cast<unsigned long long>(c.accepted),
                  static_cast<unsigned long long>(c.quick_accepts));
    out += buf;
    for (std::size_t v = 0; v < b.normalized.size(); ++v) {
      out += stat_text(b.normalized[v]);
      out += stat_text(b.absolute[v]);
    }
    out += '\n';
  }
  return out;
}

/// Everything run_sweep returns except its phase timings.
std::string result_text(const harness::SweepResult& r) {
  std::string out;
  for (const std::string& name : r.scheme_names) out += name + ",";
  out += "\n" + bins_text(r);
  out += "qos_failures " + std::to_string(r.qos_failures) + "\n";
  for (const harness::SweepError& e : r.errors) {
    out += "error " + std::to_string(e.bin) + " " + std::to_string(e.set) +
           " " + e.variant + " " + std::to_string(e.seed) + "\n" + e.message +
           "\n" + e.taskset + "\n";
  }
  return out;
}

std::uint64_t generated_sets(const harness::SweepResult& r) {
  std::uint64_t n = 0;
  for (const harness::BinSummary& b : r.bins) n += b.gen_counters.accepted;
  return n;
}

struct Round {
  std::uint64_t seed{0};
  double light_s{0};
  std::uint64_t sets{0};
  std::uint64_t ops{0};
  std::string text;  ///< result_text of the light run
};

// --- Traced replica --------------------------------------------------------

struct SpanIds {
  explicit SpanIds(SpanRecorder& r)
      : run(r.intern("bench.run")),
        set(r.intern("bench.set")),
        generate(r.intern("workload.generate_bin")),
        runner(r.intern("harness.batch_runner")),
        timeline(r.intern("core.timeline")),
        plan(r.intern("fault.plan")),
        theta(r.intern("analysis.theta")),
        make(r.intern("sched.make_scheme")),
        run_full(r.intern("sim.run_full")),
        run_stats(r.intern("sim.run_stats")),
        audit(r.intern("audit.audit")),
        energy(r.intern("energy.account")),
        qos(r.intern("metrics.qos")),
        aggregate(r.intern("harness.aggregate")) {}
  std::uint32_t run, set, generate, runner, timeline, plan, theta, make,
      run_full, run_stats, audit, energy, qos, aggregate;
};

struct LayerCounts {
  workload::GenCounters gen;
  std::uint64_t attempts{0};
  std::uint64_t runs{0};
  std::uint64_t events{0};
  std::uint64_t preemptions{0};
  std::uint64_t transient_faults{0};
  std::uint64_t permanent_runs{0};
  std::uint64_t audits{0};
  std::uint64_t violations{0};
  std::uint64_t quarantined{0};

  void add_run(const sim::SimStats& s) {
    ++runs;
    events += s.sim_events;
    preemptions += s.preemptions;
    transient_faults += s.transient_faults;
  }
};

/// One round of run_sweep rebuilt from its public parts, serially, with a
/// span around every library call. Mirrors harness::run_variant_sweep:
/// streams are named exactly as it names them and results fold in the same
/// index order, so the returned result is bit-identical to run_sweep's.
harness::SweepResult replicate_round(const harness::SweepConfig& cfg,
                                     std::uint64_t round,
                                     harness::RunContext& ctx,
                                     SpanRecorder& rec, const SpanIds& ids,
                                     LayerCounts& counts) {
  harness::SweepResult result;
  for (const sched::SchemeKind kind : cfg.schemes) {
    result.scheme_names.push_back(sched::to_string(kind));
  }
  const std::size_t n_variants = cfg.schemes.size();

  // run_sweep's generation root: stream_seed(seed, generation stream tag, 0).
  const std::uint64_t gen_root =
      core::stream_seed(cfg.seed, ~std::uint64_t{0}, 0);
  std::vector<workload::BinnedBatch> batches(cfg.bin_starts.size());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    ScopedSpan span(rec, ids.generate, round * 100 + b);
    const double lo = cfg.bin_starts[b];
    batches[b] = workload::generate_bin(cfg.gen, lo, lo + cfg.bin_width,
                                        cfg.sets_per_bin,
                                        cfg.max_attempts_per_bin, gen_root, b);
    counts.gen += batches[b].counters;
    counts.attempts += batches[b].attempts;
  }

  audit::AuditOptions audit_options;
  audit_options.power = cfg.power;
  audit_options.check_mk =
      cfg.scenario != fault::Scenario::kPermanentAndTransient;
  // run_variant_sweep materializes full traces unless the sink is forced to
  // kStats -- also when audit is off under the default kAuto sink.
  const bool full_traces =
      cfg.audit || cfg.sink != harness::SweepConfig::Sink::kStats;

  struct SetOut {
    std::vector<double> totals;
    std::vector<char> qos_ok;
    std::vector<std::string> error;
  };
  std::vector<std::vector<SetOut>> outs(batches.size());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    outs[b].resize(batches[b].sets.size());
    for (std::size_t s = 0; s < batches[b].sets.size(); ++s) {
      const std::uint64_t set_id = (round * 100 + b) * 100000 + s;
      ScopedSpan set_span(rec, ids.set, set_id);
      SetOut& out = outs[b][s];
      out.totals.assign(n_variants, 0.0);
      out.qos_ok.assign(n_variants, 1);
      out.error.assign(n_variants, std::string{});
      const core::TaskSet& ts = batches[b].sets[s];

      std::optional<harness::BatchRunner> runner;
      {
        ScopedSpan span(rec, ids.runner, set_id);
        runner.emplace(ts, &ctx);
      }
      core::Ticks horizon = 0;
      {
        ScopedSpan span(rec, ids.timeline, set_id);
        horizon = runner->horizon(cfg.horizon_cap);
        runner->cache().timeline(horizon, &ctx.timelines());
      }
      std::unique_ptr<const sim::FaultPlan> plan;
      {
        ScopedSpan span(rec, ids.plan, set_id);
        core::Rng fault_rng(core::stream_seed(cfg.seed, b, s));
        plan = fault::make_scenario_plan(cfg.scenario, ts, horizon,
                                         cfg.lambda_per_ms, fault_rng);
      }
      if (plan->permanent()) counts.permanent_runs += n_variants;
      {
        ScopedSpan span(rec, ids.theta, set_id);
        for (const sched::SchemeKind kind : cfg.schemes) {
          resolve_delays(runner->cache(), kind);
        }
      }
      sim::SimConfig sim_config;
      sim_config.horizon = horizon;
      sim_config.break_even = cfg.power.break_even;
      sim_config.wall_clock_budget_ms = cfg.run_budget_ms;

      for (std::size_t v = 0; v < n_variants; ++v) {
        try {
          std::unique_ptr<sched::SchemeBase> scheme;
          {
            ScopedSpan span(rec, ids.make, set_id);
            scheme = sched::make_scheme(cfg.schemes[v]);
            runner->bind(*scheme);
          }
          if (full_traces) {
            const sim::SimulationTrace* trace = nullptr;
            {
              ScopedSpan span(rec, ids.run_full, set_id);
              trace = &runner->run_full(*scheme, *plan, sim_config);
            }
            counts.add_run(trace->stats);
            if (cfg.audit) {
              audit::AuditReport report;
              {
                ScopedSpan span(rec, ids.audit, set_id);
                report = audit::TraceAuditor(audit_options).audit(*trace, ts);
              }
              ++counts.audits;
              counts.violations += report.violations.size();
              if (!report.ok()) {
                throw audit::AuditViolationError(std::move(report));
              }
            }
            {
              ScopedSpan span(rec, ids.energy, set_id);
              out.totals[v] =
                  energy::account_energy(*trace, cfg.power).total();
            }
            {
              ScopedSpan span(rec, ids.qos, set_id);
              out.qos_ok[v] =
                  metrics::audit_qos(*trace, ts).theorem1_holds() ? 1 : 0;
            }
          } else {
            ScopedSpan span(rec, ids.run_stats, set_id);
            const sim::StatsSink& stats =
                runner->run_stats(*scheme, *plan, sim_config, cfg.power);
            counts.add_run(stats.stats());
            out.totals[v] = stats.energy().total();
            out.qos_ok[v] = stats.qos().theorem1_holds() ? 1 : 0;
          }
        } catch (const std::exception& e) {
          out.error[v] = e.what();
          if (out.error[v].empty()) out.error[v] = "unknown error";
        }
      }
    }
  }

  ScopedSpan span(rec, ids.aggregate, round);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    harness::BinSummary bin;
    bin.bin_lo = batches[b].bin_lo;
    bin.bin_hi = batches[b].bin_hi;
    bin.attempts = batches[b].attempts;
    bin.gen_counters = batches[b].counters;
    bin.normalized.resize(n_variants);
    bin.absolute.resize(n_variants);
    for (std::size_t s = 0; s < outs[b].size(); ++s) {
      const SetOut& out = outs[b][s];
      bool errored = false;
      for (std::size_t v = 0; v < n_variants; ++v) {
        if (out.error[v].empty()) continue;
        errored = true;
        ++counts.quarantined;
        result.errors.push_back({b, s, result.scheme_names[v],
                                 core::stream_seed(cfg.seed, b, s),
                                 out.error[v],
                                 io::serialize_taskset(batches[b].sets[s])});
      }
      if (errored) continue;
      bool all_ok = true;
      for (const char ok : out.qos_ok) all_ok = all_ok && ok != 0;
      if (!all_ok) ++result.qos_failures;
      const double reference = out.totals[0];
      if (reference <= 0.0) continue;
      for (std::size_t v = 0; v < n_variants; ++v) {
        bin.normalized[v].add(out.totals[v] / reference);
        bin.absolute[v].add(out.totals[v]);
      }
      ++bin.sets;
    }
    result.bins.push_back(std::move(bin));
  }
  return result;
}

/// Runs the traced replica over `rounds` and adds the per-layer metrics.
void traced_replica(bool audited, const std::vector<Round>& rounds,
                    double untraced_s, const Options& opts, Report& report) {
  SpanRecorder rec;
  const SpanIds ids(rec);
  LayerCounts counts;
  harness::RunContext ctx;
  const auto tl_hits0 = ctx.timelines().hits();
  const auto tl_miss0 = ctx.timelines().misses();
  const auto th_hits0 = ctx.postponements().hits();
  const auto th_miss0 = ctx.postponements().misses();
  bool same = true;
  {
    ScopedSpan root(rec, ids.run, opts.seed);
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      const harness::SweepConfig cfg = round_config(audited, rounds[r].seed, 1);
      const harness::SweepResult replica =
          replicate_round(cfg, r, ctx, rec, ids, counts);
      if (result_text(replica) != rounds[r].text) {
        same = false;
        report.notes.push_back("round " + std::to_string(r) +
                               ": traced replica differs from run_sweep");
      }
    }
  }
  report.check(same, "traced replica reproduces the untraced sweep results");
  const double traced_s = static_cast<double>(root_ns(rec.spans())) * 1e-9;

  const auto by_name = totals_by_name(rec.spans(), rec.names());
  LayerMetrics m;
  m.gen_s = self_s(by_name, "workload.generate_bin");
  m.attempts = static_cast<double>(counts.attempts);
  m.accepted = static_cast<double>(counts.gen.accepted);
  m.filter_rejects = static_cast<double>(counts.gen.filter_rejects);
  m.rta_rejects = static_cast<double>(counts.gen.rta_rejects);
  m.theta_s = self_s(by_name, "analysis.theta");
  m.theta_hit_ratio = hit_ratio(ctx.postponements().hits() - th_hits0,
                                ctx.postponements().misses() - th_miss0);
  m.timeline_s = self_s(by_name, "core.timeline");
  m.timeline_builds = static_cast<double>(ctx.timelines().misses() - tl_miss0);
  m.timeline_hit_ratio = hit_ratio(ctx.timelines().hits() - tl_hits0,
                                   ctx.timelines().misses() - tl_miss0);
  m.run_s = self_s(by_name, "sim.run_full") + self_s(by_name, "sim.run_stats");
  m.runs = static_cast<double>(counts.runs);
  m.events = static_cast<double>(counts.events);
  m.preemptions = static_cast<double>(counts.preemptions);
  m.account_s = self_s(by_name, "energy.account");
  m.qos_s = self_s(by_name, "metrics.qos");
  m.audit_s = self_s(by_name, "audit.audit");
  m.audits = static_cast<double>(counts.audits);
  m.violations = static_cast<double>(counts.violations);
  m.transient_faults = static_cast<double>(counts.transient_faults);
  m.permanent_runs = static_cast<double>(counts.permanent_runs);
  m.quarantined = static_cast<double>(counts.quarantined);
  m.aggregate_s = self_s(by_name, "harness.aggregate");
  m.coverage = coverage(rec.spans(), rec.names());
  m.overhead = untraced_s > 0 ? traced_s / untraced_s - 1 : 0;
  add_layer_metrics(m, report);

  add_layer_notes(rec, report);
  char buf[160];
  std::snprintf(buf, sizeof buf, "traced replica %.3f s vs untraced %.3f s",
                traced_s, untraced_s);
  report.notes.push_back(buf);
  if (!rec.write_csv(trace_path(opts))) {
    report.notes.push_back("warning: could not write " + trace_path(opts));
  }
}

}  // namespace

Report run_sweep_workload(const Options& opts, bool audited) {
  Report report;
  const auto process_start = Clock::now();

  // Set-up: warm the thread's engine arenas and caches on other seeds.
  std::vector<double> setup_s;
  const std::size_t reps = opts.trace ? 1 : kSetupReps;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kWarmupRounds; ++i) {
      const std::uint64_t seed =
          core::stream_seed(opts.seed, kWarmupStream, rep * kWarmupRounds + i);
      harness::run_sweep(round_config(audited, seed, 1));
    }
    setup_s.push_back(seconds_since(start));
  }
  const double to_first_op = seconds_since(process_start);

  // Phase light: one thread, a fixed number of rounds.
  const auto n_rounds = static_cast<std::size_t>(
      std::max(1.0, std::round(opts.seconds * kRoundsPerSecond)));
  std::vector<Round> rounds;
  while (rounds.size() < n_rounds) {
    Round round;
    round.seed = core::stream_seed(opts.seed, kTimedStream, rounds.size());
    const auto start = Clock::now();
    const harness::SweepResult result =
        harness::run_sweep(round_config(audited, round.seed, 1));
    round.light_s = seconds_since(start);
    round.sets = generated_sets(result);
    round.ops = round.sets * result.scheme_names.size();
    round.text = result_text(result);
    report.attempted += round.ops;
    report.failed += result.errors.size();
    for (const harness::SweepError& e : result.errors) {
      std::string message = e.message.substr(0, 240);
      std::replace(message.begin(), message.end(), '\n', ' ');
      report.notes.push_back(
          "failed: round " + std::to_string(rounds.size()) + " (seed " +
          std::to_string(round.seed) + ") bin " + std::to_string(e.bin) +
          " set " + std::to_string(e.set) + " " + e.variant + ": " + message);
    }
    rounds.push_back(std::move(round));
  }
  double light_total = 0;
  std::uint64_t sets = 0;
  std::vector<double> light_ms;
  for (const Round& r : rounds) {
    light_total += r.light_s;
    sets += r.sets;
    light_ms.push_back(r.light_s * 1e3);
  }

  if (opts.trace) {
    traced_replica(audited, rounds, light_total, opts, report);
    return report;
  }

  // Phase full: the same rounds on run_sweep's 3-thread pool.
  std::vector<double> full_ms;
  std::uint64_t ops = 0;
  std::size_t full_diffs = 0;
  const auto full_start = Clock::now();
  for (const Round& r : rounds) {
    const auto start = Clock::now();
    const harness::SweepResult result =
        harness::run_sweep(round_config(audited, r.seed, kPoolThreads));
    full_ms.push_back(seconds_since(start) * 1e3);
    ops += r.ops;
    if (result_text(result) != r.text) ++full_diffs;
  }
  const double full_total = seconds_since(full_start);
  // Before any reference pass, so the peak is the timed phases' own.
  const double rss_mb = peak_rss_mb();
  report.check(full_diffs == 0,
               std::to_string(full_diffs) +
                   " round(s) differ between 1 and 3 threads");

  // Reference for sweep_lean: every round on the audited path, untimed.
  if (!audited) {
    std::size_t reference_diffs = 0;
    for (const Round& r : rounds) {
      harness::SweepConfig cfg = round_config(false, r.seed, kPoolThreads);
      cfg.audit = true;
      if (result_text(harness::run_sweep(cfg)) != r.text) ++reference_diffs;
    }
    report.check(reference_diffs == 0,
                 std::to_string(reference_diffs) +
                     " round(s) differ from the audited reference");
  }

  char buf[200];
  std::snprintf(buf, sizeof buf,
                "rounds %zu, sets %llu, light %.3f s, full %.3f s, start to "
                "first timed op %.3f s, set-up reps (s) ",
                rounds.size(), static_cast<unsigned long long>(sets),
                light_total, full_total, to_first_op);
  report.notes.push_back(buf + seconds_list(setup_s));
  std::snprintf(buf, sizeof buf,
                "round latency samples: %zu per phase; p99 has %zu beyond it",
                light_ms.size(), samples_beyond(light_ms.size(), 0.99));
  report.notes.push_back(buf);

  report.add("setup_s", percentile(setup_s, 0.5), "s");
  report.add("sets_per_s", static_cast<double>(sets) / light_total, "1/s");
  report.add("requests_per_s", static_cast<double>(ops) / full_total, "1/s");
  report.add("p50_ms.light", percentile(light_ms, 0.50), "ms");
  report.add("p99_ms.light", percentile(light_ms, 0.99), "ms");
  report.add("p50_ms.full", percentile(full_ms, 0.50), "ms");
  report.add("p99_ms.full", percentile(full_ms, 0.99), "ms");
  report.add("peak_rss_mb", rss_mb, "MB");
  return report;
}

}  // namespace perfbench
