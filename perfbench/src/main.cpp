// pardsm-bench: end-to-end and per-layer figures of the pardsm engine.
//
//   pardsm_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--trace-out FILE]
//   pardsm_bench --list
//
// Untraced (--trace 0): times the workload's set-up several times, then
// repeats the full run until S seconds have passed, checks every run
// against the independent expectation (checks.h) and prints the
// end-to-end metrics.  Traced (--trace 1): times each layer's public
// calls on their own, runs the workload with the timed multicast boundary
// beside untraced runs, and prints the per-layer metrics; --trace-out
// writes the spans as Chrome trace-event JSON.  The last line of stdout is
// always one JSON object {correct, attempted, failed, metrics}.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "checks.h"
#include "mcs/causal_partial_adhoc.h"
#include "mcs/factory.h"
#include "sharegraph/sharding.h"
#include "trace.h"
#include "workloads.h"

namespace pardsm::bench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pardsm_bench: %s\nusage: pardsm_bench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
               "       pardsm_bench --list\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      for (const std::string& name : workload_names()) {
        std::printf("%s\n", name.c_str());
      }
      std::exit(0);
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One engine run with its wall time and allocations.
struct TimedRun {
  mcs::ScenarioRunResult result;
  double wall_s = 0.0;
  AllocCount allocs;
};

TimedRun timed_run(mcs::EngineConfig config) {
  TimedRun t;
  const AllocCount a0 = allocs_now();
  const Clock::time_point t0 = Clock::now();
  t.result = mcs::run(std::move(config));
  t.wall_s = since(t0);
  t.allocs = allocs_now() - a0;
  return t;
}

/// The printed result: metrics in order, plus the correctness verdict.
class Report {
 public:
  void metric(const char* name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      fail(std::string("metric ") + name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back({name, value, unit});
  }
  void fail(std::string why) { errors_.push_back(std::move(why)); }
  void fail_all(const std::vector<std::string>& whys) {
    for (const std::string& w : whys) fail(w);
  }
  [[nodiscard]] bool correct() const { return errors_.empty(); }

  /// Human-readable lines, then the JSON line last.
  void print(std::uint64_t attempted, std::uint64_t failed) const {
    for (const std::string& e : errors_) {
      std::printf("CHECK FAILED: %s\n", e.c_str());
    }
    for (const Metric& m : metrics_) {
      std::printf("%-32s %16s %s\n", m.name, number(m.value).c_str(), m.unit);
    }
    std::printf("attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      if (i != 0) json += ", ";
      json += '"';
      json += m.name;
      json += "\": {\"value\": ";
      json += number(m.value);
      json += ", \"unit\": \"";
      json += m.unit;
      json += "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    const char* name;
    double value;
    const char* unit;
  };
  /// Shortest text that reads back as exactly `v`.
  static std::string number(double v) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
  }
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

/// Everything both modes need before the first timed call: the
/// expectation the runs are checked against.
struct Prepared {
  graph::Distribution dist;
  ProcessSets cliques;
  ProcessSets relevant;  ///< R(x) by hoop enumeration
  workload::Spec full;
  workload::Spec setup;
  Expectation expected;
};

Prepared prepare(const Workload& w, std::uint64_t seed, Report& report) {
  Prepared p;
  p.dist = w.topology();
  p.cliques = cliques_of(p.dist);
  bool truncated = false;
  p.relevant = relevant_by_enumeration(graph::ShareGraph(p.dist), truncated);
  if (truncated) report.fail("hoop enumeration truncated: R(x) incomplete");
  p.full = w.full_spec(seed);
  p.setup = w.setup_spec(seed);
  p.expected = expect(w, p.dist, p.full, p.relevant);
  return p;
}

/// Check one full run; the first one also goes through the self-test.
void check(const Prepared& p, const mcs::ScenarioRunResult& r, bool first,
           Report& report) {
  report.fail_all(check_run(p.expected, r));
  if (first) report.fail_all(self_test(p.expected, r));
}

/// Ops of the stream that a run did not complete.
std::uint64_t failed_ops(const Prepared& p, const mcs::ScenarioRunResult& r) {
  return p.expected.ops - std::min(p.expected.ops, r.ops_completed);
}

// ---------------------------------------------------------------------------
// Untraced mode: the end-to-end metrics.

/// The simulator seed of round `round` of a run with seed `seed`: the seed
/// itself first, then distinct values derived from it.
std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  return seed + round * 0x9E3779B97F4A7C15ULL;  // wraps; stays distinct
}

/// Cheap set-ups are repeated within a round until they take this share of
/// the full run's time (at most 5 per round), for a steadier median.
constexpr double kSetupShare = 0.2;

int run_untraced(const Workload& w, const Args& args) {
  Report report;
  const Prepared p = prepare(w, args.seed, report);
  const Clock::time_point start = Clock::now();

  // Rounds of: set-up (the distribution plus a one-op-per-process run of
  // the same configuration; repeated while cheap next to the full run),
  // then the full run.  The run phase of a round is the full run minus
  // the round's own set-up run, so both sides of the difference see the
  // same host conditions.  Every round replays the same op stream; each
  // draws its channel faults from a simulator seed of its own, so the
  // traffic figures of a lossy workload average over many loss patterns.
  std::vector<double> setup_s, ops_per_s;
  std::uint64_t attempted = 0, failed = 0, ops = 0, msgs = 0, bytes = 0;
  double last_full_s = 0.0;
  while (ops_per_s.size() < 3 || since(start) < args.seconds) {
    const std::uint64_t sim_seed = round_seed(args.seed, ops_per_s.size());
    std::vector<double> round_setup_run;
    double round_setup_total = 0.0;
    while (round_setup_run.empty() ||
           (round_setup_run.size() < 5 &&
            round_setup_total < kSetupShare * last_full_s)) {
      const Clock::time_point t0 = Clock::now();
      const graph::Distribution dist = w.topology();
      const double dist_s = since(t0);
      const TimedRun t = timed_run(
          make_config(w, dist, p.setup, sim_seed, w.runtime, nullptr));
      setup_s.push_back(dist_s + t.wall_s);
      round_setup_run.push_back(t.wall_s);
      round_setup_total += dist_s + t.wall_s;
    }

    const TimedRun t = timed_run(
        make_config(w, p.dist, p.full, sim_seed, w.runtime, nullptr));
    check(p, t.result, ops_per_s.empty(), report);
    const mcs::ScenarioRunResult& r = t.result;
    attempted += p.expected.ops;
    failed += failed_ops(p, r);
    ops += r.ops_completed;
    msgs += r.total_traffic.msgs_sent;
    bytes += r.total_traffic.wire_bytes_sent();
    ops_per_s.push_back(ratio(static_cast<double>(r.ops_completed),
                              t.wall_s - median(round_setup_run)));
    last_full_s = t.wall_s;
  }

  std::sort(ops_per_s.begin(), ops_per_s.end());
  std::fprintf(stderr,
               "%zu set-ups, %zu full runs: ops/s min %.0f median %.0f max "
               "%.0f\n",
               setup_s.size(), ops_per_s.size(), ops_per_s.front(),
               median(ops_per_s), ops_per_s.back());
  report.metric("ops_per_s", median(ops_per_s), "ops/s");
  report.metric("setup_s", median(setup_s), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  report.metric("msgs_per_op", ratio(msgs, ops), "msgs/op");
  report.metric("bytes_per_op", ratio(bytes, ops), "B/op");
  report.print(attempted, failed);
  return report.correct() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced mode: the per-layer metrics.

int run_traced(const Workload& w, const Args& args) {
  Report report;
  Tracer tracer;
  const Clock::time_point start = Clock::now();
  const std::size_t root = tracer.open("bench", "bench");
  const bool adhoc = w.protocol == mcs::ProtocolKind::kCausalPartialAdHoc;

  // -- sharegraph: each public call timed on its own.
  graph::Distribution dist;
  std::size_t span_topo = 0, span_sg = 0;
  {
    const Tracer::Scope s(tracer, "sharegraph.topology", "sharegraph");
    span_topo = s.id();
    dist = w.topology();
  }
  {
    const Tracer::Scope s(tracer, "sharegraph.share_graph", "sharegraph");
    span_sg = s.id();
    const graph::ShareGraph sg(dist);
  }
  // Spans that do not apply to the workload report 0 s (README.md).
  std::size_t span_relevance = Tracer::kNoSpan, span_shard = Tracer::kNoSpan;
  if (adhoc) {
    const Tracer::Scope s(tracer, "sharegraph.relevance", "sharegraph");
    span_relevance = s.id();
    const auto analysis = mcs::StaticRelevance::analyze(dist);
  }
  if (w.parallel()) {
    const Tracer::Scope s(tracer, "sharegraph.shard_assignment", "sharegraph");
    span_shard = s.id();
    const auto shards = graph::shard_assignment(
        dist, static_cast<int>(parallel_workers()));
  }

  // -- the expectation (hoop enumeration, replay): the benchmark's own work.
  Prepared p;
  {
    const Tracer::Scope s(tracer, "bench.expectation", "bench");
    p = prepare(w, args.seed, report);
  }

  // -- workload: the generator over the whole stream, on its own.
  std::size_t span_gen = 0;
  {
    const Tracer::Scope s(tracer, "workload.generate", "workload");
    span_gen = s.id();
    const workload::Generator gen(dist, p.full);
    std::uint64_t digest = 0;
    for (std::size_t proc = 0; proc < dist.process_count(); ++proc) {
      for (std::uint64_t k = 0; k < p.full.ops_per_process; ++k) {
        const workload::OpSpec op = gen.op(static_cast<ProcessId>(proc), k);
        digest += static_cast<std::uint64_t>(op.var) + op.value;
      }
    }
    // A volatile store keeps the compiler from dropping the timed loop.
    volatile std::uint64_t sink = digest;
    (void)sink;
  }

  // -- mcs: process construction on its own, then the set-up run.
  std::size_t span_mk = 0;
  {
    const Tracer::Scope s(tracer, "mcs.make_processes", "mcs");
    span_mk = s.id();
    mcs::HistoryRecorder recorder(dist.process_count(), dist.var_count);
    recorder.use_discard_mode();
    const auto procs = mcs::make_processes(w.protocol, dist, recorder);
  }
  TimedRun setup_run;
  {
    const Tracer::Scope s(tracer, "mcs.setup_run", "mcs");
    setup_run = timed_run(
        make_config(w, dist, p.setup, args.seed, w.runtime, nullptr));
  }

  // -- full runs: untraced beside traced (timed multicast boundary).
  TimedMulticast multicast(tracer);
  std::vector<double> untraced_wall, traced_wall;
  std::uint64_t attempted = 0, failed = 0;
  TimedRun untraced;
  std::uint64_t plans = 0, recipients = 0, submit_ns = 0;
  const double pair_budget = w.parallel() ? args.seconds / 2 : args.seconds;
  while (traced_wall.empty() || since(start) < pair_budget) {
    {
      const Tracer::Scope s(tracer, "mcs.run_untraced", "reference");
      untraced = timed_run(
          make_config(w, dist, p.full, args.seed, w.runtime, nullptr));
    }
    check(p, untraced.result, untraced_wall.empty(), report);
    untraced_wall.push_back(untraced.wall_s);
    attempted += p.expected.ops;
    failed += failed_ops(p, untraced.result);

    const std::uint64_t plans0 = multicast.plans();
    const std::uint64_t recipients0 = multicast.recipients();
    const std::uint64_t ns0 = multicast.submit_ns();
    TimedRun traced;
    std::size_t span_run = 0;
    {
      const Tracer::Scope s(tracer, "mcs.run", "mcs");
      span_run = s.id();
      multicast.set_parent(span_run);
      traced = timed_run(
          make_config(w, dist, p.full, args.seed, w.runtime, &multicast));
    }
    tracer.add_aggregate(span_run, "mcs.submit", "simnet",
                         multicast.plans() - plans0,
                         multicast.submit_ns() - ns0);
    check(p, traced.result, false, report);
    traced_wall.push_back(traced.wall_s);
    attempted += p.expected.ops;
    failed += failed_ops(p, traced.result);
    plans = multicast.plans() - plans0;
    recipients = multicast.recipients() - recipients0;
    submit_ns = multicast.submit_ns() - ns0;
    if (p.expected.exact_msgs && recipients != p.expected.msgs) {
      report.fail("submitted recipients " + std::to_string(recipients) +
                  " differ from the expected message count " +
                  std::to_string(p.expected.msgs));
    }
  }

  const mcs::ScenarioRunResult& r = untraced.result;
  const double ops = static_cast<double>(r.ops_completed);
  const double run_s = median(untraced_wall);
  const double untraced_ops_s = ratio(ops, run_s - setup_run.wall_s);
  const double traced_ops_s = ratio(ops, median(traced_wall) - setup_run.wall_s);

  // -- the parallel root's load replayed on the sequential Simulator.
  double seq_ops_s = 0.0;
  if (w.parallel()) {
    const Tracer::Scope s(tracer, "simnet.seq_replay", "reference");
    const TimedRun seq_setup = timed_run(make_config(
        w, dist, p.setup, args.seed, mcs::EngineRuntime::kSimulator, nullptr));
    std::vector<double> seq_wall;
    while (seq_wall.empty() || since(start) < args.seconds) {
      const TimedRun seq = timed_run(make_config(
          w, dist, p.full, args.seed, mcs::EngineRuntime::kSimulator, nullptr));
      check(p, seq.result, false, report);
      seq_wall.push_back(seq.wall_s);
      attempted += p.expected.ops;
      failed += failed_ops(p, seq.result);
    }
    seq_ops_s = ratio(ops, median(seq_wall) - seq_setup.wall_s);
  }
  tracer.close(root);

  const auto quantile_us = [&](double q) {
    return r.op_latency.quantile(q).us;
  };
  const AllocCount run_allocs = untraced.allocs - setup_run.allocs;
  const std::uint64_t msgs = r.total_traffic.msgs_sent;

  const auto span_s = [&](std::size_t id) {
    return id == Tracer::kNoSpan ? 0.0 : tracer.seconds(id);
  };
  report.metric("sharegraph.topology_s", span_s(span_topo), "s");
  report.metric("sharegraph.share_graph_s", span_s(span_sg), "s");
  report.metric("sharegraph.relevance_s", span_s(span_relevance), "s");
  report.metric("sharegraph.shard_assignment_s", span_s(span_shard), "s");
  report.metric("sharegraph.relevant_over_clique",
                ratio(total_size(p.relevant), total_size(p.cliques)), "ratio");
  report.metric("workload.gen_ns_per_op",
                ratio(tracer.seconds(span_gen) * 1e9, ops), "ns/op");
  report.metric("mcs.make_processes_s", tracer.seconds(span_mk), "s");
  report.metric("mcs.run_s", run_s, "s");
  report.metric("mcs.events_per_op", ratio(static_cast<double>(r.events), ops),
                "events/op");
  report.metric("mcs.host_ns_per_event",
                ratio((run_s - setup_run.wall_s) * 1e9,
                      static_cast<double>(r.events)),
                "ns");
  report.metric("mcs.allocs_per_op",
                ratio(static_cast<double>(run_allocs.calls), ops), "allocs/op");
  report.metric("mcs.alloc_bytes_per_op",
                ratio(static_cast<double>(run_allocs.bytes), ops), "B/op");
  report.metric("mcs.sim_op_p50_us", quantile_us(0.50), "us");
  report.metric("mcs.sim_op_p99_us", quantile_us(0.99), "us");
  report.metric("mcs.sim_op_p999_us", quantile_us(0.999), "us");
  report.metric("mcs.send_plans_per_op", ratio(static_cast<double>(plans), ops),
                "plans/op");
  report.metric("mcs.recipients_per_plan", ratio(recipients, plans), "count");
  report.metric("mcs.submit_ns_per_plan", ratio(submit_ns, plans), "ns");
  report.metric("simnet.control_bytes_per_msg",
                ratio(r.total_traffic.control_bytes_sent, msgs), "B/msg");
  report.metric("simnet.payload_bytes_per_msg",
                ratio(r.total_traffic.payload_bytes_sent, msgs), "B/msg");
  report.metric("simnet.retransmissions_per_op",
                ratio(static_cast<double>(r.retransmissions), ops), "count/op");
  report.metric("simnet.loss_drops_per_op",
                ratio(static_cast<double>(r.drops.loss), ops), "count/op");
  report.metric("simnet.active_channel_pairs",
                static_cast<double>(r.active_channel_pairs), "count");
  report.metric("simnet.channel_state_kb",
                static_cast<double>(r.channel_state_bytes) / 1024.0, "KiB");
  std::uint64_t observed = 0;
  for (const auto& seen : r.observed_relevant) observed += seen.size();
  report.metric("simnet.exposure_over_clique",
                ratio(observed, total_size(p.cliques)), "ratio");
  report.metric("simnet.sim_finish_s",
                static_cast<double>(r.finished_at.us) / 1e6, "s");
  report.metric("simnet.seq_ops_per_s", seq_ops_s, "ops/s");
  report.metric("simnet.par_speedup_vs_seq", ratio(untraced_ops_s, seq_ops_s),
                "ratio");
  report.metric("trace.overhead_ratio", ratio(traced_ops_s, untraced_ops_s),
                "ratio");

  std::fprintf(stderr, "self time by layer (span minus children):\n");
  double self_sharegraph = 0, self_workload = 0, self_mcs = 0, self_simnet = 0;
  for (const Tracer::LayerSelf& l : tracer.self_times()) {
    std::fprintf(stderr, "  %-12s %12.6f s\n", l.layer.c_str(), l.seconds);
    if (l.layer == "sharegraph") self_sharegraph = l.seconds;
    if (l.layer == "workload") self_workload = l.seconds;
    if (l.layer == "mcs") self_mcs = l.seconds;
    if (l.layer == "simnet") self_simnet = l.seconds;
  }
  report.metric("self.sharegraph_s", self_sharegraph, "s");
  report.metric("self.workload_s", self_workload, "s");
  report.metric("self.mcs_s", self_mcs, "s");
  report.metric("self.simnet_s", self_simnet, "s");

  if (!args.trace_out.empty() && !tracer.write_chrome_json(args.trace_out)) {
    report.fail("cannot write the trace file " + args.trace_out);
  }
  report.print(attempted, failed);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace pardsm::bench

int main(int argc, char** argv) {
  using namespace pardsm::bench;
  const Args args = parse_args(argc, argv);
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) usage(("unknown workload " + args.workload).c_str());
  try {
    return args.trace ? run_traced(*w, args) : run_untraced(*w, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pardsm_bench: %s\n", e.what());
    return 1;
  }
}
