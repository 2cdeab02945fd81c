// Explain3D benchmark driver.
//
//   explain3d_perfbench --workload <name> --seed <n> --seconds <s>
//                       --trace <0|1> --work-dir <dir>
//
// --trace 0 runs the timed phase and prints the end-to-end metrics;
// --trace 1 runs the timed phase for half the time and replays its
// operations layer by layer for the other half, printing the per-layer
// metrics. Human-readable lines come first; the last line of standard
// output is one JSON object {"correct", "attempted", "failed",
// "metrics"}.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "harness.h"
#include "simd/dispatch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: explain3d_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir>\n",
               why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string EnvOrUnset(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? "unset" : v;
}

/// Environment stamp: what the numbers were measured on.
void PrintEnvironment(const Args& args) {
  std::printf(
      "env {\"nproc\": %u, \"threads\": %zu, \"simd_tier\": %s, "
      "\"build_type\": %s, \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"EXPLAIN3D_NUM_THREADS\": %s, "
      "\"EXPLAIN3D_SIMD_TIER\": %s, \"EXPLAIN3D_SCALE\": %s}\n",
      std::thread::hardware_concurrency(), explain3d::ResolveThreads(0),
      JsonString(explain3d::simd::TierName(explain3d::simd::ActiveTier()))
          .c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0,
      JsonString(EnvOrUnset("EXPLAIN3D_NUM_THREADS")).c_str(),
      JsonString(EnvOrUnset("EXPLAIN3D_SIMD_TIER")).c_str(),
      JsonString(EnvOrUnset("EXPLAIN3D_SCALE")).c_str());
}

MetricMap EndToEnd(const WorkloadRun& run) {
  std::vector<double> latencies;
  size_t ok = 0, slo_met = 0;
  for (const OpRecord& op : run.ops) {
    if (!op.ok) continue;
    ++ok;
    latencies.push_back(op.latency);
    if (op.latency <= run.slo_seconds) ++slo_met;
  }
  const double attempted = static_cast<double>(run.ops.size());
  double objective = 0;
  for (const auto& [spec, digest] : run.reference) objective += digest.objective;
  objective /= static_cast<double>(std::max<size_t>(1, run.reference.size()));

  MetricMap m;
  m["latency_p50_s"] = {Percentile(latencies, 0.5), "s"};
  m["latency_p90_s"] = {Percentile(latencies, 0.9), "s"};
  m["throughput_ops"] = {static_cast<double>(ok) / run.phase_seconds, "ops/s"};
  m["slo_met_share"] = {static_cast<double>(slo_met) / attempted, "ratio"};
  m["ok_share"] = {static_cast<double>(ok) / attempted, "ratio"};
  m["neg_objective_mean"] = {-objective, "log-prob"};
  m["setup_s"] = {Percentile(run.setup_seconds, 0.5), "s"};
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  return m;
}

/// Per-layer metrics read from the service, the store and the generator.
void AddServiceLayers(const WorkloadRun& run, MetricMap* m) {
  (*m)["service.register_s"] = {run.register_seconds, "s"};
  (*m)["service.queue_p50_s"] = {run.queue_p50, "s"};
  (*m)["service.queue_p90_s"] = {run.queue_p90, "s"};
  (*m)["service.run_p50_s"] = {run.run_p50, "s"};
  (*m)["service.coalesced_share"] = {run.coalesced_share, "ratio"};
  (*m)["service.cache_hit_rate"] = {run.cache_hit_rate, "ratio"};
  (*m)["service.cache_evictions"] = {run.cache_evictions, "count"};
  (*m)["service.stale_resubmits"] = {run.stale_resubmits, "count"};
  (*m)["service.rejected"] = {run.rejected, "count"};
  (*m)["storage.restore_s"] = {run.restore_seconds, "s"};
  (*m)["storage.store_bytes"] = {run.store_bytes, "bytes"};
  (*m)["storage.restore_hit"] = {run.restore_hit, "ratio"};
  (*m)["storage.persisted_entries"] = {run.persisted_entries, "count"};
  (*m)["storage.persist_errors"] = {run.persist_errors, "count"};
  (*m)["loadgen.lag_max_s"] = {run.lag_max, "s"};
}

int Main(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
      have_seconds = args.seconds > 0;
    } else if (flag == "--trace") {
      args.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      args.work_dir.empty()) {
    return Usage("missing or invalid flag");
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == args.workload;
  if (!known) return Usage(("unknown workload " + args.workload).c_str());
  // Armed fault injection measures a different program.
  if (std::getenv("EXPLAIN3D_FAULT_SPEC") != nullptr) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with EXPLAIN3D_FAULT_SPEC set\n");
    return 2;
  }

  PrintEnvironment(args);
  const double timed = args.trace ? args.seconds / 2 : args.seconds;
  WorkloadRun run = RunWorkload(args, timed);

  MetricMap metrics;
  size_t attempted = run.ops.size();
  if (args.trace) {
    metrics = ReplayLayers(&run, args.seconds - timed);
    AddServiceLayers(run, &metrics);
    metrics["check.greedy_beats_exact"] = {
        static_cast<double>(GreedyBeatsExact(run)), "count"};
    attempted += static_cast<size_t>(metrics["trace.replayed_ops"].value);
  } else {
    metrics = EndToEnd(run);
  }
  // One entry per failed operation, plus solo-run and replay mismatches.
  const size_t failed = run.check_failures.size();

  std::printf("operations %zu, failed %zu, timed phase %.3f s, "
              "threads per request %zu\n",
              run.ops.size(), failed, run.phase_seconds,
              explain3d::ResolveThreads(run.specs.front().config.num_threads));
  std::printf("latency samples %zu (p90 has %zu beyond it)\n", run.ops.size(),
              run.ops.size() / 10);
  std::printf("check.greedy_beats_exact %zu of %zu answered keys "
              "(known defect: the node-capped exact search can end below "
              "greedy)\n",
              GreedyBeatsExact(run), run.reference.size());
  for (const std::string& f : run.check_failures) {
    std::printf("check failed: %s\n", f.c_str());
  }
  for (const auto& [name, metric] : metrics) {
    std::printf("metric %-34s %.9g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += run.check_failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    json += first ? "" : ", ";
    json += JsonString(name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(metric.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
