// Shared types of the Explain3D benchmark harness.
//
// The harness drives every timed operation through the public
// Explain3DService API (workloads.cc) and, in the traced run, replays
// the same operations through each layer's public functions
// (replay.cc). main.cc parses the arguments and prints the result.

#ifndef EXPLAIN3D_PERFBENCH_HARNESS_H_
#define EXPLAIN3D_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/pipeline.h"
#include "matching/attribute_match.h"
#include "matching/mapping_generator.h"
#include "relational/database.h"
#include "service/service.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch space for persisted stores
};

/// One explanation request as the client knows it: everything needed to
/// submit it to the service and to replay it layer by layer.
struct RequestSpec {
  std::string key;  ///< request key: repeats must answer identically
  std::string sql1, sql2;
  explain3d::AttributeMatches attr_matches;
  explain3d::MappingGenOptions mapping_options;
  explain3d::GoldPairs calibration_gold;
  /// Entity-id columns for the IMDb calibration oracle ("" = none).
  std::string oracle_col1, oracle_col2;
  /// Per-row entity ids for the synthetic calibration oracle.
  std::shared_ptr<const std::vector<int64_t>> oracle_rows1, oracle_rows2;
  explain3d::Explain3DConfig config;
};

/// Builds the service request for `spec` over the given handles.
explain3d::ExplanationRequest MakeRequest(const RequestSpec& spec,
                                          explain3d::DatabaseHandle db1,
                                          explain3d::DatabaseHandle db2);

/// The calibration oracle of `spec`, or an empty function.
explain3d::CalibrationOracle MakeOracle(const RequestSpec& spec);

/// Bit-exact identity of an answer: the explanation set (Δ, δ, evidence
/// with probabilities) and its objective.
struct AnswerDigest {
  uint64_t hash = 0;
  double objective = 0;
  bool proven_optimal = false;
  bool degraded = false;
  bool operator==(const AnswerDigest& o) const {
    return hash == o.hash && objective == o.objective;
  }
};

AnswerDigest Digest(const explain3d::Explain3DResult& core, bool degraded);
inline AnswerDigest Digest(const explain3d::PipelineResult& result) {
  return Digest(result.core(), result.degraded());
}

/// Objective of the greedy baseline on the same stage-1 artifacts and
/// initial mapping as `result`.
double GreedyObjective(const explain3d::PipelineResult& result,
                       const RequestSpec& spec);

/// One timed operation.
struct OpRecord {
  size_t spec = 0;        ///< index into WorkloadRun::specs
  double due = 0;         ///< offset of its send time in the timed phase
  double latency = 0;     ///< seconds (from the due time when open-loop)
  double run_seconds = 0;  ///< PipelineResult::total_seconds (0 if failed)
  bool ok = false;        ///< status OK and every output check passed
  std::string error;      ///< failure cause when !ok
  size_t nodes = 0, units = 0, milp_units = 0, assignment_units = 0;
  size_t warm_start_hits = 0;
  /// Generation of the mutable database the request was answered on
  /// (service-mix writes alternate it); the replay mirrors retirement.
  uint64_t data_version = 0;
  AnswerDigest digest;  ///< valid when the request returned OK
};

/// The client-side record of one workload run: what was sent, what came
/// back, and the counters read from the service and the store.
struct WorkloadRun {
  std::vector<RequestSpec> specs;
  std::vector<OpRecord> ops;
  double phase_seconds = 0;    ///< wall time of the timed phase
  double slo_seconds = 0;      ///< the workload's latency limit
  std::vector<double> setup_seconds;  ///< one per repeated setup
  /// Per-key reference answer (first answer, or the setup's cold answer)
  /// and the greedy objective on the same inputs.
  std::map<size_t, AnswerDigest> reference;
  std::map<size_t, double> greedy_objective;
  std::vector<std::string> check_failures;  ///< "<check>: <cause>"
  /// Databases the replay runs against: index 0 = side 1; sides 2.. are
  /// the alternating contents of side 2 (OpRecord::data_version picks).
  std::vector<std::shared_ptr<const explain3d::Database>> db1_versions;
  std::vector<std::shared_ptr<const explain3d::Database>> db2_versions;
  /// Whether the replay should start with every key's stage-1 front end
  /// already cached (restored workloads).
  bool replay_prewarmed = false;
  /// Whether repeats in the op stream hit the stage-1 cache (false for
  /// imdb-adhoc, where each pass runs against a fresh service).
  bool replay_caches = true;

  // Counters from the service and store (deltas over the timed phase).
  double register_seconds = 0;  ///< mean RegisterDatabase time
  double restore_seconds = 0;   ///< mean service construction (restore)
  double restore_hit = 0;       ///< share of restarts served warm
  double store_bytes = 0;
  double queue_p50 = 0, queue_p90 = 0, run_p50 = 0;
  double coalesced_share = 0, cache_hit_rate = 0;
  double cache_evictions = 0, stale_resubmits = 0, rejected = 0;
  double persisted_entries = 0, persist_errors = 0;
  double lag_max = 0;
};

/// Runs the workload's setup (repeated; the median is reported) and its
/// timed phase for `seconds`.
WorkloadRun RunWorkload(const Args& args, double seconds);

/// Names of the workloads RunWorkload accepts.
const std::vector<std::string>& WorkloadNames();

/// One named metric of the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Traced run: replays `run`'s operations through the layers' public
/// functions for at most `seconds` and returns the per-layer metrics.
/// Appends replay mismatches to run->check_failures.
MetricMap ReplayLayers(WorkloadRun* run, double seconds);

/// Percentile by linear interpolation between closest ranks, q in [0, 1].
double Percentile(std::vector<double> values, double q);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Sums greedy-beats-exact over the run's reference answers.
size_t GreedyBeatsExact(const WorkloadRun& run);

}  // namespace perfbench

#endif  // EXPLAIN3D_PERFBENCH_HARNESS_H_
