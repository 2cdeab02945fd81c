// Helpers shared by the workloads and the traced replay: request
// construction, answer digests, the greedy reference, percentiles and
// peak memory.

#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "baselines/greedy.h"
#include "core/probability_model.h"
#include "eval/gold.h"
#include "storage/checksum.h"

namespace perfbench {

using namespace explain3d;

CalibrationOracle MakeOracle(const RequestSpec& spec) {
  if (!spec.oracle_col1.empty()) {
    return MakeEntityColumnOracle(spec.oracle_col1, spec.oracle_col2);
  }
  if (spec.oracle_rows1 != nullptr) {
    return MakeRowEntityOracle(*spec.oracle_rows1, *spec.oracle_rows2);
  }
  return {};
}

ExplanationRequest MakeRequest(const RequestSpec& spec, DatabaseHandle db1,
                               DatabaseHandle db2) {
  ExplanationRequest req;
  req.db1 = db1;
  req.db2 = db2;
  req.sql1 = spec.sql1;
  req.sql2 = spec.sql2;
  req.attr_matches = spec.attr_matches;
  req.mapping_options = spec.mapping_options;
  req.calibration_gold = spec.calibration_gold;
  req.calibration_oracle = MakeOracle(spec);
  req.config = spec.config;
  return req;
}

namespace {

uint64_t Bits(double v) {
  uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

}  // namespace

AnswerDigest Digest(const Explain3DResult& core, bool degraded) {
  const ExplanationSet& e = core.explanations;
  std::vector<uint64_t> words;
  words.reserve(4 + 2 * e.delta.size() + 4 * e.value_changes.size() +
                3 * e.evidence.size());
  words.push_back(e.delta.size());
  words.push_back(e.value_changes.size());
  words.push_back(e.evidence.size());
  for (const ProvExplanation& d : e.delta) {
    words.push_back(static_cast<uint64_t>(d.side));
    words.push_back(d.tuple);
  }
  for (const ValueExplanation& v : e.value_changes) {
    words.push_back(static_cast<uint64_t>(v.side));
    words.push_back(v.tuple);
    words.push_back(Bits(v.old_impact));
    words.push_back(Bits(v.new_impact));
  }
  for (const TupleMatch& m : e.evidence) {
    words.push_back(m.t1);
    words.push_back(m.t2);
    words.push_back(Bits(m.p));
  }
  words.push_back(Bits(e.log_probability));
  AnswerDigest d;
  d.hash = storage::Checksum64(words.data(), words.size() * sizeof(uint64_t));
  d.objective = e.log_probability;
  d.proven_optimal = core.stats.all_optimal;
  d.degraded = degraded;
  return d;
}

double GreedyObjective(const PipelineResult& result, const RequestSpec& spec) {
  ProbabilityModel prob(spec.config);
  ExplanationSet greedy =
      GreedyBaseline(result.t1(), result.t2(), result.initial_mapping(),
                     spec.attr_matches.front(), prob);
  return prob.Score(result.t1(), result.t2(), result.initial_mapping(),
                    greedy);
}

size_t GreedyBeatsExact(const WorkloadRun& run) {
  size_t count = 0;
  for (const auto& [spec, digest] : run.reference) {
    auto it = run.greedy_objective.find(spec);
    if (it == run.greedy_objective.end() || digest.degraded) continue;
    double slack = 1e-9 * std::max(1.0, std::fabs(it->second));
    if (digest.objective < it->second - slack) ++count;
  }
  return count;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
