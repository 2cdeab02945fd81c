// End-to-end explain3d facade: the full 3-stage pipeline over two
// databases and two SQL queries.
//
//   stage 1: execute queries, derive provenance (Def. 2.3), canonicalize
//            (Def. 3.1), and build the initial probabilistic tuple
//            mapping (blocking + similarity + calibration, Sec. 5.1.2);
//   stage 2: optimal explanations via Explain3DSolver (Sec. 3.2 + 4);
//   stage 3: summarization lives in src/summarize and is applied by the
//            caller (it needs workload-specific pattern attributes).
//
// This is the API the examples and benchmarks use. See docs/API.md for a
// guided tour and docs/ARCHITECTURE.md for the module map.

#ifndef EXPLAIN3D_CORE_PIPELINE_H_
#define EXPLAIN3D_CORE_PIPELINE_H_

#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "common/cancel.h"
#include "common/logging.h"
#include "common/status.h"
#include "core/matching_context.h"
#include "core/solver.h"
#include "matching/attribute_match.h"
#include "matching/mapping_generator.h"
#include "provenance/provenance.h"
#include "relational/database.h"

namespace explain3d {

/// \brief Everything stage 1 needs.
///
/// The raw `db1`/`db2` pointers are the low-level path: the caller
/// guarantees both databases outlive the call (and the matching context,
/// when caching). Prefer `Explain3DService` (service/service.h) for
/// serving workloads — it owns the databases behind generation-counted
/// `DatabaseHandle`s, fills this struct internally (including
/// `db_identity`), and retires stale cache entries on re-registration.
struct PipelineInput {
  const Database* db1 = nullptr;  ///< first database (must outlive the call)
  const Database* db2 = nullptr;  ///< second database (must outlive the call)
  std::string sql1;               ///< aggregate query against db1
  std::string sql2;               ///< aggregate query against db2
  /// M_attr (Definition 2.1); input to the framework, typically from a
  /// schema matcher. Must be non-empty (Definition 2.2 comparability).
  AttributeMatches attr_matches;
  MappingGenOptions mapping_options;  ///< stage-1 matching knobs
  /// Optional gold evidence pairs for the similarity calibrator.
  GoldPairs calibration_gold;
  /// Alternative to calibration_gold: called with the derived canonical
  /// relations and provenance tables to produce the labeled pairs
  /// (generators key their gold on canonical tuples, which only exist
  /// after stage 1 runs). Takes precedence over calibration_gold.
  /// eval/gold.h provides factory helpers.
  std::function<GoldPairs(const CanonicalRelation&, const CanonicalRelation&,
                          const Table&, const Table&)>
      calibration_oracle;
  /// Optional stage-1 artifact cache. When set, query execution,
  /// provenance, canonicalization, interning, and blocking are built once
  /// per (db1, db2, sql1, sql2, attr) and reused across RunExplain3D
  /// calls — the repeated-interactive-query fast path. The context must
  /// outlive the call; see core/matching_context.h for the immutability
  /// contract. Results returned by warm calls hold their own shared
  /// reference to the cached artifacts, so they stay valid even after the
  /// context is cleared or destroyed.
  MatchingContext* matching_context = nullptr;
  /// Stable identity of the database pair for the stage-1 cache key.
  /// When empty (the low-level default), RunExplain3D derives it by
  /// hashing the database CONTENTS (storage/content_hash.h) — one
  /// O(data) scan per call, but the key can never alias a different
  /// dataset through a recycled pointer, and entries stay valid across
  /// snapshot/restore into a fresh process. Explain3DService precomputes
  /// the same content identity once per registration and passes it here,
  /// so served requests skip the per-call scan; re-registering a handle
  /// with CHANGED contents yields a new identity and retires every stale
  /// entry, while re-registering identical contents keeps the cache warm.
  std::string db_identity;
  /// Optional cooperative cancellation (common/cancel.h; must outlive
  /// the call — Explain3DService wires the ticket's token here). Polled
  /// between the stage-1 build steps, at the stage boundary, and inside
  /// stage 2 down to branch-and-bound node granularity. A fired token
  /// fails the call with its Status (kCancelled / kDeadlineExceeded);
  /// the resolution latency is milliseconds once stage 2 is running
  /// (node-granularity polls — the case that matters, since stage 2 is
  /// where solves run long), but during stage 1 it is bounded by the
  /// current O(data) build step. Cancellation semantics for the cache:
  /// a build interrupted mid-stage-1 returns an error, so PARTIAL
  /// artifacts are never inserted; a request cancelled during stage 2
  /// leaves its COMPLETE stage-1 artifacts cached, so an identical
  /// retry still gets a warm hit.
  const CancelToken* cancel = nullptr;
};

/// Signature of PipelineInput::calibration_oracle.
using CalibrationOracle =
    std::function<GoldPairs(const CanonicalRelation&,
                            const CanonicalRelation&, const Table&,
                            const Table&)>;

/// \brief Quality metadata of a degraded result (see
/// Explain3DConfig::degradation_mode and Explain3DConfig::portfolio).
/// Default state = not degraded; only a kFallbackGreedy or portfolio run
/// whose exact solve was interrupted by its budget populates the rest.
struct DegradationInfo {
  /// Which solver produced PipelineResult::core().explanations.
  enum class Solver {
    kExact,           ///< the optimal Section-3.2/4 solver ran to completion
    kGreedyFallback,  ///< the Section-5.1.3 greedy baseline (anytime path)
    /// The portfolio race's greedy leg (Explain3DConfig::portfolio): the
    /// greedy answer was computed BEFORE the exact attempt (whose search
    /// it seeded as a pruning floor) and is returned because the budget
    /// interrupted that attempt.
    kGreedyPortfolio,
  };

  bool degraded = false;
  Solver solver = Solver::kExact;
  /// Why the exact attempt stopped (kDeadlineExceeded for a fired
  /// deadline/budget — the only code that degrades; user cancels always
  /// fail the call instead).
  StatusCode interrupt_code = StatusCode::kOk;

  // --- budget-slice accounting (seconds) ---
  double budget_seconds = 0;    ///< stage-2 budget observed at solve start
  double reserved_seconds = 0;  ///< slice withheld for the fallback
  double exact_seconds = 0;     ///< spent in the abandoned exact attempt
  double fallback_seconds = 0;  ///< spent in the greedy fallback itself

  /// Objective (Eq. 6 log-probability) of the returned fallback
  /// explanations — equals core().explanations.log_probability.
  double objective = 0;
  /// Admissible upper bound on the exact optimum, so `bound - objective`
  /// caps how far the fallback is from optimal. The interrupted solvers
  /// still discard their INCUMBENTS (that is what keeps strict-mode
  /// results bit-identical across machine speeds) but publish the
  /// deterministic optimistic bound their search state proves — the
  /// exact engines' root bound for every interrupted or never-started
  /// sub-problem. NaN only when no bound could be established.
  double incumbent_bound = std::numeric_limits<double>::quiet_NaN();
};

/// \brief Everything the pipeline produced, kept for inspection and
/// stage 3.
///
/// Reference-based: the stage-1 artifacts (answers, provenance, canonical
/// relations) live in one immutable, heap-allocated Stage1Artifacts block
/// shared through an ArtifactsPtr. A warm-cache RunExplain3D call hands
/// the SAME block to both the MatchingContext cache and the result, so
/// repeated calls copy nothing upstream of stage 2 — accessors like t1()
/// are views into the shared block, not per-call copies.
///
/// Lifetime: the result co-owns its artifacts. It remains fully usable
/// after the MatchingContext that served it is cleared, evicted, or
/// destroyed; the artifacts are freed when the last owner (cache entry or
/// result) goes away. Copying a PipelineResult is cheap for the artifact
/// part (one shared_ptr refcount bump) — only the per-call products
/// (initial mapping, stage-2 explanations) are deep-copied.
///
/// Only RunExplain3D constructs populated results; a default-constructed
/// PipelineResult has no artifacts and its artifact accessors E3D_CHECK.
class PipelineResult {
 public:
  /// Shared ownership handle of the immutable stage-1 block (the
  /// namespace-scope alias from core/matching_context.h).
  using ArtifactsPtr = explain3d::ArtifactsPtr;

  PipelineResult() = default;

  // --- stage-1 artifact views (zero-copy, shared with the cache) --------

  /// Q1(D1): the first query's (scalar aggregate) answer.
  const Value& answer1() const { return art().answer1; }
  /// Q2(D2): the second query's (scalar aggregate) answer.
  const Value& answer2() const { return art().answer2; }
  /// Both disagreeing answers as one pair (by value — the answers are
  /// scalar aggregates, and value semantics keep the pair safe to hold
  /// past the result's lifetime).
  std::pair<Value, Value> answers() const {
    return {art().answer1, art().answer2};
  }
  /// P1: provenance of answer1 (Definition 2.3).
  const ProvenanceRelation& p1() const { return art().p1; }
  /// P2: provenance of answer2.
  const ProvenanceRelation& p2() const { return art().p2; }
  /// T1: canonical relation of P1 (Definition 3.1).
  const CanonicalRelation& t1() const { return art().t1; }
  /// T2: canonical relation of P2.
  const CanonicalRelation& t2() const { return art().t2; }
  /// The shared stage-1 block itself (null only when default-constructed).
  /// Holding a copy keeps every artifact accessor of this result valid.
  const ArtifactsPtr& artifacts() const { return artifacts_; }

  // --- per-call products ------------------------------------------------

  /// M_tuple: the initial probabilistic tuple mapping (Section 5.1.2).
  const TupleMapping& initial_mapping() const { return initial_mapping_; }
  /// Stage-2 output: explanations + solve diagnostics. Exact and optimal
  /// unless degraded() — ALWAYS check degraded() before treating the
  /// explanations as the optimum.
  const Explain3DResult& core() const { return core_; }

  /// True when the explanations came from the anytime greedy fallback
  /// instead of the exact solver (kFallbackGreedy or portfolio mode; see
  /// Explain3DConfig::degradation_mode / ::portfolio). Never silently
  /// true: strict mode and in-budget runs report false.
  bool degraded() const { return degradation_.degraded; }
  /// Quality metadata of a degraded result (budget-slice accounting,
  /// fallback solver, interrupt reason).
  const DegradationInfo& degradation() const { return degradation_; }

  // --- per-stage wall-clock times (Section 5.2 reports both) ------------

  /// Provenance + canonicalize + mapping. On a warm cache this is the
  /// scoring/calibration remainder only.
  double stage1_seconds() const { return stage1_seconds_; }
  /// Explain3DSolver::Solve.
  double stage2_seconds() const { return stage2_seconds_; }
  /// End-to-end wall clock of the RunExplain3D call.
  double total_seconds() const { return total_seconds_; }

 private:
  friend Result<PipelineResult> RunExplain3D(const PipelineInput& input,
                                             const Explain3DConfig& config);

  const Stage1Artifacts& art() const {
    E3D_CHECK(artifacts_ != nullptr);
    return *artifacts_;
  }

  ArtifactsPtr artifacts_;
  TupleMapping initial_mapping_;
  Explain3DResult core_;
  DegradationInfo degradation_;
  double stage1_seconds_ = 0;
  double stage2_seconds_ = 0;
  double total_seconds_ = 0;
};

/// \brief Runs stages 1 and 2.
///
/// Fails with InvalidArgument when the queries are not comparable (empty
/// M_attr) and propagates parse/execution errors. With
/// PipelineInput::matching_context set, repeated calls over the same
/// (databases, queries, attribute match) reuse the cached stage-1
/// artifacts and perform no O(data) copy — see docs/API.md for the
/// warm-cache serving pattern.
Result<PipelineResult> RunExplain3D(const PipelineInput& input,
                                    const Explain3DConfig& config);

/// \brief Result-affecting stage-2 config tag ("|s2:..."), the incumbent
/// key's config suffix.
///
/// Covers every solver field that shapes the unit decomposition or the
/// per-unit optima; thread count and the warm_start/portfolio switches
/// are excluded (results are bit-identical across them). Exposed so
/// Explain3DService can key its admission-latency estimates by
/// (db-identity, config-tag) — requests sharing a tag over the same data
/// have comparable cost.
std::string Stage2ConfigTag(const Explain3DConfig& config);

/// \brief Canonical result identity of one explanation request: the
/// request-coalescing key.
///
/// The stage-1 cache key (database-pair content identity + queries +
/// attribute match + blocking) extended with EVERY remaining
/// result-affecting input — the full mapping options, the calibration
/// gold labels (hashed), and the stage-2/degradation config. Equal keys
/// guarantee bit-identical PipelineResults, which is what lets
/// Explain3DService resolve concurrent identical requests from ONE
/// computation. Thread counts are excluded (bit-identical across them).
/// A calibration ORACLE is a closure with no serializable identity, so
/// oracle-carrying requests take no key and must never coalesce.
std::string RequestResultKey(const std::string& db_identity,
                             const std::string& sql1, const std::string& sql2,
                             const AttributeMatches& attr_matches,
                             const MappingGenOptions& mapping,
                             const GoldPairs& gold,
                             const Explain3DConfig& config);

}  // namespace explain3d

#endif  // EXPLAIN3D_CORE_PIPELINE_H_
