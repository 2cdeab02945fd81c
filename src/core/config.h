// Configuration knobs of the explain3d framework. docs/API.md carries
// the field-by-field reference table.

#ifndef EXPLAIN3D_CORE_CONFIG_H_
#define EXPLAIN3D_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace explain3d {

/// \brief What RunExplain3D returns when its stage-2 budget (request
/// deadline or Explain3DConfig::milp_time_limit_seconds) interrupts the
/// exact solve.
enum class DegradationMode {
  /// An interrupted solve FAILS the call with the token's Status
  /// (kDeadlineExceeded / kCancelled) and returns nothing — every result
  /// that IS returned is the bit-identical exact optimum. The default,
  /// and the semantics of every release before degradation existed.
  kStrict = 0,
  /// Anytime fallback: a slice of the stage-2 budget
  /// (Explain3DConfig::fallback_budget_fraction) is reserved up front;
  /// the exact solve runs under the remainder, and when that remainder
  /// interrupts it — a fired DEADLINE or BUDGET, never a user cancel —
  /// the greedy baseline (Section 5.1.3) runs on the already-built
  /// stage-1 artifacts inside the reserved slice. The result is
  /// explicitly marked PipelineResult::degraded() with quality metadata
  /// (DegradationInfo); a degraded answer is never a silent substitute
  /// for an exact one. Fast solves that finish inside the budget are
  /// bit-identical to kStrict.
  kFallbackGreedy = 1,
};

/// \brief All tunables of the 3-stage pipeline and the Section-4
/// optimizer.
///
/// Defaults follow the paper where it states values (θl=0.1, θh=0.9,
/// R=100); α and β are the a-priori probabilities of Section 3.1,
/// α,β ∈ (0.5, 1]. The same config parameterizes every algorithm of the
/// experiment harness, so ablations are one-field diffs.
struct Explain3DConfig {
  // --- probability model (Section 3.1) ---
  double alpha = 0.9;  ///< prior P(tuple covered by both datasets)
  double beta = 0.9;   ///< prior P(tuple impact is correct)

  // --- smart partitioning (Section 4) ---
  /// Batch size (max tuples per partition, Lmax). 0 disables graph
  /// partitioning: the solver still decomposes into connected components
  /// (the "NoOpt" configuration of Section 5.3 — the paper's basic
  /// algorithm modulo solver-presolve-equivalent decomposition).
  size_t batch_size = 1000;
  double theta_low = 0.1;   ///< θl: low-probability edge threshold
  double theta_high = 0.9;  ///< θh: high-probability edge threshold
  double reward = 100.0;    ///< R: weight reward/penalty factor
  bool use_pre_partitioning = true;  ///< Algorithm 2 on/off (ablation)
  /// Decompose each sub-problem into maximal connected components before
  /// solving (lossless, Section 4's opening observation; equivalent to an
  /// industrial solver's block presolve). The Figure-8 "NoOpt" runs turn
  /// this off to solve one monolithic problem, as the paper's basic
  /// algorithm does.
  bool decompose_components = true;
  uint64_t seed = 1;

  // --- stage-2 solving (Section 3.2) ---
  // Every unit is solved by the structure-exploiting exact engines of
  // core/exact_solver.h, which return the Section-3.2 MILP's optimum (see
  // docs/ARCHITECTURE.md, "Substitutions").
  /// Wall-clock budget of the WHOLE stage-2 solve, enforced through a
  /// deadline CancelToken (common/cancel.h) linked under the caller's
  /// request token. 0 (the default) = unlimited. When the budget fires,
  /// Solve fails with kDeadlineExceeded instead of returning a
  /// time-truncated incumbent — results are therefore bit-identical
  /// however slowly the machine runs (the old per-component wall-clock
  /// fallback path, which silently switched solvers under load, is
  /// gone). Prefer per-request deadlines (ExplanationRequest::
  /// deadline_seconds) on the serving path.
  double milp_time_limit_seconds = 0;
  /// Node limit of the assignment branch & bound, which solves units
  /// with a one-sided degree cap (⊑ / ⊒, the NP-hard case). Units with
  /// both sides capped (≡, or AVG/MAX/MIN) are solved as a polynomial
  /// max-weight matching, always to proven optimality, and ignore it.
  size_t exact_max_nodes = 4000000;

  // --- graceful degradation (anytime serving) ---
  /// See DegradationMode. Only consulted when the stage-2 budget is
  /// finite (a request deadline or milp_time_limit_seconds is set);
  /// unbounded calls always run the exact solve to completion.
  DegradationMode degradation_mode = DegradationMode::kStrict;
  /// Fraction of the stage-2 budget withheld from the exact solve and
  /// reserved for the greedy fallback under kFallbackGreedy, so a
  /// degraded answer still arrives INSIDE the caller's deadline. The
  /// greedy pass is O(m log m) over the initial mapping — milliseconds —
  /// so a thin slice suffices.
  double fallback_budget_fraction = 0.15;

  // --- stage-2 solver program (warm starts + portfolio, ROADMAP 2) ---
  /// Consult and maintain the MatchingContext's warm-start incumbent
  /// store: a completed fully-optimal solve records its per-unit optima
  /// (fingerprinted — see core/incumbents.h), and a repeated request over
  /// the same cache key seeds both exact engines with the recorded
  /// objective as a prune-only floor. Warm results are bit-identical to
  /// cold ones; a stale or mismatched record is skipped, never trusted.
  /// No effect without a MatchingContext in PipelineInput.
  bool warm_start = true;
  /// Portfolio mode: run the greedy baseline FIRST (milliseconds), use
  /// its per-unit objectives as live incumbent floors for the exact
  /// solve, and — when the stage-2 budget interrupts the exact attempt —
  /// return the greedy answer marked degraded
  /// (DegradationInfo::Solver::kGreedyPortfolio) with the interrupted
  /// search's admissible incumbent_bound. Subsumes kFallbackGreedy
  /// (no reserved budget slice needed: the fallback answer already
  /// exists when the exact solve starts) and takes precedence over
  /// degradation_mode when set. Exact solves that finish in budget
  /// return bit-identical results to a strict run.
  bool portfolio = false;

  // --- parallelism ---
  /// Worker threads for BOTH pipeline stages, run on the process-wide
  /// shared pool: stage 1's interning / blocking / candidate scoring
  /// (each per-tuple and per-pair unit is independent) and stage 2's
  /// per-sub-problem solve loop (merged in deterministic sub-problem
  /// order). Output is bit-identical to a serial run for every value.
  /// 0 = auto: hardware_concurrency, or the EXPLAIN3D_NUM_THREADS
  /// environment override when set (CI uses it to exercise the parallel
  /// paths); Explain3DService resolves auto to the request's share of
  /// the cores instead (ServiceOptions::max_concurrency). 1 = run
  /// serially on the calling thread.
  size_t num_threads = 0;

  // --- stage-1 caching ---
  /// Byte budget of the MatchingContext passed in PipelineInput (summed
  /// ApproxBytes of the cached Stage1Artifacts blocks): when nonzero,
  /// RunExplain3D forwards it to the context, which evicts
  /// least-recently-used entries past the budget. 0 = unlimited.
  /// Explain3DService surfaces the same knob as
  /// ServiceOptions::cache_budget_bytes.
  size_t cache_budget_bytes = 0;
};

}  // namespace explain3d

#endif  // EXPLAIN3D_CORE_CONFIG_H_
