// Cross-call cache of stage-1 artifacts for interactive serving.
//
// Repeated RunExplain3D calls on the same (databases, queries, attribute
// match) triple — the interactive pattern behind Section 5.2's heavy
// workloads — redo query execution, provenance derivation,
// canonicalization, token interning, and blocking from scratch on every
// call, even though none of that depends on the mapping or solver options.
// A MatchingContext memoizes those artifacts; the pipeline reuses them
// when the caller passes a context in PipelineInput, leaving only
// candidate scoring + calibration (and stage 2) as per-call work.
//
// Cache keys are opaque strings chosen by the caller. The pipeline keys
// entries by a CONTENT HASH of the two databases (storage/content_hash.h)
// whenever a context is attached, so equal data — in this process or
// across a service restart — shares entries and edited data can never be
// served stale artifacts. (Callers who bypass the pipeline and key by
// pointer inherit the old caveat: Clear() before mutating or destroying
// a keyed database.)
//
// Thread-safe: concurrent pipelines may share one context. Entries are
// immutable once built and handed out as shared_ptrs, so a Clear() or
// rebuild never invalidates artifacts an in-flight call still reads.

#ifndef EXPLAIN3D_CORE_MATCHING_CONTEXT_H_
#define EXPLAIN3D_CORE_MATCHING_CONTEXT_H_

#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "core/incumbents.h"
#include "matching/blocking.h"
#include "matching/token_interning.h"
#include "provenance/provenance.h"

namespace explain3d {

/// \brief Everything stage 1 derives from (db1, db2, sql1, sql2, attr)
/// alone.
///
/// Built in place on the heap and never moved afterwards: i1/i2 hold
/// references to t1/t2/dict, so the owning Stage1Artifacts object must
/// stay put for their whole lifetime. Once published through an
/// ArtifactsPtr the block is immutable — the cache, every in-flight
/// pipeline call, and every returned PipelineResult read the same bytes
/// concurrently without synchronization.
struct Stage1Artifacts {
  Value answer1, answer2;  ///< the disagreeing query results
  ProvenanceRelation p1, p2;  ///< provenance of answer1/answer2 (Def. 2.3)
  CanonicalRelation t1, t2;   ///< canonicalized provenance (Def. 3.1)
  TokenDictionary dict;       ///< token ids shared by i1 and i2
  std::unique_ptr<InternedRelation> i1, i2;  ///< cached token-id sets
  /// Blocking candidates over (i1, i2); all pairs when blocking is off.
  CandidatePairs candidates;
  /// Keeps external backing storage alive for blocks whose i1/i2 borrow
  /// their columnar arrays instead of owning them — snapshot loads park
  /// the mmapped file (storage::MmapFile) here, so the mapping lives
  /// exactly as long as the last ArtifactsPtr. Null for built blocks.
  std::shared_ptr<const void> storage_owner;
};

/// \brief Shared ownership handle of an immutable Stage1Artifacts block.
///
/// This is the ownership currency of the warm-cache fast path: the
/// MatchingContext cache entry, the running pipeline, and the returned
/// PipelineResult each hold one ArtifactsPtr to the SAME block, so a
/// repeated RunExplain3D call copies no artifact data at all. The block
/// is freed when the last owner releases it — a result therefore outlives
/// Clear(), eviction, and even the destruction of the context that served
/// it.
using ArtifactsPtr = std::shared_ptr<const Stage1Artifacts>;

/// \brief Approximate heap footprint of one artifacts block, in bytes.
///
/// Walks the answers, provenance tables, canonical relations, token
/// dictionary, interned keys, and candidate pairs through their public
/// accessors. It is an estimate (container slack and hash-map overhead
/// are modeled with flat per-element constants), intended for cache
/// budgeting, not allocator-exact accounting.
size_t ApproxBytes(const Stage1Artifacts& art);

/// \brief Byte charge of one warm-start incumbent record stored under
/// `key`: the record and its units plus the same key overhead as an
/// artifact entry.
size_t IncumbentCharge(const std::string& key, const SolverIncumbents& inc);

/// \brief Cross-call cache of stage-1 artifacts (see file comment for the
/// immutability and lifetime contract).
///
/// Entries are LRU-ordered and byte-accounted: each artifact entry is
/// charged ApproxBytes plus its key string (stored twice: map + LRU
/// list) plus a flat node overhead, and each solver-incumbent record is
/// charged its units plus the same key overhead, so the budget prices
/// everything the cache actually holds. With a nonzero byte budget,
/// inserting past the budget evicts least-recently used artifact entries
/// until the cache fits again — except the most recently touched entry,
/// which always stays so a single oversized block still serves its warm
/// path — then LRU incumbent records if still over. Eviction releases
/// only the cache's reference: in-flight calls and returned results keep
/// theirs.
class MatchingContext {
 public:
  using ArtifactsPtr = explain3d::ArtifactsPtr;
  using IncumbentsPtr = explain3d::IncumbentsPtr;
  /// Miss handler: builds the artifacts for a key. Runs outside the lock.
  using Builder = std::function<Result<ArtifactsPtr>()>;

  /// \brief `budget_bytes` caps the summed ApproxBytes of all entries;
  /// 0 = unlimited (Explain3DConfig::cache_budget_bytes forwards here).
  explicit MatchingContext(size_t budget_bytes = 0)
      : budget_bytes_(budget_bytes) {}

  /// \brief Returns the cached artifacts for `key`, invoking `build` on a
  /// miss.
  ///
  /// The build runs outside the lock (concurrent misses on one key may
  /// build twice; the first insert wins and every caller gets that one).
  /// A hit refreshes the entry's LRU position; a miss inserts at the
  /// most-recent end and evicts over-budget entries in LRU order. The
  /// returned pointer co-owns the block with the cache entry: it stays
  /// valid after Clear(), eviction, and after this context is destroyed.
  Result<ArtifactsPtr> GetOrBuild(const std::string& key,
                                  const Builder& build);

  /// \brief Inserts a pre-built artifacts block (the snapshot-restore
  /// path). Returns false (and keeps the live entry) when `key` is
  /// already present — a block built this process is never displaced by
  /// a restored one. Does not mark the key dirty, so a restore is never
  /// re-persisted. Evicts over budget like GetOrBuild.
  bool Put(const std::string& key, ArtifactsPtr art);

  /// \brief Snapshot of every cached (key, artifacts) pair, MRU first.
  /// The shared_ptrs keep the blocks valid after the lock is released —
  /// the persistence tier serializes from this snapshot outside the lock.
  std::vector<std::pair<std::string, ArtifactsPtr>> Entries() const;

  /// Snapshot of every recorded (key, incumbents) pair, MRU first.
  std::vector<std::pair<std::string, IncumbentsPtr>> IncumbentEntries() const;

  /// \brief Keys inserted or refreshed by real builds since the last
  /// call, split by store. Write-behind persistence drains this; restore
  /// inserts (Put / PutIncumbents(..., dirty=false)) never appear.
  struct DirtyKeys {
    std::vector<std::string> artifacts;
    std::vector<std::string> incumbents;
    bool empty() const { return artifacts.empty() && incumbents.empty(); }
  };
  DirtyKeys TakeDirtyKeys();

  /// \brief Lock-only lookups that do NOT touch LRU order or hit/miss
  /// counters — the persistence thread reads entries to serialize without
  /// distorting cache behavior. Null when absent (e.g. evicted since the
  /// dirty mark).
  ArtifactsPtr Peek(const std::string& key) const;
  IncumbentsPtr PeekIncumbents(const std::string& key) const;

  /// \brief Drops every cached entry (stage-1 artifacts AND solver
  /// incumbents).
  ///
  /// In-flight and previously returned ArtifactsPtr values stay valid —
  /// eviction only releases the cache's own reference. Call after
  /// mutating or before destroying a cached database (see file comment).
  void Clear();

  /// \brief Drops every entry whose key satisfies `pred`; returns how
  /// many were dropped. Explain3DService retires a re-registered
  /// database's entries this way (their keys embed its generation). The
  /// predicate is applied to the incumbent store too — incumbent keys
  /// are the stage-1 key plus a stage-2 suffix, so identity-prefix
  /// predicates retire both in one pass.
  size_t EraseIf(const std::function<bool(const std::string&)>& pred);

  // --- stage-2 warm-start incumbent store (core/incumbents.h) -----------
  //
  // A small LRU keyed by the stage-1 cache key plus a stage-2 config
  // tag. Entries are immutable shared_ptrs, like the artifacts; the
  // per-unit fingerprints inside make a stale hit harmless (the solver
  // skips seeding on any mismatch), so the store needs no generation
  // machinery beyond the key itself.

  /// \brief Returns the recorded incumbents for `key`, or nullptr.
  /// Counts toward incumbent_hits()/incumbent_misses().
  IncumbentsPtr GetIncumbents(const std::string& key);

  /// \brief Records the incumbents of a completed, fully-optimal solve.
  /// Ignored unless `inc.complete`. Overwrites an existing entry (the
  /// optima are deterministic, so re-recording is refresh-only).
  /// `dirty=false` (the restore path) skips the write-behind dirty mark.
  void PutIncumbents(const std::string& key, SolverIncumbents inc,
                     bool dirty = true);

  /// Current incumbent-store entry count and lifetime counters.
  size_t incumbent_entries() const;
  size_t incumbent_hits() const;
  size_t incumbent_misses() const;

  /// \brief Updates the byte budget, evicting immediately if the cache
  /// is now over it. 0 = unlimited.
  void set_budget_bytes(size_t budget_bytes);
  size_t budget_bytes() const;

  size_t size() const;
  /// Summed ApproxBytes of the current entries.
  size_t bytes() const;
  /// Lifetime lookup/eviction counters (diagnostics; tests assert reuse).
  size_t hits() const;
  size_t misses() const;
  size_t evictions() const;

 private:
  struct Entry {
    ArtifactsPtr art;
    size_t bytes = 0;
    /// Position in lru_ (front = most recently used).
    std::list<std::string>::iterator lru_it;
  };

  struct IncumbentEntry {
    IncumbentsPtr inc;
    size_t bytes = 0;  ///< record + key charge, included in bytes_
    /// Position in inc_lru_ (front = most recently used).
    std::list<std::string>::iterator lru_it;
  };

  /// Entry cap of the incumbent store. Incumbent records are tiny (a few
  /// doubles per unit), so a flat entry cap replaces byte accounting.
  static constexpr size_t kMaxIncumbentEntries = 4096;

  /// Evicts LRU-tail entries until bytes_ fits the budget: artifact
  /// entries first (never the last remaining one), then incumbent
  /// records if still over. Caller holds mu_.
  void EvictOverBudgetLocked();

  /// Inserts an artifact entry; caller holds mu_, has verified the key
  /// is absent, and precomputed ApproxBytes outside the lock. Marks the
  /// key dirty when `dirty`.
  ArtifactsPtr InsertLocked(const std::string& key, ArtifactsPtr art,
                            size_t art_bytes, bool dirty);

  mutable std::mutex mu_;
  std::list<std::string> lru_;  ///< keys, most recently used first
  std::unordered_map<std::string, Entry> cache_;
  size_t budget_bytes_ = 0;
  size_t bytes_ = 0;
  size_t hits_ = 0;
  size_t misses_ = 0;
  size_t evictions_ = 0;

  std::list<std::string> inc_lru_;  ///< incumbent keys, MRU first
  std::unordered_map<std::string, IncumbentEntry> incumbents_;
  size_t incumbent_hits_ = 0;
  size_t incumbent_misses_ = 0;

  /// Keys touched by real builds since the last TakeDirtyKeys (sets, so
  /// a rebuilt key persists once per drain).
  std::unordered_set<std::string> dirty_artifacts_;
  std::unordered_set<std::string> dirty_incumbents_;
};

}  // namespace explain3d

#endif  // EXPLAIN3D_CORE_MATCHING_CONTEXT_H_
