#include "core/matching_context.h"

#include <utility>

#include "common/fault.h"

namespace explain3d {

namespace {

// Flat per-element estimate of unordered_map/list node overhead (two
// pointers, a hash, allocator rounding). Keeping it a constant makes the
// accounting deterministic across standard libraries.
constexpr size_t kNodeOverhead = 64;

// Small strings live inline in the object; only spilled capacity counts
// beyond the owner's own footprint.
size_t SpilledBytes(const std::string& s) {
  return s.capacity() > sizeof(std::string) ? s.capacity() : 0;
}

size_t StringBytes(const std::string& s) {
  return sizeof(std::string) + SpilledBytes(s);
}

size_t ValueBytes(const Value& v) {
  size_t b = sizeof(Value);
  if (v.type() == DataType::kString) b += SpilledBytes(v.AsString());
  return b;
}

size_t RowBytes(const Row& row) {
  size_t b = sizeof(Row);
  for (const Value& v : row) b += ValueBytes(v);
  return b;
}

size_t TableBytes(const Table& t) {
  size_t b = sizeof(Table) + StringBytes(t.name());
  for (const Column& c : t.schema().columns()) {
    b += sizeof(Column) + StringBytes(c.name);
  }
  for (const Row& r : t.rows()) b += RowBytes(r);
  return b;
}

size_t ProvenanceBytes(const ProvenanceRelation& p) {
  return TableBytes(p.table) + p.impact.capacity() * sizeof(double) +
         sizeof(ProvenanceRelation);
}

size_t CanonicalBytes(const CanonicalRelation& t) {
  size_t b = sizeof(CanonicalRelation);
  for (const std::string& a : t.key_attrs) b += StringBytes(a);
  for (const CanonicalTuple& tup : t.tuples) {
    b += sizeof(CanonicalTuple) + RowBytes(tup.key) +
         tup.prov_rows.capacity() * sizeof(size_t);
  }
  return b;
}

size_t DictionaryBytes(const TokenDictionary& dict) {
  size_t b = sizeof(TokenDictionary);
  for (uint32_t id = 0; id < dict.size(); ++id) {
    // Each token is stored twice (id map key + reverse vector) plus the
    // map node.
    b += 2 * StringBytes(dict.token(id)) + kNodeOverhead;
  }
  return b;
}

size_t InternedBytes(const InternedRelation& rel) {
  // The columnar layout keeps everything in a handful of flat arrays
  // (token ids + offsets + per-cell classification columns); the relation
  // reports their heap footprint itself — O(1), no per-tuple walk.
  return sizeof(InternedRelation) + rel.flat_bytes();
}

// Full charge of one artifact cache entry: the block itself plus the key
// string (stored twice — map key and LRU list node) plus node overhead.
size_t EntryCharge(const std::string& key, size_t art_bytes) {
  return art_bytes + 2 * StringBytes(key) + kNodeOverhead;
}

}  // namespace

size_t IncumbentCharge(const std::string& key, const SolverIncumbents& inc) {
  return sizeof(SolverIncumbents) +
         inc.units.capacity() * sizeof(UnitIncumbent) + 2 * StringBytes(key) +
         kNodeOverhead;
}

size_t ApproxBytes(const Stage1Artifacts& art) {
  size_t b = sizeof(Stage1Artifacts);
  b += ValueBytes(art.answer1) + ValueBytes(art.answer2);
  b += ProvenanceBytes(art.p1) + ProvenanceBytes(art.p2);
  b += CanonicalBytes(art.t1) + CanonicalBytes(art.t2);
  b += DictionaryBytes(art.dict);
  if (art.i1 != nullptr) b += InternedBytes(*art.i1);
  if (art.i2 != nullptr) b += InternedBytes(*art.i2);
  b += art.candidates.capacity() * sizeof(CandidatePairs::value_type);
  return b;
}

Result<MatchingContext::ArtifactsPtr> MatchingContext::GetOrBuild(
    const std::string& key, const Builder& build) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      // Refresh the LRU position: this entry is now the most recent.
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.art;
    }
    ++misses_;
  }
  // Build outside the lock so a slow stage 1 never blocks lookups of
  // other dataset pairs. The O(data) byte-accounting walk stays outside
  // too (the block is immutable once built).
  E3D_ASSIGN_OR_RETURN(ArtifactsPtr built, build());
  size_t built_bytes = ApproxBytes(*built);
  // Fault probe (common/fault.h): a fired cache.insert drops the freshly
  // built block and fails the call — the transient-failure shape of an
  // insert race or allocation failure. A retry simply rebuilds.
  E3D_RETURN_IF_ERROR(FAULT_POINT("cache.insert"));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    // Two calls raced the build; the first insert wins and both return
    // the same artifacts (they are deterministic anyway).
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.art;
  }
  return InsertLocked(key, std::move(built), built_bytes, /*dirty=*/true);
}

MatchingContext::ArtifactsPtr MatchingContext::InsertLocked(
    const std::string& key, ArtifactsPtr art, size_t art_bytes, bool dirty) {
  Entry entry;
  entry.bytes = EntryCharge(key, art_bytes);
  entry.art = std::move(art);
  lru_.push_front(key);
  entry.lru_it = lru_.begin();
  bytes_ += entry.bytes;
  ArtifactsPtr result = entry.art;
  cache_.emplace(key, std::move(entry));
  if (dirty) dirty_artifacts_.insert(key);
  EvictOverBudgetLocked();
  return result;
}

bool MatchingContext::Put(const std::string& key, ArtifactsPtr art) {
  if (art == nullptr) return false;
  size_t art_bytes = ApproxBytes(*art);  // O(data); outside the lock
  std::lock_guard<std::mutex> lock(mu_);
  if (cache_.count(key) > 0) return false;
  InsertLocked(key, std::move(art), art_bytes, /*dirty=*/false);
  return true;
}

std::vector<std::pair<std::string, MatchingContext::ArtifactsPtr>>
MatchingContext::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, ArtifactsPtr>> out;
  out.reserve(cache_.size());
  for (const std::string& key : lru_) {
    out.emplace_back(key, cache_.at(key).art);
  }
  return out;
}

std::vector<std::pair<std::string, MatchingContext::IncumbentsPtr>>
MatchingContext::IncumbentEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, IncumbentsPtr>> out;
  out.reserve(incumbents_.size());
  for (const std::string& key : inc_lru_) {
    out.emplace_back(key, incumbents_.at(key).inc);
  }
  return out;
}

MatchingContext::DirtyKeys MatchingContext::TakeDirtyKeys() {
  std::lock_guard<std::mutex> lock(mu_);
  DirtyKeys out;
  out.artifacts.assign(dirty_artifacts_.begin(), dirty_artifacts_.end());
  out.incumbents.assign(dirty_incumbents_.begin(), dirty_incumbents_.end());
  dirty_artifacts_.clear();
  dirty_incumbents_.clear();
  return out;
}

MatchingContext::ArtifactsPtr MatchingContext::Peek(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  return it == cache_.end() ? nullptr : it->second.art;
}

MatchingContext::IncumbentsPtr MatchingContext::PeekIncumbents(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = incumbents_.find(key);
  return it == incumbents_.end() ? nullptr : it->second.inc;
}

void MatchingContext::EvictOverBudgetLocked() {
  if (budget_bytes_ == 0) return;
  // Fault probe: abandons this eviction round. Benign by design — the
  // cache stays over budget until the next insert retries the walk; the
  // stress suite uses it to prove the byte accounting survives skipped
  // maintenance.
  if (FAULT_FIRED("cache.evict")) return;
  // Never evict the final entry: a single block larger than the budget
  // must still serve its warm path (evicting it would just thrash).
  while (bytes_ > budget_bytes_ && cache_.size() > 1) {
    const std::string& victim = lru_.back();
    auto it = cache_.find(victim);
    bytes_ -= it->second.bytes;
    cache_.erase(it);
    lru_.pop_back();
    ++evictions_;
  }
  // Incumbent records are byte-accounted too; if the artifact side alone
  // cannot fit the budget, drop LRU incumbents (cheap to rebuild — one
  // warm exact solve re-records them).
  while (bytes_ > budget_bytes_ && !incumbents_.empty()) {
    auto it = incumbents_.find(inc_lru_.back());
    bytes_ -= it->second.bytes;
    incumbents_.erase(it);
    inc_lru_.pop_back();
  }
}

void MatchingContext::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
  lru_.clear();
  bytes_ = 0;
  incumbents_.clear();
  inc_lru_.clear();
  dirty_artifacts_.clear();
  dirty_incumbents_.clear();
}

size_t MatchingContext::EraseIf(
    const std::function<bool(const std::string&)>& pred) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t erased = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (pred(*it)) {
      auto entry = cache_.find(*it);
      bytes_ -= entry->second.bytes;
      cache_.erase(entry);
      it = lru_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  // Incumbent keys extend their stage-1 key, so the same predicate (e.g.
  // the service's identity-prefix match) retires both stores in one pass.
  for (auto it = inc_lru_.begin(); it != inc_lru_.end();) {
    if (pred(*it)) {
      auto entry = incumbents_.find(*it);
      bytes_ -= entry->second.bytes;
      incumbents_.erase(entry);
      it = inc_lru_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  return erased;
}

MatchingContext::IncumbentsPtr MatchingContext::GetIncumbents(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = incumbents_.find(key);
  if (it == incumbents_.end()) {
    ++incumbent_misses_;
    return nullptr;
  }
  ++incumbent_hits_;
  inc_lru_.splice(inc_lru_.begin(), inc_lru_, it->second.lru_it);
  return it->second.inc;
}

void MatchingContext::PutIncumbents(const std::string& key,
                                    SolverIncumbents inc, bool dirty) {
  if (!inc.complete) return;
  size_t charge = IncumbentCharge(key, inc);
  auto shared =
      std::make_shared<const SolverIncumbents>(std::move(inc));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = incumbents_.find(key);
  if (it != incumbents_.end()) {
    bytes_ -= it->second.bytes;
    bytes_ += charge;
    it->second.bytes = charge;
    it->second.inc = std::move(shared);
    inc_lru_.splice(inc_lru_.begin(), inc_lru_, it->second.lru_it);
    if (dirty) dirty_incumbents_.insert(key);
    return;
  }
  IncumbentEntry entry;
  entry.inc = std::move(shared);
  entry.bytes = charge;
  inc_lru_.push_front(key);
  entry.lru_it = inc_lru_.begin();
  bytes_ += charge;
  incumbents_.emplace(key, std::move(entry));
  if (dirty) dirty_incumbents_.insert(key);
  while (incumbents_.size() > kMaxIncumbentEntries) {
    auto victim = incumbents_.find(inc_lru_.back());
    bytes_ -= victim->second.bytes;
    incumbents_.erase(victim);
    inc_lru_.pop_back();
  }
  EvictOverBudgetLocked();
}

size_t MatchingContext::incumbent_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return incumbents_.size();
}

size_t MatchingContext::incumbent_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return incumbent_hits_;
}

size_t MatchingContext::incumbent_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return incumbent_misses_;
}

void MatchingContext::set_budget_bytes(size_t budget_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_bytes_ = budget_bytes;
  EvictOverBudgetLocked();
}

size_t MatchingContext::budget_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_bytes_;
}

size_t MatchingContext::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

size_t MatchingContext::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

size_t MatchingContext::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

size_t MatchingContext::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

size_t MatchingContext::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace explain3d
