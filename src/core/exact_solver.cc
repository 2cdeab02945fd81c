#include "core/exact_solver.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "core/incumbents.h"

namespace explain3d {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// One assignment option of an A-side tuple.
struct Option {
  bool remove = false;
  size_t b_local = 0;     // target group when !remove
  size_t match_id = 0;    // global match index when !remove
  double delta = 0;       // immediate score delta (A term + edge gain)
};

struct Instance {
  // A = assigning (degree-capped) side; B = group side.
  bool swapped = false;    // true when A is the paper's side 2
  bool in_cap = false;     // B in-degree capped at 1 (≡ / strict 1-1)
  std::vector<size_t> a_global, b_global;
  std::vector<double> a_impact, b_impact;
  std::vector<std::vector<Option>> options;        // per A tuple, sorted
  std::vector<std::vector<size_t>> a_neighbors;    // per A tuple: B locals
  double const_edges = 0;  // Σ log(1-p) over the sub-problem's matches
};

/// Term of a B tuple holding `members` A tuples whose impacts sum to
/// `sum`: removed when empty, else kept — changed iff the sum disagrees.
double GroupTerm(const ProbabilityModel& prob, size_t members, double sum,
                 double impact) {
  if (members == 0) return prob.a;
  return ImpactsDiffer(sum, impact) ? prob.b : prob.c;
}

class AssignmentBnb {
 public:
  AssignmentBnb(const Instance& inst, const ProbabilityModel& prob,
                size_t max_nodes, const CancelToken* cancel)
      : inst_(inst), prob_(prob), max_nodes_(max_nodes), cancel_(cancel) {}

  /// Builds the root search state and the admissible root bound; no
  /// search. Cheap — O(tuples + options).
  void Prepare() {
    size_t na = inst_.a_global.size();
    size_t nb = inst_.b_global.size();
    b_sum_.assign(nb, 0.0);
    b_count_.assign(nb, 0);
    remaining_adj_.assign(nb, 0);
    for (const auto& neigh : inst_.a_neighbors) {
      for (size_t j : neigh) ++remaining_adj_[j];
    }
    // B tuples with no incident edges are finalized (removed) up front.
    root_score_ = 0;
    unfinalized_ = 0;
    for (size_t j = 0; j < nb; ++j) {
      if (remaining_adj_[j] == 0) {
        root_score_ += prob_.a;
      } else {
        ++unfinalized_;
      }
    }
    // Static optimistic suffix for the A side.
    suffix_opt_.assign(na + 1, 0.0);
    for (size_t k = na; k-- > 0;) {
      double best = prob_.a;
      for (const Option& o : inst_.options[k]) {
        best = std::max(best, o.delta);
      }
      suffix_opt_[k] = suffix_opt_[k + 1] + best;
    }
    // Same formula as the per-node pruning bound, evaluated at the root:
    // an upper bound on anything the search could ever find.
    root_bound_ = root_score_ + suffix_opt_[0] +
                  prob_.c * static_cast<double>(unfinalized_);
    choice_.assign(na, nullptr);
    best_choice_.assign(na, nullptr);
    best_score_ = kNegInf;
  }

  /// Runs the search. `seed_score` (same scale as best_score — excludes
  /// const_edges) is an optional warm-start floor strictly below the
  /// optimum: it primes best_score_ for PRUNING only, never best_choice_.
  /// Because the DFS visit order is static (fixed option order), pruning
  /// can only skip subtrees, never reorder them — so a seeded run accepts
  /// a subsequence of the cold run's incumbent chain ending at the same
  /// final leaf, and decodes the identical solution.
  void Run(double seed_score = kNegInf) {
    Prepare();
    if (seed_score > kNegInf) best_score_ = seed_score;
    Dfs(0, root_score_);
  }

  double best_score() const { return best_score_; }
  /// True once a leaf was actually accepted. A seeded run that never
  /// accepts one (a stale floor above every leaf, or a node limit hit
  /// before the first acceptance) has no decodable best_choice_ — the
  /// caller must fall back to a cold run.
  bool found_leaf() const { return found_leaf_; }
  /// Valid after Prepare()/Run(): admissible upper bound on the optimum
  /// (excludes inst_.const_edges, like best_score).
  double root_bound() const { return root_bound_; }
  const std::vector<const Option*>& best_choice() const {
    return best_choice_;
  }
  bool proven_optimal() const { return nodes_ < max_nodes_ && !aborted_; }
  bool aborted() const { return aborted_; }
  size_t nodes() const { return nodes_; }

 private:
  void Dfs(size_t k, double score) {
    if (aborted_) return;
    // Cancellation point: every kCancelStride-th node. DFS nodes are
    // orders of magnitude cheaper than the MILP solver's (no LP solve),
    // so the clock read is amortized over a stride; the stride still
    // bounds cancel→return latency to microseconds.
    if (cancel_ != nullptr && nodes_ % kCancelStride == 0 &&
        !cancel_->Check().ok()) {
      aborted_ = true;
      return;
    }
    if (nodes_ >= max_nodes_ && best_score_ > kNegInf) return;
    if (k == inst_.a_global.size()) {
      if (score > best_score_ + 1e-12) {
        best_score_ = score;
        best_choice_ = choice_;
        found_leaf_ = true;
      }
      return;
    }
    // Admissible bound: best static option per remaining A tuple plus the
    // optimistic "kept, unchanged" term for every unfinalized group.
    double bound =
        score + suffix_opt_[k] + prob_.c * static_cast<double>(unfinalized_);
    if (bound <= best_score_ + 1e-12) return;

    for (const Option& o : inst_.options[k]) {
      if (!o.remove && inst_.in_cap && b_count_[o.b_local] > 0) continue;
      ++nodes_;
      double next = score + o.delta;
      if (!o.remove) {
        b_sum_[o.b_local] += inst_.a_impact[k];
        ++b_count_[o.b_local];
      }
      // Groups losing their last undecided neighbor finalize now.
      size_t finalized_here = 0;
      double finalized_score = 0;
      for (size_t j : inst_.a_neighbors[k]) {
        if (--remaining_adj_[j] == 0) {
          ++finalized_here;
          finalized_score +=
              GroupTerm(prob_, b_count_[j], b_sum_[j], inst_.b_impact[j]);
        }
      }
      unfinalized_ -= finalized_here;
      choice_[k] = &o;

      Dfs(k + 1, next + finalized_score);

      choice_[k] = nullptr;
      unfinalized_ += finalized_here;
      for (size_t j : inst_.a_neighbors[k]) ++remaining_adj_[j];
      if (!o.remove) {
        b_sum_[o.b_local] -= inst_.a_impact[k];
        --b_count_[o.b_local];
      }
      if (aborted_) return;
      if (nodes_ >= max_nodes_ && best_score_ > kNegInf) return;
    }
  }

  /// Cancellation poll stride (power of two; see Dfs).
  static constexpr size_t kCancelStride = 64;

  const Instance& inst_;
  const ProbabilityModel& prob_;
  size_t max_nodes_;
  const CancelToken* cancel_;
  size_t nodes_ = 0;
  bool aborted_ = false;     ///< cancel token fired mid-search
  bool found_leaf_ = false;  ///< at least one leaf accepted

  std::vector<double> b_sum_;
  std::vector<size_t> b_count_;
  std::vector<size_t> remaining_adj_;
  std::vector<double> suffix_opt_;
  std::vector<const Option*> choice_;
  std::vector<const Option*> best_choice_;
  size_t unfinalized_ = 0;
  double root_score_ = 0;
  double root_bound_ = kNegInf;
  double best_score_ = kNegInf;
};

/// Builds the assignment instance shared by the search and the search-free
/// bound. Fails when no side is degree-capped or a match dangles.
Result<Instance> BuildInstance(const CanonicalRelation& t1,
                               const CanonicalRelation& t2,
                               const TupleMapping& mapping,
                               const AttributeMatch& attr,
                               const ProbabilityModel& prob,
                               const SubProblem& sub) {
  const DegreeCaps caps = EffectiveDegreeCaps(t1, t2, attr);
  const bool cap1 = caps.side1, cap2 = caps.side2;
  if (!cap1 && !cap2) {
    return Status::InvalidArgument(
        "many-to-many attribute matches admit no valid mapping");
  }

  Instance inst;
  inst.swapped = !cap1;             // A must be the degree-capped side
  inst.in_cap = cap1 && cap2;       // ≡ / strict: groups take one member

  const std::vector<size_t>& a_ids = inst.swapped ? sub.t2_ids : sub.t1_ids;
  const std::vector<size_t>& b_ids = inst.swapped ? sub.t1_ids : sub.t2_ids;
  const CanonicalRelation& a_rel = inst.swapped ? t2 : t1;
  const CanonicalRelation& b_rel = inst.swapped ? t1 : t2;

  inst.a_global = a_ids;
  inst.b_global = b_ids;
  for (size_t g : a_ids) inst.a_impact.push_back(a_rel.tuples[g].impact);
  for (size_t g : b_ids) inst.b_impact.push_back(b_rel.tuples[g].impact);

  std::unordered_map<size_t, size_t> a_local, b_local;
  for (size_t k = 0; k < a_ids.size(); ++k) a_local.emplace(a_ids[k], k);
  for (size_t k = 0; k < b_ids.size(); ++k) b_local.emplace(b_ids[k], k);

  inst.options.resize(a_ids.size());
  inst.a_neighbors.resize(a_ids.size());
  for (size_t mid : sub.match_ids) {
    const TupleMatch& m = mapping[mid];
    size_t ga = inst.swapped ? m.t2 : m.t1;
    size_t gb = inst.swapped ? m.t1 : m.t2;
    auto ita = a_local.find(ga);
    auto itb = b_local.find(gb);
    if (ita == a_local.end() || itb == b_local.end()) {
      return Status::InvalidArgument(
          "sub-problem match references tuples outside the sub-problem");
    }
    double gain = std::log(m.p) - std::log(1.0 - m.p);
    inst.const_edges += std::log(1.0 - m.p);
    Option o;
    o.remove = false;
    o.b_local = itb->second;
    o.match_id = mid;
    o.delta = prob.c + gain;
    inst.options[ita->second].push_back(o);
    inst.a_neighbors[ita->second].push_back(itb->second);
  }
  for (size_t k = 0; k < a_ids.size(); ++k) {
    Option removal;
    removal.remove = true;
    removal.delta = prob.a;
    inst.options[k].push_back(removal);
    std::stable_sort(inst.options[k].begin(), inst.options[k].end(),
                     [](const Option& x, const Option& y) {
                       return x.delta > y.delta;
                     });
    // Deduplicate neighbor list (parallel matches to the same group).
    auto& neigh = inst.a_neighbors[k];
    std::sort(neigh.begin(), neigh.end());
    neigh.erase(std::unique(neigh.begin(), neigh.end()), neigh.end());
  }
  return inst;
}

/// The score AssignmentBnb reaches at the leaf `choice`, summed in the
/// DFS's own order (root removals, then per A tuple its option delta plus
/// the groups it finalizes), so equal leaves give equal bits. Excludes
/// const_edges, like the search scores.
double LeafScore(const Instance& inst, const ProbabilityModel& prob,
                 const std::vector<const Option*>& choice) {
  size_t na = inst.a_global.size();
  size_t nb = inst.b_global.size();
  constexpr size_t kNoNeighbor = static_cast<size_t>(-1);
  std::vector<size_t> last(nb, kNoNeighbor);
  for (size_t k = 0; k < na; ++k) {
    for (size_t j : inst.a_neighbors[k]) last[j] = k;
  }
  std::vector<double> b_sum(nb, 0.0);
  std::vector<size_t> b_count(nb, 0);
  for (size_t k = 0; k < na; ++k) {
    if (!choice[k]->remove) {
      b_sum[choice[k]->b_local] += inst.a_impact[k];
      ++b_count[choice[k]->b_local];
    }
  }
  double score = 0;
  for (size_t j = 0; j < nb; ++j) {
    if (last[j] == kNoNeighbor) score += prob.a;
  }
  for (size_t k = 0; k < na; ++k) {
    double next = score + choice[k]->delta;
    double finalized_score = 0;
    for (size_t j : inst.a_neighbors[k]) {
      if (last[j] == k) {
        finalized_score +=
            GroupTerm(prob, b_count[j], b_sum[j], inst.b_impact[j]);
      }
    }
    score = next + finalized_score;
  }
  return score;
}

/// Exact polynomial engine for units whose both sides are degree-capped
/// (≡ attribute matches, or a strict AVG/MAX/MIN aggregate). Each group
/// then holds at most one member, so the objective splits into
/// independent per-pair terms and the optimum is a max-weight perfect
/// assignment (solved as min-cost over the negated weights):
///
///   rows    = the A tuples, then one dummy per B tuple;
///   columns = the B tuples, then one dummy per A tuple;
///   A_k → B_j          one edge per option (parallel matches stay
///                      separate): delta + group term of {A_k} in B_j;
///   A_k → dummy_k      removal: a;
///   dummy_j → B_j      B_j left unassigned: a;
///   dummy_j → dummy_k  per neighbour pair: 0 — absorbs both dummies of
///                      a matched pair.
///
/// Successive shortest paths (Dijkstra over reduced costs, stopping at
/// the first free column) yield one optimum and optimal duals. Every
/// optimum is a perfect matching of the duals' zero-reduced-cost edges,
/// so ExtractFirst can rotate the matching, A tuple by A tuple, to the
/// optimum the branch & bound's DFS accepts first: A tuples ascending,
/// options in their sorted order.
class OneToOneMatching {
 public:
  OneToOneMatching(const Instance& inst, const ProbabilityModel& prob,
                   const CancelToken* cancel)
      : inst_(inst), prob_(prob), cancel_(cancel) {}

  /// Solves and extracts the first optimum; false when `cancel` fired.
  bool Run() {
    Build();
    if (!Live()) return false;
    // Initial duals: row reduction, then column reduction (every row and
    // column has an edge). Rows whose cheapest edge reaches a free column
    // take it without a search; that edge is tight since its column's
    // reduction is zero.
    u_.assign(num_rows_, kInf);
    v_.assign(num_cols_, kInf);
    for (const Edge& e : edges_) u_[e.row] = std::min(u_[e.row], e.cost);
    for (const Edge& e : edges_) {
      v_[e.col] = std::min(v_[e.col], e.cost - u_[e.row]);
    }
    row_edge_.assign(num_rows_, kNone);
    col_row_.assign(num_cols_, kNone);
    for (size_t r = 0; r < num_rows_; ++r) {
      for (size_t e = row_begin_[r]; e < row_begin_[r + 1]; ++e) {
        if (edges_[e].cost == u_[r] && col_row_[edges_[e].col] == kNone) {
          row_edge_[r] = e;
          col_row_[edges_[e].col] = r;
          break;
        }
      }
    }
    dist_.assign(num_cols_, kInf);
    pred_.assign(num_cols_, kNone);
    done_.assign(num_cols_, false);
    for (size_t r = 0; r < num_rows_; ++r) {
      if (row_edge_[r] != kNone) continue;
      if (augmentations_ % kCancelStride == 0 && !Live()) return false;
      Augment(r);
      ++augmentations_;
    }
    return ExtractFirst();
  }

  /// Valid after a successful Run(): the chosen option per A tuple.
  const std::vector<const Option*>& choice() const { return choice_; }
  /// Shortest-path searches run (the engine's "nodes").
  size_t augmentations() const { return augmentations_; }

 private:
  struct Edge {
    size_t row, col;
    double cost;
    const Option* option;  ///< the A tuple's option; nullptr on dummy rows
  };

  static constexpr size_t kNone = static_cast<size_t>(-1);
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  /// Reduced costs at or below this count as zero: well above the
  /// rounding the dual updates accumulate, far below any real score
  /// difference. Exact ties then read as ties, as in the search.
  static constexpr double kTightTol = 1e-9;
  /// Cancellation poll stride, in augmentations (power of two).
  static constexpr size_t kCancelStride = 64;

  void Build() {
    size_t na = inst_.a_global.size();
    size_t nb = inst_.b_global.size();
    num_rows_ = na + nb;
    num_cols_ = nb + na;
    std::vector<std::vector<size_t>> b_neighbors(nb);
    for (size_t k = 0; k < na; ++k) {
      for (size_t j : inst_.a_neighbors[k]) b_neighbors[j].push_back(k);
    }
    row_begin_.assign(1, 0);
    for (size_t k = 0; k < na; ++k) {
      for (const Option& o : inst_.options[k]) {
        if (o.remove) {
          edges_.push_back({k, nb + k, -o.delta, &o});
        } else {
          double group = GroupTerm(prob_, 1, 0.0 + inst_.a_impact[k],
                                   inst_.b_impact[o.b_local]);
          edges_.push_back({k, o.b_local, -(o.delta + group), &o});
        }
      }
      row_begin_.push_back(edges_.size());
    }
    for (size_t j = 0; j < nb; ++j) {
      edges_.push_back({na + j, j, -prob_.a, nullptr});
      for (size_t k : b_neighbors[j]) {
        edges_.push_back({na + j, nb + k, 0.0, nullptr});
      }
      row_begin_.push_back(edges_.size());
    }
    // Column → incident edges, for ExtractFirst's reverse search.
    col_begin_.assign(num_cols_ + 1, 0);
    for (const Edge& e : edges_) ++col_begin_[e.col + 1];
    for (size_t c = 0; c < num_cols_; ++c) col_begin_[c + 1] += col_begin_[c];
    col_edges_.resize(edges_.size());
    std::vector<size_t> fill(col_begin_.begin(), col_begin_.end() - 1);
    for (size_t e = 0; e < edges_.size(); ++e) {
      col_edges_[fill[edges_[e].col]++] = e;
    }
  }

  bool Live() { return cancel_ == nullptr || cancel_->Check().ok(); }

  double Reduced(size_t e) const {
    return edges_[e].cost - u_[edges_[e].row] - v_[edges_[e].col];
  }
  bool Tight(size_t e) const { return Reduced(e) <= kTightTol; }

  /// One shortest augmenting path from free row `s` over reduced costs,
  /// then the dual update that keeps every reduced cost ≥ 0 and makes
  /// the path tight, then the augmentation.
  void Augment(size_t s) {
    using Entry = std::pair<double, size_t>;
    heap_.clear();
    auto relax = [&](size_t r, double base) {
      for (size_t e = row_begin_[r]; e < row_begin_[r + 1]; ++e) {
        size_t c = edges_[e].col;
        if (done_[c]) continue;
        double d = base + std::max(0.0, Reduced(e));
        if (d < dist_[c]) {
          if (dist_[c] == kInf) touched_.push_back(c);
          dist_[c] = d;
          pred_[c] = e;
          heap_.emplace_back(d, c);
          std::push_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
        }
      }
    };
    relax(s, 0.0);
    size_t t = kNone;
    while (t == kNone) {
      E3D_CHECK(!heap_.empty()) << "assignment graph lost its perfect matching";
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
      size_t c = heap_.back().second;
      heap_.pop_back();
      if (done_[c]) continue;
      done_[c] = true;
      finalized_.push_back(c);
      if (col_row_[c] == kNone) {
        t = c;
      } else {
        relax(col_row_[c], dist_[c]);
      }
    }
    double delta = dist_[t];
    u_[s] += delta;
    for (size_t c : finalized_) {
      if (c == t) continue;
      double shift = delta - dist_[c];
      u_[col_row_[c]] += shift;
      v_[c] -= shift;
    }
    for (size_t c = t;;) {
      size_t e = pred_[c];
      size_t r = edges_[e].row;
      size_t prev = row_edge_[r];
      row_edge_[r] = e;
      col_row_[c] = r;
      if (r == s) break;
      c = edges_[prev].col;
    }
    for (size_t c : touched_) {
      dist_[c] = kInf;
      done_[c] = false;
    }
    touched_.clear();
    finalized_.clear();
  }

  /// Rotates the optimum to the DFS-first one. For each A tuple in turn,
  /// the first option whose edge is tight and closes a tight alternating
  /// cycle through unfixed rows is taken, the matching rotated along that
  /// cycle, and the tuple fixed.
  bool ExtractFirst() {
    size_t na = inst_.a_global.size();
    std::vector<bool> fixed(num_rows_, false);
    std::vector<size_t> via(num_cols_, kNone);  // edge leading on to target
    std::vector<bool> reached(num_cols_, false);
    std::vector<size_t> queue;
    for (size_t k = 0; k < na; ++k) {
      if (k % kCancelStride == 0 && !Live()) return false;
      // The matched edge is tight by construction; the scans stop there
      // even if rounding blurs its reduced cost.
      size_t current = row_edge_[k];
      size_t first = row_begin_[k];
      while (first != current && !Tight(first)) ++first;
      if (first != current) {
        // Columns that can hand their row on, along tight edges through
        // unfixed rows, until the chain frees `target` for A_k's pick.
        size_t target = edges_[current].col;
        queue.assign(1, target);
        reached[target] = true;
        for (size_t q = 0; q < queue.size(); ++q) {
          size_t c = queue[q];
          for (size_t i = col_begin_[c]; i < col_begin_[c + 1]; ++i) {
            size_t e = col_edges_[i];
            size_t r = edges_[e].row;
            if (r == k || fixed[r] || !Tight(e)) continue;
            size_t from = edges_[row_edge_[r]].col;
            if (reached[from]) continue;
            reached[from] = true;
            via[from] = e;
            queue.push_back(from);
          }
        }
        size_t pick = first;
        while (pick != current &&
               !(Tight(pick) && reached[edges_[pick].col])) {
          ++pick;
        }
        std::vector<std::pair<size_t, size_t>> moves = {{k, pick}};
        for (size_t c = edges_[pick].col; c != target;) {
          moves.emplace_back(col_row_[c], via[c]);
          c = edges_[via[c]].col;
        }
        for (const auto& [r, e] : moves) {
          row_edge_[r] = e;
          col_row_[edges_[e].col] = r;
        }
        for (size_t c : queue) reached[c] = false;
      }
      fixed[k] = true;
    }
    choice_.resize(na);
    for (size_t k = 0; k < na; ++k) choice_[k] = edges_[row_edge_[k]].option;
    return true;
  }

  const Instance& inst_;
  const ProbabilityModel& prob_;
  const CancelToken* cancel_;
  size_t augmentations_ = 0;

  size_t num_rows_ = 0, num_cols_ = 0;
  std::vector<Edge> edges_;          // CSR by row, A rows in option order
  std::vector<size_t> row_begin_;
  std::vector<size_t> col_begin_, col_edges_;
  std::vector<double> u_, v_;        // row and column duals
  std::vector<size_t> row_edge_, col_row_;
  std::vector<double> dist_;
  std::vector<size_t> pred_;
  std::vector<bool> done_;
  std::vector<size_t> touched_, finalized_;
  std::vector<std::pair<double, size_t>> heap_;
  std::vector<const Option*> choice_;
};

/// Decodes a complete assignment into the unit's explanations: removed
/// A tuples and unassigned B tuples are provenance explanations, each
/// selected option's match is evidence, and a group whose member sum
/// disagrees gets its value change.
ExplanationSet DecodeChoice(const Instance& inst, const TupleMapping& mapping,
                            const std::vector<const Option*>& choice) {
  ExplanationSet out;
  Side a_side = inst.swapped ? Side::kRight : Side::kLeft;
  Side b_side = inst.swapped ? Side::kLeft : Side::kRight;
  std::vector<double> b_sum(inst.b_global.size(), 0.0);
  std::vector<size_t> b_count(inst.b_global.size(), 0);
  for (size_t k = 0; k < inst.a_global.size(); ++k) {
    const Option* o = choice[k];
    E3D_CHECK(o != nullptr) << "exact solve left an unassigned tuple";
    if (o->remove) {
      out.delta.push_back({a_side, inst.a_global[k]});
    } else {
      b_sum[o->b_local] += inst.a_impact[k];
      ++b_count[o->b_local];
      out.evidence.push_back(mapping[o->match_id]);
    }
  }
  for (size_t j = 0; j < inst.b_global.size(); ++j) {
    if (b_count[j] == 0) {
      out.delta.push_back({b_side, inst.b_global[j]});
    } else if (ImpactsDiffer(b_sum[j], inst.b_impact[j])) {
      out.value_changes.push_back(
          {b_side, inst.b_global[j], inst.b_impact[j], b_sum[j]});
    }
  }
  out.Normalize();
  return out;
}

/// The admissible root bound of the assignment branch & bound, with the
/// const edge terms — search-free, so deterministic.
double RootBound(const Instance& inst, const ProbabilityModel& prob) {
  AssignmentBnb bnb(inst, prob, /*max_nodes=*/0, /*cancel=*/nullptr);
  bnb.Prepare();  // root state only — no Dfs
  return bnb.root_bound() + inst.const_edges;
}

/// The token's status after an engine abandoned its search. The root
/// bound involves no search state, so it is safe to publish for
/// degradation reporting.
Status Interrupted(const Instance& inst, const ProbabilityModel& prob,
                   const CancelToken* cancel, double* interrupted_bound) {
  if (interrupted_bound != nullptr) *interrupted_bound = RootBound(inst, prob);
  Status s = CheckCancel(cancel);
  return s.ok() ? Status::Cancelled("component solve interrupted") : s;
}

Result<ExactSolveResult> SolveOneToOne(const Instance& inst,
                                       const TupleMapping& mapping,
                                       const ProbabilityModel& prob,
                                       const CancelToken* cancel,
                                       double* interrupted_bound) {
  OneToOneMatching matching(inst, prob, cancel);
  if (!matching.Run()) {
    return Interrupted(inst, prob, cancel, interrupted_bound);
  }
  ExactSolveResult result;
  result.nodes = matching.augmentations();
  result.objective =
      LeafScore(inst, prob, matching.choice()) + inst.const_edges;
  result.bound = result.objective;
  result.explanations = DecodeChoice(inst, mapping, matching.choice());
  return result;
}

Result<ExactSolveResult> SolveBranchAndBound(
    const Instance& inst, const TupleMapping& mapping,
    const ProbabilityModel& prob, size_t max_nodes, const CancelToken* cancel,
    double* interrupted_bound, double warm_objective) {
  // Warm-start floor: the recorded objective includes const_edges, the
  // search score does not; the margin keeps the floor strictly below the
  // optimum so the optimal leaf still clears the acceptance test.
  double seed = kNegInf;
  if (std::isfinite(warm_objective)) {
    seed = warm_objective - inst.const_edges - kWarmStartMargin;
  }

  AssignmentBnb warm_bnb(inst, prob, max_nodes, cancel);
  warm_bnb.Run(seed);
  AssignmentBnb* bnb = &warm_bnb;
  std::optional<AssignmentBnb> cold_bnb;
  if (!warm_bnb.aborted() && seed > kNegInf &&
      !(warm_bnb.found_leaf() && warm_bnb.proven_optimal())) {
    // A floored search must end with a decodable, proven-optimal
    // incumbent — anything else (stale floor above every leaf, node
    // limit) reruns cold so the floor can never change the result.
    cold_bnb.emplace(inst, prob, max_nodes, cancel);
    cold_bnb->Run();
    bnb = &*cold_bnb;
  }
  if (bnb->aborted()) {
    // The incumbent (if any) depends on where the clock interrupted the
    // search; discard it and surface the token's status instead.
    return Interrupted(inst, prob, cancel, interrupted_bound);
  }

  ExactSolveResult result;
  result.nodes = bnb->nodes();
  result.proven_optimal = bnb->proven_optimal();
  result.objective = bnb->best_score() + inst.const_edges;
  result.bound = result.proven_optimal
                     ? result.objective
                     : bnb->root_bound() + inst.const_edges;
  result.explanations = DecodeChoice(inst, mapping, bnb->best_choice());
  return result;
}

}  // namespace

Result<ExactSolveResult> SolveComponentExact(
    const CanonicalRelation& t1, const CanonicalRelation& t2,
    const TupleMapping& mapping, const AttributeMatch& attr,
    const ProbabilityModel& prob, const SubProblem& sub, size_t max_nodes,
    const CancelToken* cancel, double* interrupted_bound,
    double warm_objective) {
  Result<Instance> built = BuildInstance(t1, t2, mapping, attr, prob, sub);
  E3D_RETURN_IF_ERROR(built.status());
  const Instance& inst = built.value();
  if (inst.in_cap) {
    return SolveOneToOne(inst, mapping, prob, cancel, interrupted_bound);
  }
  return SolveBranchAndBound(inst, mapping, prob, max_nodes, cancel,
                             interrupted_bound, warm_objective);
}

Result<ExactSolveResult> SolveComponentBranchAndBound(
    const CanonicalRelation& t1, const CanonicalRelation& t2,
    const TupleMapping& mapping, const AttributeMatch& attr,
    const ProbabilityModel& prob, const SubProblem& sub, size_t max_nodes,
    const CancelToken* cancel, double* interrupted_bound,
    double warm_objective) {
  Result<Instance> built = BuildInstance(t1, t2, mapping, attr, prob, sub);
  E3D_RETURN_IF_ERROR(built.status());
  return SolveBranchAndBound(built.value(), mapping, prob, max_nodes, cancel,
                             interrupted_bound, warm_objective);
}

Result<double> ScoreUnitSelection(
    const CanonicalRelation& t1, const CanonicalRelation& t2,
    const TupleMapping& mapping, const AttributeMatch& attr,
    const ProbabilityModel& prob, const SubProblem& sub,
    const std::vector<size_t>& selected_match_ids) {
  Result<Instance> built = BuildInstance(t1, t2, mapping, attr, prob, sub);
  E3D_RETURN_IF_ERROR(built.status());
  const Instance& inst = built.value();

  auto selected = [&](size_t mid) {
    return std::binary_search(selected_match_ids.begin(),
                              selected_match_ids.end(), mid);
  };

  // The leaf-score formula of AssignmentBnb, evaluated on the canonical
  // decode of the selection: per-A option deltas plus per-group terms.
  double score = 0;
  std::vector<double> b_sum(inst.b_global.size(), 0.0);
  std::vector<size_t> b_count(inst.b_global.size(), 0);
  for (size_t k = 0; k < inst.a_global.size(); ++k) {
    const Option* pick = nullptr;
    for (const Option& o : inst.options[k]) {
      if (o.remove || !selected(o.match_id)) continue;
      if (pick != nullptr) {
        return Status::InvalidArgument(
            "selection assigns a degree-capped tuple twice");
      }
      pick = &o;
    }
    if (pick == nullptr) {
      score += prob.a;
    } else {
      score += pick->delta;
      b_sum[pick->b_local] += inst.a_impact[k];
      ++b_count[pick->b_local];
    }
  }
  for (size_t j = 0; j < inst.b_global.size(); ++j) {
    if (inst.in_cap && b_count[j] > 1) {
      return Status::InvalidArgument(
          "selection violates the group-side degree cap");
    }
    score += GroupTerm(prob, b_count[j], b_sum[j], inst.b_impact[j]);
  }
  return score + inst.const_edges;
}

Result<double> ComponentOptimisticBound(
    const CanonicalRelation& t1, const CanonicalRelation& t2,
    const TupleMapping& mapping, const AttributeMatch& attr,
    const ProbabilityModel& prob, const SubProblem& sub) {
  Result<Instance> built = BuildInstance(t1, t2, mapping, attr, prob, sub);
  E3D_RETURN_IF_ERROR(built.status());
  return RootBound(built.value(), prob);
}

}  // namespace explain3d
