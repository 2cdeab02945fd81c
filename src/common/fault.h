// Deterministic fault injection: named failure sites with a seeded,
// replayable firing schedule.
//
// Robustness code is only as trustworthy as the failure paths a test can
// actually reach. This framework plants named FAULT_POINT(site) probes at
// the spots where production systems actually break and lets a test (or
// an operator, via the EXPLAIN3D_FAULT_SPEC environment variable) arm a
// schedule that makes some of those probes fire: a FAULT_POINT returns
// Status::Unavailable, a FAULT_FIRED site takes its own failure branch
// (a skipped eviction round, a torn write failing with kIOError).
// The sites:
//
//   stage1.execute, stage1.provenance, stage1.intern, stage1.block
//                        stage-1 build steps
//   cache.insert, cache.evict    MatchingContext insert / eviction round
//   registry.retire      eager cache sweep on database re-registration
//   solve.unit           entry of each stage-2 unit solve (core/solver.cc)
//   milp.node            MILP branch & bound node expansion — reached only
//                        by direct MilpSolver callers (tests, benches)
//   service.claim        the service worker's claim of a request
//   storage.write, storage.fsync, storage.rename    persistence I/O
//
// Determinism: every firing decision is a pure function of
// (spec seed, site name, that site's hit index) through the counter-RNG
// in common/rng.h. Two runs with the same spec and the same per-site hit
// sequences fire at exactly the same hits, regardless of thread count or
// wall-clock. (Under concurrency the interleaving assigns hit indices in
// arrival order, so WHICH caller observes a firing may vary, but the
// multiset of decisions per site does not.)
//
// Spec grammar (clauses separated by ';' or ','; whitespace ignored):
//
//   spec   := clause (';' clause)*
//   clause := 'seed=' uint64            -- schedule seed (default 1)
//           | site '=' mode
//   site   := dotted name, e.g. stage1.block, cache.insert; a trailing
//             '*' prefix-matches (e.g. 'stage1.*' arms every stage-1 site)
//   mode   := 'p' float                 -- fire each hit with probability p
//           | 'n' uint64                -- fire every n-th hit (n, 2n, ...)
//           | 'once' uint64             -- fire exactly hit #k (0-based)
//
// Example: "seed=42; stage1.block=p0.01; cache.insert=n100; solve.unit=once3"
//
// Compile-time gate: building with -DEXPLAIN3D_NO_FAULT_INJECTION (CMake
// option EXPLAIN3D_FAULT_INJECTION=OFF, for production binaries) compiles
// every probe down to a constant-OK expression with zero runtime cost;
// kFaultInjectionEnabled lets tests skip themselves in such builds. In
// instrumented builds an unarmed probe is a single relaxed atomic load.

#ifndef EXPLAIN3D_COMMON_FAULT_H_
#define EXPLAIN3D_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace explain3d {

#ifdef EXPLAIN3D_NO_FAULT_INJECTION
inline constexpr bool kFaultInjectionEnabled = false;
#else
inline constexpr bool kFaultInjectionEnabled = true;
#endif

/// Per-site schedule counters, snapshot by FaultInjector::SiteStats().
struct FaultSiteStats {
  std::string site;   ///< Armed site pattern as written in the spec.
  uint64_t hits = 0;  ///< Probes that consulted this rule.
  uint64_t fires = 0; ///< Probes that returned a fault.
};

/// \brief Process-wide registry of armed fault sites (see file comment).
///
/// Thread-safe. Exactly one instance exists (Instance()); it reads
/// EXPLAIN3D_FAULT_SPEC once on first use, and tests re-arm it with
/// Configure() / Disable(). Probes on hot paths stay cheap: when no spec
/// is armed, ShouldFire is one relaxed atomic load.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  /// \brief Replaces the armed schedule with `spec` (grammar above).
  /// An empty spec disarms. Resets all per-site counters. Returns
  /// InvalidArgument (leaving the previous schedule armed) on a
  /// malformed spec.
  Status Configure(const std::string& spec);

  /// Disarms all sites and resets counters.
  void Disable();

  /// True when any site is armed.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// \brief Consumes one hit at `site` and returns whether the schedule
  /// fires it. Unarmed/unmatched sites never fire (and are not counted).
  bool ShouldFire(const char* site);

  /// Total fires across all sites since the last Configure/Disable.
  /// Monotone between re-arms; the service health machine reads deltas.
  uint64_t TotalFires() const {
    return total_fires_.load(std::memory_order_relaxed);
  }

  /// Per-armed-rule counters, in spec order.
  std::vector<FaultSiteStats> SiteStats() const;

 private:
  FaultInjector();

  enum class Mode { kProbability, kEveryNth, kOnce };
  struct Rule {
    std::string pattern;  // site name, optionally ending in '*'
    Mode mode = Mode::kProbability;
    double p = 0;       // kProbability
    uint64_t n = 0;     // kEveryNth (fire hits n-1, 2n-1, ...) / kOnce (hit n)
    mutable std::atomic<uint64_t> hits{0};
    mutable std::atomic<uint64_t> fires{0};

    Rule() = default;
    // Movable so Parse can build rules in a vector; moving an ACTIVE rule
    // never happens (schedules are immutable once armed), so plain
    // counter copies suffice.
    Rule(Rule&& o) noexcept
        : pattern(std::move(o.pattern)),
          mode(o.mode),
          p(o.p),
          n(o.n),
          hits(o.hits.load(std::memory_order_relaxed)),
          fires(o.fires.load(std::memory_order_relaxed)) {}
    Rule& operator=(Rule&& o) noexcept {
      pattern = std::move(o.pattern);
      mode = o.mode;
      p = o.p;
      n = o.n;
      hits.store(o.hits.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
      fires.store(o.fires.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      return *this;
    }
  };
  struct Schedule {
    uint64_t seed = 1;
    std::vector<Rule> rules;
  };

  static Status Parse(const std::string& spec, Schedule* out);

  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> total_fires_{0};
  mutable std::mutex mu_;
  std::unique_ptr<Schedule> schedule_;  // guarded by mu_; null when disarmed
};

/// Probe body behind FAULT_POINT: Unavailable("injected fault at <site>")
/// when the armed schedule fires this hit, OK otherwise.
Status FaultCheck(const char* site);

/// Decision-only probe for sites that degrade behavior instead of
/// returning a Status (e.g. skipping a cache-eviction round).
bool FaultFired(const char* site);

#ifdef EXPLAIN3D_NO_FAULT_INJECTION
#define FAULT_POINT(site) ::explain3d::Status::OK()
#define FAULT_FIRED(site) false
#else
/// Status-valued probe; pair with E3D_RETURN_IF_ERROR at the call site.
#define FAULT_POINT(site) ::explain3d::FaultCheck(site)
/// Bool-valued probe for non-Status degradation sites.
#define FAULT_FIRED(site) ::explain3d::FaultFired(site)
#endif

}  // namespace explain3d

#endif  // EXPLAIN3D_COMMON_FAULT_H_
