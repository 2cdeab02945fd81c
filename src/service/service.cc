#include "service/service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/fault.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "storage/content_hash.h"

namespace explain3d {

namespace {

double SecondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// True when `tag` is one of the two identity components of `key`.
/// Service-path keys are "<tag1>|<tag2>|<length-prefixed sql/attr>"
/// (Stage1CacheKey), with content tags "c<hex16>" as the identities:
/// only the first two '|'-delimited components are matched — deeper
/// would hit free-form query text, which may itself contain "|c...|".
bool KeyUsesIdentity(const std::string& key, const std::string& tag) {
  auto component_at = [&](size_t start) {
    return key.compare(start, tag.size(), tag) == 0 &&
           key.size() > start + tag.size() && key[start + tag.size()] == '|';
  };
  if (component_at(0)) return true;
  size_t bar = key.find('|');
  return bar != std::string::npos && component_at(bar + 1);
}

LatencySummary Summarize(std::vector<double> v) {
  LatencySummary s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  auto at = [&](double p) {
    return v[static_cast<size_t>(p * static_cast<double>(v.size() - 1) +
                                 0.5)];
  };
  s.count = v.size();
  s.p50 = at(0.50);
  s.p90 = at(0.90);
  s.p99 = at(0.99);
  s.max = v.back();
  return s;
}

}  // namespace

const char* ServiceHealthName(ServiceHealth health) {
  switch (health) {
    case ServiceHealth::kHealthy:
      return "healthy";
    case ServiceHealth::kDegraded:
      return "degraded";
    case ServiceHealth::kOverloaded:
      return "overloaded";
  }
  return "unknown";
}

// --- DatabaseHandle ---------------------------------------------------------

std::string DatabaseHandle::Identity() const {
  return StrFormat("h%llu:g%llu", static_cast<unsigned long long>(id),
                   static_cast<unsigned long long>(generation));
}

// --- RequestTicket ----------------------------------------------------------

const Result<PipelineResult>& RequestTicket::Wait() const {
  done_.WaitForNotification();
  // Safe without mu_: result_ is written before done_ fires and never
  // written again (single completion), and HasBeenNotified/Wait
  // establish the happens-before edge.
  return *result_;
}

const Result<PipelineResult>* RequestTicket::TryGet() const {
  if (!done_.HasBeenNotified()) return nullptr;
  return &*result_;
}

const Result<PipelineResult>* RequestTicket::WaitFor(double seconds) const {
  if (!done_.WaitForNotificationWithTimeout(seconds)) return nullptr;
  return &*result_;
}

bool RequestTicket::Cancel() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == State::kDone) return false;
    if (state_ == State::kRunning) {
      // Delivered cooperatively: the worker owns completion. The token
      // fires here; the pipeline observes it at its next cancellation
      // point (node granularity in stage 2) and the worker completes the
      // ticket with kCancelled — unless the run finished inside the race
      // window, in which case its real result stands.
      if (token_ != nullptr) token_->Cancel();
      return true;
    }
    // Still queued: this call wins the claim race outright.
    state_ = State::kDone;
    result_.emplace(Status::Cancelled("request cancelled before it ran"));
    // The request is dead weight from here on (gold labels and oracle
    // closures can pin O(rows) state for the ticket's whole lifetime).
    request_ = ExplanationRequest();
  }
  // Keep the token consistent for anything still polling it.
  if (token_ != nullptr) token_->Cancel();
  // Count before notifying: a waiter released by this cancellation
  // already sees it in the stats.
  if (counters_) counters_->cancelled.fetch_add(1);
  done_.Notify();
  return true;
}

void RequestTicket::Complete(Result<PipelineResult> result) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    state_ = State::kDone;
    result_.emplace(std::move(result));
    // Only the result matters now; free the request's label/oracle state
    // (the completing worker is done reading it).
    request_ = ExplanationRequest();
  }
  done_.Notify();
}

bool RequestTicket::CompleteIfQueued(Result<PipelineResult> result,
                                     const std::function<void()>& on_win) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ != State::kQueued) return false;
    state_ = State::kDone;
    result_.emplace(std::move(result));
    request_ = ExplanationRequest();
    // The winner's counters bump inside the claim, before waiters
    // release: a caller woken by Wait() below must already see its own
    // request counted.
    if (on_win) on_win();
  }
  done_.Notify();
  return true;
}

// --- Explain3DService -------------------------------------------------------

Explain3DService::Explain3DService(ServiceOptions options)
    : options_(options),
      max_concurrency_(ResolveThreads(options.max_concurrency)),
      request_threads_(
          std::max<size_t>(1, ResolveThreads(0) / max_concurrency_)),
      cache_(options.cache_budget_bytes) {
  // Requests occupy pool workers for their whole run; make sure the pool
  // can hold max_concurrency_ of them (nested ParallelFor calls remain
  // deadlock-free regardless — batches are caller-participating).
  SharedPool(max_concurrency_);
  if (options_.watchdog_interval_seconds > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
  if (!options_.persist_dir.empty()) {
    // Persistence must never take serving down with it: a store that
    // fails to open (bad directory, corrupt manifest) just disables the
    // tier, counted as a persist error.
    Result<storage::ArtifactStore> store =
        storage::ArtifactStore::Open(options_.persist_dir);
    if (!store.ok()) {
      persist_errors_.fetch_add(1);
    } else {
      persist_store_.emplace(std::move(store).value());
      if (options_.restore_on_start) {
        // Warm restart: committed snapshots land in the cache before the
        // first Submit can race them. A damaged file aborts the load
        // (whatever restored before it stays — entries are atomic).
        if (!LoadStoreIntoCache(*persist_store_).ok()) {
          persist_errors_.fetch_add(1);
        }
      }
      if (options_.persist_interval_seconds > 0) {
        persister_ = std::thread([this] { PersisterLoop(); });
      }
    }
  }
}

Explain3DService::~Explain3DService() {
  std::deque<TicketPtr> orphans;
  std::vector<TicketPtr> running;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    for (auto& [priority, band] : bands_) {
      for (auto& [client, queue] : band.clients) {
        for (TicketPtr& t : queue) orphans.push_back(std::move(t));
      }
    }
    bands_.clear();
    client_queued_.clear();
    queued_tickets_ = 0;
    // Followers awaiting a leader terminate as cancelled too. A RUNNING
    // leader's fan-out then finds its group gone and shares with no one
    // — its own real result still stands.
    for (auto& [key, group] : coalesce_groups_) {
      for (TicketPtr& f : group.followers) orphans.push_back(std::move(f));
    }
    coalesce_groups_.clear();
    if (options_.cancel_running_on_destruction) {
      running = running_tickets_;
    }
  }
  // Never-claimed requests terminate as cancelled; their tickets stay
  // valid past the service's lifetime (callers share ownership). Cancel
  // itself counts the ones it wins (the rest were already counted by the
  // caller's Cancel).
  for (const TicketPtr& t : orphans) t->Cancel();
  // In-flight pipelines hold keep-alive references into this service
  // (cache_, registry slots), so the destructor must not return before
  // every runner exits. By default they drain to completion; under
  // cancel_running_on_destruction their tokens fire first, bounding the
  // wait to the cooperative cancellation latency.
  for (const TicketPtr& t : running) t->Cancel();
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return active_runners_ == 0; });
  }
  // Stop the watchdog only after the drain: draining runs still carry
  // live deadlines that deserve firing.
  if (watchdog_.joinable()) {
    watchdog_stop_.Notify();
    watchdog_.join();
  }
  // Stop the persister last — after the runner drain, so the final pass
  // (PersisterLoop drains once more on its way out) catches artifacts
  // the last requests produced.
  if (persister_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(persist_mu_);
      persist_stop_ = true;
    }
    persist_cv_.notify_all();
    persister_.join();
  }
}

DatabaseHandle Explain3DService::RegisterDatabase(const std::string& name,
                                                 Database db) {
  // One content-hash scan per registration, outside every lock: this tag
  // is the cache-key identity, so entries follow the DATA — identical
  // re-registrations (reloads, restarts) keep the cache warm, and a
  // recycled slot or heap address can never alias a different dataset.
  const std::string content_tag =
      storage::ContentTag(storage::DatabaseContentHash(db));
  DatabaseHandle handle;
  std::string retired_tag;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    DbSlot& slot = registry_[name];
    if (slot.id == 0) {
      slot.id = next_db_id_++;
      slot.generation = 1;
    } else {
      // Replacement: the previous artifacts go stale only when the data
      // actually CHANGED — and even then only if no other registered
      // database still carries the old contents.
      if (slot.content_tag != content_tag) retired_tag = slot.content_tag;
      ++slot.generation;
    }
    slot.db = std::make_shared<const Database>(std::move(db));
    slot.content_tag = content_tag;
    handle = DatabaseHandle{slot.id, slot.generation};
    if (!retired_tag.empty()) {
      for (const auto& [other_name, other] : registry_) {
        if (other.content_tag == retired_tag) {
          retired_tag.clear();  // contents still live under another name
          break;
        }
      }
    }
  }
  if (!retired_tag.empty()) {
    // Fault probe: a fired registry.retire SKIPS the eager retirement.
    // Benign by design — cache keys embed the generation, so the stale
    // entries can never serve a new-handle request; they just linger
    // until LRU pressure reclaims them. The stress suite arms this to
    // prove correctness never depended on the eager sweep.
    if (FAULT_FIRED("registry.retire")) return handle;
    // Retire outside the registry lock: EraseIf drops only the cache's
    // references, so results already returned keep their artifacts, and
    // in-flight requests resolved against the old generation keep their
    // database through the slot's old shared_ptr.
    cache_.EraseIf([&retired_tag](const std::string& key) {
      return KeyUsesIdentity(key, retired_tag);
    });
  }
  return handle;
}

Result<DatabaseHandle> Explain3DService::LookupDatabase(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = registry_.find(name);
  if (it == registry_.end()) {
    return Status::NotFound("no database registered as '" + name + "'");
  }
  return DatabaseHandle{it->second.id, it->second.generation};
}

Result<Explain3DService::ResolvedDb> Explain3DService::ResolveHandle(
    const DatabaseHandle& handle) const {
  if (!handle.valid()) {
    return Status::InvalidArgument(
        "invalid DatabaseHandle (default-constructed or never registered)");
  }
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& [name, slot] : registry_) {
    if (slot.id != handle.id) continue;
    if (slot.generation != handle.generation) {
      return Status::InvalidArgument(StrFormat(
          "database handle retired: '%s' was re-registered (handle "
          "generation %llu, current %llu)",
          name.c_str(), static_cast<unsigned long long>(handle.generation),
          static_cast<unsigned long long>(slot.generation)));
    }
    return ResolvedDb{slot.db, slot.content_tag};
  }
  return Status::NotFound(StrFormat(
      "unknown DatabaseHandle id %llu (not issued by this service)",
      static_cast<unsigned long long>(handle.id)));
}

TicketPtr Explain3DService::Submit(ExplanationRequest request,
                                   SubmitOptions options) {
  TicketPtr ticket(new RequestTicket());
  double deadline = request.deadline_seconds;
  // Arm the token with the END-TO-END deadline now, at submit: queue
  // wait, stage 1, and stage 2 all burn the same budget.
  ticket->token_ = std::make_shared<CancelToken>(deadline);
  ticket->priority_ = options.priority;
  ticket->client_id_ = options.client_id;
  ticket->request_ = std::move(request);
  ticket->submit_time_ = std::chrono::steady_clock::now();
  ticket->counters_ = counters_;
  counters_->submitted.fetch_add(1);

  const ExplanationRequest& req = ticket->request_;
  // Resolve the handles up front, outside mu_, when any identity-keyed
  // path needs them: the keyed admission estimate and the coalescing key
  // are both built on the databases' CONTENT identity. A failure here is
  // NOT the submit's failure — the registry may legitimately change
  // while the request queues, so stale handles still surface at claim
  // time, on the ticket; the request merely prices at the fleet-wide
  // estimate and never coalesces.
  std::string admission_key, coalesce_key;
  const bool want_coalesce =
      options_.enable_coalescing && req.calibration_oracle == nullptr;
  if (options_.admission_control || want_coalesce) {
    Result<ResolvedDb> db1 = ResolveHandle(req.db1);
    Result<ResolvedDb> db2 = db1.ok() ? ResolveHandle(req.db2)
                                      : Result<ResolvedDb>(db1.status());
    if (db1.ok() && db2.ok()) {
      const std::string identity =
          db1.value().content_tag + "|" + db2.value().content_tag;
      admission_key = identity + Stage2ConfigTag(req.config);
      if (want_coalesce) {
        coalesce_key = RequestResultKey(identity, req.sql1, req.sql2,
                                        req.attr_matches, req.mapping_options,
                                        req.calibration_gold, req.config);
      }
    }
  }
  ticket->admission_key_ = admission_key;
  // Prefetch the keyed estimate BEFORE taking mu_ — stats_mu_ never
  // nests under mu_.
  double keyed_p50 = 0;
  if (options_.admission_control && deadline > 0) {
    keyed_p50 = KeyedRunP50(admission_key);
  }

  bool spawn = false;
  bool shutdown_reject = false;
  bool quota_reject = false;
  bool coalesced = false;
  size_t client_queued = 0;
  double est_wait = 0, p50_run = 0;
  size_t ahead = 0;
  bool admission_reject = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto group_it = coalesce_key.empty() ? coalesce_groups_.end()
                                         : coalesce_groups_.find(coalesce_key);
    if (shutdown_) {
      shutdown_reject = true;
    } else if (group_it != coalesce_groups_.end()) {
      // An identical request is already queued or running: attach as a
      // FOLLOWER. No queue slot, no quota charge, no admission test —
      // the ticket consumes nothing until the leader's completion (or
      // its own deadline/cancel) resolves it.
      ticket->seq_ = next_seq_++;
      ticket->coalesce_key_ = coalesce_key;
      group_it->second.followers.push_back(ticket);
      coalesced = true;
    } else {
      if (options_.per_client_max_queued > 0) {
        auto it = client_queued_.find(options.client_id);
        client_queued = it == client_queued_.end() ? 0 : it->second;
        quota_reject = client_queued >= options_.per_client_max_queued;
      }
      if (!quota_reject) {
        if (options_.admission_control && deadline > 0) {
          // Cost model: everyone this request must wait behind (running
          // requests plus tickets queued at its priority or above) at
          // the observed p50 run time, spread over the worker slots.
          // The p50 is the request's KEYED estimate when its
          // (db-identity, config-tag) ring is warm, else the fleet-wide
          // median. Band sizes are used as-is — O(bands), no per-ticket
          // walk under mu_; cancelled dead weight still in a band
          // overcounts, which only errs toward rejecting sooner. No
          // estimate before the first completion → admit.
          p50_run = keyed_p50 > 0
                        ? keyed_p50
                        : run_p50_.load(std::memory_order_relaxed);
          if (p50_run > 0) {
            ahead = running_requests_;
            for (const auto& [priority, band] : bands_) {
              if (priority < options.priority) break;  // bands_: high→low
              ahead += band.size;
            }
            // Rejection applies only to requests that would QUEUE: with
            // a free worker slot the request is admitted unconditionally
            // as a probe — it starts immediately, the deadline token
            // bounds any waste to deadline_seconds, and its completion
            // refreshes the p50 estimate (rejecting idle-service traffic
            // on a stale slow p50 would lock the estimator at that value
            // forever, since rejected work never runs). For the queued
            // case the request's OWN run is charged at p50 on top of the
            // overflow wait: a deadline shorter than wait + run can only
            // expire.
            if (ahead >= max_concurrency_) {
              est_wait = static_cast<double>(ahead - max_concurrency_ + 1) *
                         p50_run / static_cast<double>(max_concurrency_);
              admission_reject = est_wait + p50_run > deadline;
            }
          }
        }
        // Quota rejects stay out of the health window: they say one
        // CLIENT is over its share, not that the service is slow.
        NoteAdmissionLocked(admission_reject);
      }
      if (!quota_reject && !admission_reject) {
        // Overload relief valve: when the service is kOverloaded, flip
        // an incoming deadline-carrying kStrict request to the greedy
        // fallback BEFORE it queues, so it can still answer inside its
        // deadline instead of expiring empty-handed in the backlog. The
        // result stays explicitly marked degraded().
        bool flipped = false;
        if (options_.auto_fallback_on_overload && deadline > 0 &&
            ticket->request_.config.degradation_mode ==
                DegradationMode::kStrict &&
            EvaluateHealthLocked() == ServiceHealth::kOverloaded) {
          ticket->request_.config.degradation_mode =
              DegradationMode::kFallbackGreedy;
          auto_degraded_.fetch_add(1);
          flipped = true;
        }
        ticket->seq_ = next_seq_++;
        if (!coalesce_key.empty() && !flipped) {
          // First request under this key: it LEADS. Identical submits
          // while it is queued or running attach above. A flipped
          // request leads nothing: its key names the strict config it no
          // longer runs, and a strict follower must never receive its
          // degraded answer.
          ticket->coalesce_key_ = coalesce_key;
          coalesce_groups_[coalesce_key].leader = ticket;
        }
        EnqueueLocked(ticket);
        if (active_runners_ < max_concurrency_) {
          ++active_runners_;
          spawn = true;
        }
      }
    }
  }
  if (shutdown_reject) {
    ticket->Cancel();
    return ticket;
  }
  if (quota_reject) {
    // Count before completing (see ServiceCounters) — and separately
    // from admission rejects: the flooding client is told to back off
    // while everyone else's traffic is untouched.
    counters_->quota_rejected.fetch_add(1);
    ticket->Complete(Status::ResourceExhausted(StrFormat(
        "per-client quota: client '%s' already has %zu requests queued "
        "(per_client_max_queued = %zu)",
        options.client_id.c_str(), client_queued,
        options_.per_client_max_queued)));
    return ticket;
  }
  if (admission_reject) {
    // Rejected work never ran: it must not touch the cache or the
    // latency rings. Count before completing (see ServiceCounters).
    counters_->rejected.fetch_add(1);
    ticket->Complete(Status::Unavailable(StrFormat(
        "admission control: estimated wait %.3fs + run %.3fs (%zu ahead "
        "of %zu workers) exceeds the %.3fs deadline",
        est_wait, p50_run, ahead, max_concurrency_, deadline)));
    return ticket;
  }
  if (coalesced) {
    // Followers share the leader's computation; the attach itself is
    // the whole submit path.
    return ticket;
  }
  if (spawn) {
    SharedPool().Submit([this] { RunnerLoop(); });
  }
  return ticket;
}

std::vector<TicketPtr> Explain3DService::SubmitBatch(
    std::vector<ExplanationRequest> requests, SubmitOptions options) {
  std::vector<TicketPtr> tickets;
  tickets.reserve(requests.size());
  for (ExplanationRequest& request : requests) {
    tickets.push_back(Submit(std::move(request), options));
  }
  return tickets;
}

void Explain3DService::EnqueueLocked(const TicketPtr& ticket) {
  Band& band = bands_[ticket->priority_];
  band.clients[ticket->client_id_].push_back(ticket);
  ++band.size;
  ++queued_tickets_;
  ++client_queued_[ticket->client_id_];
}

TicketPtr Explain3DService::PopLocked() {
  // A client at its inflight cap is invisible to the scheduler — unless
  // its front ticket is already terminal dead weight (cancelled while
  // queued), which never runs and is always safe to reap.
  auto eligible = [&](const std::string& client, const TicketPtr& front) {
    if (front->done()) return true;
    if (options_.per_client_max_inflight == 0) return true;
    auto it = client_inflight_.find(client);
    return it == client_inflight_.end() ||
           it->second < options_.per_client_max_inflight;
  };
  using BandIt = std::map<int, Band, std::greater<int>>::iterator;
  using ClientIt = std::map<std::string, std::deque<TicketPtr>>::iterator;
  auto pop_from = [&](BandIt band_it, ClientIt client_it) {
    Band& band = band_it->second;
    const std::string client = client_it->first;
    TicketPtr ticket = std::move(client_it->second.front());
    client_it->second.pop_front();
    if (client_it->second.empty()) band.clients.erase(client_it);
    --band.size;
    // The round-robin cursor: the next claim in this band starts
    // strictly after the client just served.
    band.last_client = client;
    if (band.size == 0) bands_.erase(band_it);
    --queued_tickets_;
    auto q = client_queued_.find(client);
    if (q != client_queued_.end() && --q->second == 0) {
      client_queued_.erase(q);
    }
    ++claims_;
    return ticket;
  };
  if (options_.starvation_every > 0 &&
      (claims_ + 1) % options_.starvation_every == 0) {
    // Anti-starvation claim: take the globally oldest eligible request.
    // Client fronts are their queues' oldest (FIFO per client), so the
    // minimum seq_ across eligible fronts is the global minimum.
    BandIt best_band = bands_.end();
    ClientIt best_client;
    for (auto b = bands_.begin(); b != bands_.end(); ++b) {
      for (auto c = b->second.clients.begin(); c != b->second.clients.end();
           ++c) {
        if (!eligible(c->first, c->second.front())) continue;
        if (best_band == bands_.end() ||
            c->second.front()->seq_ < best_client->second.front()->seq_) {
          best_band = b;
          best_client = c;
        }
      }
    }
    if (best_band != bands_.end()) return pop_from(best_band, best_client);
    return nullptr;
  }
  // Normal claim: highest band first; within it, round-robin across the
  // clients starting strictly after the one served last (wrapping), so
  // every client takes turns regardless of how deep anyone's queue is.
  for (auto b = bands_.begin(); b != bands_.end(); ++b) {
    Band& band = b->second;
    auto c = band.clients.upper_bound(band.last_client);
    for (size_t i = 0, n = band.clients.size(); i < n; ++i) {
      if (c == band.clients.end()) c = band.clients.begin();
      if (eligible(c->first, c->second.front())) return pop_from(b, c);
      ++c;
    }
  }
  // Every queued ticket's owner is at its inflight cap: the caller
  // parks; a finishing run of a capped client re-pops.
  return nullptr;
}

void Explain3DService::RunnerLoop() {
  for (;;) {
    TicketPtr ticket;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_ || queued_tickets_ == 0) {
        --active_runners_;
        idle_cv_.notify_all();
        return;
      }
      ticket = PopLocked();
      if (ticket == nullptr) {
        // Everything queued belongs to clients at their inflight cap.
        // Park this runner: each capped client still has a worker whose
        // finishing run loops back here and re-pops (and re-spawns
        // siblings below), so progress is guaranteed.
        --active_runners_;
        idle_cv_.notify_all();
        return;
      }
      ++running_requests_;
      ++client_inflight_[ticket->client_id_];
      running_tickets_.push_back(ticket);
    }
    Process(ticket);
    bool respawn = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_requests_;
      auto inflight = client_inflight_.find(ticket->client_id_);
      if (inflight != client_inflight_.end() && --inflight->second == 0) {
        client_inflight_.erase(inflight);
      }
      for (size_t i = 0; i < running_tickets_.size(); ++i) {
        if (running_tickets_[i].get() == ticket.get()) {
          running_tickets_[i] = std::move(running_tickets_.back());
          running_tickets_.pop_back();
          break;
        }
      }
      // This client's inflight count just dropped: work that parked a
      // sibling runner (quota-blocked pops) may be claimable again, so
      // restore the runner population to match the backlog.
      if (!shutdown_ && queued_tickets_ > 0 &&
          active_runners_ < max_concurrency_) {
        ++active_runners_;
        respawn = true;
      }
    }
    if (respawn) SharedPool().Submit([this] { RunnerLoop(); });
  }
}

void Explain3DService::Process(const TicketPtr& ticket) {
  // Claim kQueued → kRunning. Losing the claim means Cancel() completed
  // the ticket while it sat in the queue; account for it and move on.
  {
    bool already_terminal = false;
    {
      std::lock_guard<std::mutex> lock(ticket->mu_);
      if (ticket->state_ != RequestTicket::State::kQueued) {
        already_terminal = true;
      } else {
        ticket->state_ = RequestTicket::State::kRunning;
      }
    }
    // Cancelled while queued — already counted by Cancel(); just skip.
    // A cancelled coalescing LEADER leaves its group headless, though:
    // promote the oldest live follower before dropping the claim.
    if (already_terminal) {
      if (!ticket->coalesce_key_.empty()) ResolveOrPromoteFollowers(ticket);
      return;
    }
  }
  // From here on only this worker completes the ticket; Cancel() can
  // only fire the token, and Submit stopped writing before the enqueue.
  const ExplanationRequest& req = ticket->request_;
  const CancelToken* cancel = ticket->token_.get();
  auto claimed_at = std::chrono::steady_clock::now();
  double queue_s = SecondsBetween(ticket->submit_time_, claimed_at);

  // Claim-time poll: a deadline that expired while the request queued
  // (or a cancel that lost the claim race by a hair) fails it before any
  // work happens.
  if (Status claimed = CheckCancel(cancel); !claimed.ok()) {
    if (claimed.code() == StatusCode::kCancelled) {
      counters_->cancelled.fetch_add(1);
      ticket->Complete(std::move(claimed));
    } else {
      counters_->deadline_exceeded.fetch_add(1);
      ticket->Complete(Status::DeadlineExceeded(StrFormat(
          "request spent %.6fs queued, past its %.6fs deadline", queue_s,
          req.deadline_seconds)));
    }
    // A leader dead at claim time has nothing shareable — its followers
    // carry their own tokens; promote the oldest live one.
    if (!ticket->coalesce_key_.empty()) ResolveOrPromoteFollowers(ticket);
    return;
  }

  // Resolve handles into keep-alive references: a concurrent re-register
  // swaps the registry slot but cannot free a database this request is
  // reading.
  Result<ResolvedDb> db1 = ResolveHandle(req.db1);
  Result<ResolvedDb> db2 = db1.ok() ? ResolveHandle(req.db2)
                                    : Result<ResolvedDb>(db1.status());
  bool transient_seen = false;
  Result<PipelineResult> outcome =
      !db1.ok() ? Result<PipelineResult>(db1.status())
      : !db2.ok()
          ? Result<PipelineResult>(db2.status())
          : [&]() -> Result<PipelineResult> {
              PipelineInput input;
              input.db1 = db1.value().db.get();
              input.db2 = db2.value().db.get();
              input.sql1 = req.sql1;
              input.sql2 = req.sql2;
              input.attr_matches = req.attr_matches;
              input.mapping_options = req.mapping_options;
              input.calibration_gold = req.calibration_gold;
              input.calibration_oracle = req.calibration_oracle;
              input.matching_context = &cache_;
              // Cooperative cancellation: the ticket's token reaches
              // every pipeline cancellation point, down to solver node
              // granularity, so Cancel() and the deadline interrupt this
              // run within milliseconds.
              input.cancel = cancel;
              // Content identity, precomputed at registration: cache
              // keys follow the DATA, so a re-registered database can
              // never be served a different dataset's artifacts — and a
              // restart restoring persisted snapshots keys straight into
              // them.
              input.db_identity = db1.value().content_tag + "|" +
                                  db2.value().content_tag;
              // The cache is shared by every client: its budget is the
              // service's (ServiceOptions::cache_budget_bytes, applied
              // at construction), never a single request's.
              Explain3DConfig config = req.config;
              config.cache_budget_bytes = 0;
              // The cores are shared the same way: an auto thread count
              // resolves to this request's slot share, so concurrent
              // requests never oversubscribe the pool, and a request's
              // run time does not hinge on every core being free at once
              // (on a shared host, fanning one request out over all
              // cores more than doubled its run-to-run spread).
              if (config.num_threads == 0) {
                config.num_threads = request_threads_;
              }
              // Retry loop (see RetryPolicy): re-run TRANSIENT failures
              // (kUnavailable only — injected faults, dropped cache
              // inserts) up to max_attempts times with interruptible,
              // deterministically-jittered exponential backoff. Retried
              // reruns rebuild from the same inputs, so a success on any
              // attempt is bit-identical to a first-attempt success.
              const size_t max_attempts =
                  std::max<size_t>(size_t{1}, req.retry.max_attempts);
              for (size_t attempt = 0;; ++attempt) {
                // The claim probe models a worker dying between claiming
                // a request and finishing it — the classic
                // at-least-once-delivery transient.
                Status claim_fault = FAULT_POINT("service.claim");
                Result<PipelineResult> r =
                    claim_fault.ok()
                        ? RunExplain3D(input, config)
                        : Result<PipelineResult>(std::move(claim_fault));
                if (r.ok() ||
                    r.status().code() != StatusCode::kUnavailable) {
                  return r;
                }
                transient_seen = true;
                // Never retry past the policy, and NEVER once the
                // ticket's token fired: a user cancel or an expired
                // deadline wins immediately.
                if (attempt + 1 >= max_attempts ||
                    !CheckCancel(cancel).ok()) {
                  return r;
                }
                double backoff = std::min(
                    req.retry.initial_backoff_seconds *
                        std::pow(req.retry.backoff_multiplier,
                                 static_cast<double>(attempt)),
                    req.retry.max_backoff_seconds);
                // Deterministic jitter in [1-j, 1+j], hashed from
                // (ticket seq, attempt): replayed schedules back off
                // identically.
                backoff *= 1.0 + req.retry.jitter_fraction *
                                     (2.0 * CounterUniform(ticket->seq_,
                                                           attempt) -
                                      1.0);
                // Never start a backoff the deadline cannot absorb: when
                // the sleep plus the estimated re-run exceed what's left
                // of the request's budget, the retry is predictably
                // doomed — fail fast with the transient status instead
                // of sleeping straight into kDeadlineExceeded (the
                // caller can tell retryable kUnavailable apart from a
                // blown deadline). RemainingSeconds is +inf without a
                // deadline, and the estimate is 0 before any completion,
                // so the clamp only ever tightens.
                if (backoff + EstimateRunSeconds(ticket->admission_key_) >
                    cancel->RemainingSeconds()) {
                  return r;
                }
                counters_->retries.fetch_add(1);
                // Sleep on the token's event, not the clock: a cancel or
                // deadline mid-backoff aborts the wait immediately.
                cancel->fired_event().WaitForNotificationWithTimeout(
                    std::max(0.0, backoff));
              }
            }();

  // Account fully before completing: a caller woken by Wait() must see
  // its own request in the counters and latency series. Interrupted runs
  // land in their own terminal buckets — they are not "completed" work.
  // The bucket test is "did THIS ticket's token fire", not the status
  // code alone: a kDeadlineExceeded produced by the request's config
  // (milp_time_limit_seconds, a child token) with no request deadline is
  // an ordinary failed completion, not scheduler deadline pressure.
  auto finished_at = std::chrono::steady_clock::now();
  double total_s = SecondsBetween(ticket->submit_time_, finished_at);
  double run_s = SecondsBetween(claimed_at, finished_at);
  StatusCode code = outcome.ok() ? StatusCode::kOk : outcome.status().code();
  bool ticket_fired = !CheckCancel(cancel).ok();
  // Only runs that reached the pipeline inform the admission cost
  // estimator: a stale-handle rejection resolves in microseconds and
  // says nothing about what the WORK costs — flooding the p50 window
  // with those would collapse the estimate toward zero and silently
  // disable admission control.
  bool ran_pipeline = db1.ok() && db2.ok();
  // Health signal: did this claimed run observe any transient failure
  // (injected fault, retried attempt)? Fed for pipeline runs only —
  // stale-handle rejections say nothing about service pressure.
  if (ran_pipeline) NoteRunTransient(transient_seen);
  // Terminal-by-own-token runs share nothing downstream, and neither do
  // degraded answers: the coalescing key leaves the deadline out, and a
  // budget-degraded result depends on it (a follower without one would
  // have run exact). Everything else — including deterministic failures,
  // which identical requests would reproduce identically — fans out to
  // coalesced followers.
  bool interrupted = ticket_fired && (code == StatusCode::kCancelled ||
                                      code == StatusCode::kDeadlineExceeded);
  bool degraded = outcome.ok() && outcome.value().degraded();
  if (code == StatusCode::kCancelled && ticket_fired) {
    counters_->cancelled.fetch_add(1);
    if (ran_pipeline) RecordRunSeconds(ticket->admission_key_, run_s);
  } else if (code == StatusCode::kDeadlineExceeded && ticket_fired) {
    counters_->deadline_exceeded.fetch_add(1);
    if (ran_pipeline) RecordRunSeconds(ticket->admission_key_, run_s);
  } else {
    counters_->completed.fetch_add(1);
    // Solver split (completed == exact + degraded): OK results marked
    // degraded() came from the greedy fallback; everything else —
    // including failed completions — counts as the exact path.
    if (degraded) {
      counters_->degraded.fetch_add(1);
    } else {
      counters_->exact.fetch_add(1);
    }
    if (outcome.ok()) {
      counters_->warm_start_hits.fetch_add(
          outcome.value().core().stats.warm_start_hits);
    }
    if (!outcome.ok()) {
      counters_->failed.fetch_add(1);
      if (ran_pipeline) RecordRunSeconds(ticket->admission_key_, run_s);
    } else {
      RecordLatencies(ticket->admission_key_, ticket->priority_, queue_s,
                      outcome.value().stage1_seconds(),
                      outcome.value().stage2_seconds(), total_s, run_s);
    }
  }
  if (!ticket->coalesce_key_.empty()) {
    bool share = ran_pipeline && !interrupted && !degraded;
    // Fan out before completing the leader (the shared outcome is moved
    // into the leader's ticket below); followers copy the Result shell,
    // not the artifacts — PipelineResult shares its blocks by pointer.
    if (share) FanOutShared(ticket, outcome);
    ticket->Complete(std::move(outcome));
    if (!share) ResolveOrPromoteFollowers(ticket);
  } else {
    ticket->Complete(std::move(outcome));
  }
}

void Explain3DService::FanOutShared(const TicketPtr& leader,
                                    const Result<PipelineResult>& outcome) {
  std::vector<TicketPtr> followers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = coalesce_groups_.find(leader->coalesce_key_);
    if (it == coalesce_groups_.end() ||
        it->second.leader.get() != leader.get()) {
      return;  // the group is gone (shutdown drained it)
    }
    followers = std::move(it->second.followers);
    coalesce_groups_.erase(it);
  }
  for (const TicketPtr& f : followers) {
    if (f->done()) continue;
    // Per-ticket independence: a follower whose OWN token fired resolves
    // its own terminal status, never the shared result.
    if (Status fired = CheckCancel(f->token_.get()); !fired.ok()) {
      ResolveFollowerTerminal(f, fired);
      continue;
    }
    f->CompleteIfQueued(outcome, [this, &outcome] {
      // A whole stage-1 build + solve that never ran. Classified by the
      // SHARED result, in the same buckets a solo run would use.
      counters_->coalesced_hits.fetch_add(1);
      counters_->completed.fetch_add(1);
      if (outcome.ok() && outcome.value().degraded()) {
        counters_->degraded.fetch_add(1);
      } else {
        counters_->exact.fetch_add(1);
      }
      if (!outcome.ok()) counters_->failed.fetch_add(1);
    });
  }
}

void Explain3DService::ResolveOrPromoteFollowers(const TicketPtr& leader) {
  std::vector<TicketPtr> followers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = coalesce_groups_.find(leader->coalesce_key_);
    if (it == coalesce_groups_.end() ||
        it->second.leader.get() != leader.get()) {
      return;
    }
    followers = std::move(it->second.followers);
    coalesce_groups_.erase(it);
  }
  // The leader ended with nothing shareable (its own cancel/deadline, a
  // stale handle, or a degraded answer). Fired followers resolve their
  // own status; the oldest live one becomes a fresh leader, re-enqueued
  // into its band with the rest carried over as its followers.
  TicketPtr promoted;
  std::vector<TicketPtr> rest;
  for (const TicketPtr& f : followers) {
    if (f->done()) continue;
    if (Status fired = CheckCancel(f->token_.get()); !fired.ok()) {
      ResolveFollowerTerminal(f, fired);
      continue;
    }
    if (promoted == nullptr) {
      promoted = f;
    } else {
      rest.push_back(f);
    }
  }
  if (promoted == nullptr) return;
  bool spawn = false;
  std::vector<TicketPtr> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      orphans.push_back(promoted);
      orphans.insert(orphans.end(), rest.begin(), rest.end());
    } else {
      CoalesceGroup& group = coalesce_groups_[promoted->coalesce_key_];
      if (group.leader != nullptr) {
        // A brand-new identical Submit claimed the key between the old
        // leader's death and this promotion: attach everyone to it
        // instead of running the work twice.
        group.followers.push_back(promoted);
        group.followers.insert(group.followers.end(), rest.begin(),
                               rest.end());
      } else {
        group.leader = promoted;
        group.followers = std::move(rest);
        // Re-enqueue outside any quota test: promotion is not a new
        // submit — the follower was admitted when it attached.
        EnqueueLocked(promoted);
        if (active_runners_ < max_concurrency_) {
          ++active_runners_;
          spawn = true;
        }
      }
    }
  }
  for (const TicketPtr& t : orphans) t->Cancel();
  if (spawn) SharedPool().Submit([this] { RunnerLoop(); });
}

void Explain3DService::ResolveFollowerTerminal(const TicketPtr& follower,
                                               const Status& fired) {
  if (fired.code() == StatusCode::kCancelled) {
    follower->CompleteIfQueued(
        Result<PipelineResult>(fired),
        [this] { counters_->cancelled.fetch_add(1); });
  } else {
    follower->CompleteIfQueued(
        Result<PipelineResult>(Status::DeadlineExceeded(
            "deadline expired while awaiting a coalesced result")),
        [this] { counters_->deadline_exceeded.fetch_add(1); });
  }
}

void Explain3DService::WatchdogLoop() {
  while (!watchdog_stop_.WaitForNotificationWithTimeout(
      options_.watchdog_interval_seconds)) {
    // Snapshot the running tickets' tokens under mu_, then Check()
    // outside it — Check can take the token's own lock on first deadline
    // discovery, and this thread must never nest that under mu_.
    std::vector<std::shared_ptr<CancelToken>> tokens;
    std::vector<TicketPtr> followers;
    {
      std::lock_guard<std::mutex> lock(mu_);
      tokens.reserve(running_tickets_.size());
      for (const TicketPtr& t : running_tickets_) {
        tokens.push_back(t->token_);
      }
      for (const auto& [key, group] : coalesce_groups_) {
        for (const TicketPtr& f : group.followers) followers.push_back(f);
      }
    }
    for (const std::shared_ptr<CancelToken>& token : tokens) {
      if (token == nullptr) continue;
      // Check() FIRES a token whose deadline lapsed between the
      // pipeline's cooperative polls: waiters on fired_event wake now
      // instead of at the next natural poll. Count only the transitions
      // this thread caused.
      bool was_fired = token->fired_event().HasBeenNotified();
      if (!token->Check().ok() && !was_fired) {
        watchdog_fires_.fetch_add(1);
      }
    }
    // Coalesced followers have no worker polling their token: this
    // sweep is what turns an expired follower deadline into a terminal
    // ticket while the shared run is still in flight.
    for (const TicketPtr& f : followers) {
      if (f->done() || f->token_ == nullptr) continue;
      bool was_fired = f->token_->fired_event().HasBeenNotified();
      Status fired = f->token_->Check();
      if (fired.ok()) continue;
      if (!was_fired) watchdog_fires_.fetch_add(1);
      ResolveFollowerTerminal(f, fired);
    }
  }
}

ServiceHealth Explain3DService::EvaluateHealthLocked() const {
  // See the ServiceHealth comment for the exact thresholds. Memoryless:
  // recomputed from the windows on every read, so recovery is automatic.
  double width = static_cast<double>(max_concurrency_);
  double depth = static_cast<double>(queued_tickets_);
  size_t rejections = 0;
  for (uint8_t r : recent_admissions_) rejections += r;
  if (depth >= options_.overload_queue_factor * width ||
      (recent_admissions_.size() >= 8 &&
       2 * rejections >= recent_admissions_.size())) {
    return ServiceHealth::kOverloaded;
  }
  bool any_transient = false;
  for (uint8_t t : recent_transients_) any_transient |= (t != 0);
  if (depth >= options_.degrade_queue_factor * width || any_transient) {
    return ServiceHealth::kDegraded;
  }
  return ServiceHealth::kHealthy;
}

void Explain3DService::NoteAdmissionLocked(bool rejected) {
  recent_admissions_.push_back(rejected ? 1 : 0);
  if (recent_admissions_.size() > kHealthWindow) {
    recent_admissions_.pop_front();
  }
}

void Explain3DService::NoteRunTransient(bool transient) {
  std::lock_guard<std::mutex> lock(mu_);
  recent_transients_.push_back(transient ? 1 : 0);
  if (recent_transients_.size() > kHealthWindow) {
    recent_transients_.pop_front();
  }
}

void Explain3DService::LatencyRing::Add(double v, size_t window) {
  if (samples.size() < window) {
    samples.push_back(v);
  } else {
    samples[next] = v;
    next = (next + 1) % window;
  }
}

void Explain3DService::RefreshRunP50Locked() {
  // The estimate only needs to be approximate: recompute on every
  // sample while the window is small (so the first estimate appears at
  // the first completion), then amortize the copy + nth_element over
  // kRefreshStride completions to keep stats_mu_ hold times flat at
  // high request rates.
  constexpr size_t kRefreshStride = 16;
  if (lat_run_.samples.size() >= 2 * kRefreshStride &&
      ++run_samples_since_refresh_ < kRefreshStride) {
    return;
  }
  run_samples_since_refresh_ = 0;
  std::vector<double> runs = lat_run_.samples;
  auto mid = runs.begin() + static_cast<long>(runs.size() / 2);
  std::nth_element(runs.begin(), mid, runs.end());
  run_p50_.store(*mid, std::memory_order_relaxed);
}

void Explain3DService::RecordRunSeconds(const std::string& admission_key,
                                        double run_s) {
  // Interrupted and failed runs feed the estimator too — their run time
  // is a LOWER bound on the work's true cost, which is exactly the
  // direction admission control must learn from. Skipping them would
  // fail open forever: a workload of deadline-doomed 60s solves would
  // never move a stale fast p50, and every one of them would keep being
  // admitted (the success-only rings below stay success-only — their
  // job is reporting healthy latency, not cost estimation).
  std::lock_guard<std::mutex> lock(stats_mu_);
  lat_run_.Add(run_s, kLatencyWindow);
  AddKeyedRunLocked(admission_key, run_s);
  RefreshRunP50Locked();
}

void Explain3DService::RecordLatencies(const std::string& admission_key,
                                       int priority, double queue_s,
                                       double stage1_s, double stage2_s,
                                       double total_s, double run_s) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  lat_queue_.Add(queue_s, kLatencyWindow);
  lat_stage1_.Add(stage1_s, kLatencyWindow);
  lat_stage2_.Add(stage2_s, kLatencyWindow);
  lat_total_.Add(total_s, kLatencyWindow);
  lat_run_.Add(run_s, kLatencyWindow);
  // Per-band rings are bounded: priorities are meant to be a handful of
  // service levels, and a caller feeding arbitrary ints (a counter, a
  // timestamp) must not grow the service's footprint forever. Bands
  // past the cap aggregate into one overflow ring — surfaced as the
  // kOverflowBand slice with bands_truncated raised — instead of being
  // silently dropped; global accounting above stays exact either way.
  auto band = lat_priority_.find(priority);
  if (band != lat_priority_.end()) {
    band->second.Add(total_s, kLatencyWindow);
  } else if (lat_priority_.size() < kMaxTrackedBands) {
    lat_priority_[priority].Add(total_s, kLatencyWindow);
  } else {
    bands_truncated_ = true;
    lat_overflow_.Add(total_s, kLatencyWindow);
  }
  AddKeyedRunLocked(admission_key, run_s);
  // Refresh the admission controller's run-time estimate (median of the
  // current window; the window is small, nth_element is microseconds).
  RefreshRunP50Locked();
}

double Explain3DService::KeyedRunP50(const std::string& key) {
  if (key.empty()) return 0;
  std::lock_guard<std::mutex> lock(stats_mu_);
  auto it = keyed_runs_.find(key);
  if (it == keyed_runs_.end()) return 0;
  // A lookup is a use: keys under active admission pressure stay
  // resident even while their completions are still rare.
  it->second.last_use = ++keyed_clock_;
  if (it->second.ring.samples.size() < kKeyedMinSamples) return 0;
  return it->second.p50;
}

void Explain3DService::AddKeyedRunLocked(const std::string& key,
                                         double run_s) {
  if (key.empty()) return;
  auto it = keyed_runs_.find(key);
  if (it == keyed_runs_.end()) {
    if (keyed_runs_.size() >= kKeyedCapacity) {
      // Evict the least-recently-used key. The capacity is small and
      // insertions past it are rare (a workload's key set is bounded by
      // its distinct (db-pair, config) combinations), so a linear scan
      // beats maintaining a second index.
      auto lru = keyed_runs_.begin();
      for (auto i = keyed_runs_.begin(); i != keyed_runs_.end(); ++i) {
        if (i->second.last_use < lru->second.last_use) lru = i;
      }
      keyed_runs_.erase(lru);
    }
    it = keyed_runs_.emplace(key, KeyedRuns{}).first;
  }
  KeyedRuns& runs = it->second;
  runs.ring.Add(run_s, kKeyedWindow);
  // The keyed window is tiny (kKeyedWindow samples): recompute the p50
  // on every add so the estimate tracks the workload immediately.
  std::vector<double> sorted = runs.ring.samples;
  auto mid = sorted.begin() + static_cast<long>(sorted.size() / 2);
  std::nth_element(sorted.begin(), mid, sorted.end());
  runs.p50 = *mid;
  runs.last_use = ++keyed_clock_;
}

double Explain3DService::EstimateRunSeconds(const std::string& admission_key) {
  double keyed = KeyedRunP50(admission_key);
  return keyed > 0 ? keyed : run_p50_.load(std::memory_order_relaxed);
}

// --- persistence tier -------------------------------------------------------

Status Explain3DService::SnapshotTo(const std::string& dir) {
  // Entries are immutable shared blocks, so snapshotting never pauses
  // serving: Entries() copies the key/pointer pairs under the cache lock
  // and the (slow) encoding walks them lock-free.
  std::vector<std::pair<std::string, ArtifactsPtr>> entries =
      cache_.Entries();
  std::vector<std::pair<std::string, IncumbentsPtr>> incumbents =
      cache_.IncumbentEntries();
  std::lock_guard<std::mutex> lock(persist_mu_);
  storage::ArtifactStore* store = nullptr;
  std::optional<storage::ArtifactStore> scratch;
  if (persist_store_.has_value() && persist_store_->dir() == dir) {
    store = &*persist_store_;  // share the open store, serialized here
  } else {
    E3D_ASSIGN_OR_RETURN(scratch, storage::ArtifactStore::Open(dir));
    store = &*scratch;
  }
  size_t written = 0;
  for (const auto& [key, art] : entries) {
    E3D_RETURN_IF_ERROR(store->PutArtifacts(key, *art));
    ++written;
  }
  for (const auto& [key, inc] : incumbents) {
    store->PutIncumbents(key, *inc);
  }
  E3D_RETURN_IF_ERROR(store->Commit());
  persisted_entries_.fetch_add(written);
  return Status::OK();
}

Status Explain3DService::RestoreFrom(const std::string& dir) {
  E3D_ASSIGN_OR_RETURN(storage::ArtifactStore store,
                       storage::ArtifactStore::Open(dir));
  return LoadStoreIntoCache(store);
}

Status Explain3DService::FlushPersistence() {
  {
    std::lock_guard<std::mutex> lock(persist_mu_);
    if (!persist_store_.has_value()) {
      return Status::InvalidArgument(
          "no persistence store open (ServiceOptions::persist_dir unset, "
          "or the store failed to open)");
    }
  }
  return DrainDirtyToStore();
}

Status Explain3DService::LoadStoreIntoCache(
    const storage::ArtifactStore& store) {
  E3D_ASSIGN_OR_RETURN(std::vector<storage::DecodedArtifacts> decoded,
                       store.LoadAllArtifacts());
  size_t entries = 0;
  for (storage::DecodedArtifacts& d : decoded) {
    // A live entry wins over the disk image (it is at least as fresh);
    // restored inserts are clean — they only re-persist if rebuilt.
    if (cache_.Put(d.key, std::move(d.artifacts))) ++entries;
  }
  E3D_ASSIGN_OR_RETURN(auto incumbents, store.LoadIncumbents());
  for (auto& [key, inc] : incumbents) {
    cache_.PutIncumbents(key, std::move(inc), /*dirty=*/false);
  }
  restored_entries_.fetch_add(entries);
  restored_incumbents_.fetch_add(incumbents.size());
  return Status::OK();
}

Status Explain3DService::DrainDirtyToStore() {
  // Taking the dirty set claims those keys for this pass; a failure
  // below loses their dirtiness (counted in persist_errors — the next
  // SnapshotTo or rebuild re-covers them) but never corrupts the store:
  // the previous commit stays intact under every failure mode.
  MatchingContext::DirtyKeys dirty = cache_.TakeDirtyKeys();
  if (dirty.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(persist_mu_);
  if (!persist_store_.has_value()) return Status::OK();
  Status first_error = Status::OK();
  size_t written = 0;
  for (const std::string& key : dirty.artifacts) {
    ArtifactsPtr art = cache_.Peek(key);
    if (art == nullptr) continue;  // evicted since it dirtied
    Status s = persist_store_->PutArtifacts(key, *art);
    if (!s.ok()) {
      if (first_error.ok()) first_error = s;
      continue;
    }
    ++written;
  }
  for (const std::string& key : dirty.incumbents) {
    IncumbentsPtr inc = cache_.PeekIncumbents(key);
    if (inc != nullptr) persist_store_->PutIncumbents(key, *inc);
  }
  Status commit = persist_store_->Commit();
  if (!commit.ok()) return commit;
  persisted_entries_.fetch_add(written);
  return first_error;
}

void Explain3DService::PersisterLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(persist_mu_);
      persist_cv_.wait_for(
          lock,
          std::chrono::duration<double>(options_.persist_interval_seconds),
          [this] { return persist_stop_; });
      if (persist_stop_) break;
    }
    if (!DrainDirtyToStore().ok()) persist_errors_.fetch_add(1);
  }
  // Final pass: the destructor drains the runners before stopping this
  // thread, so everything the last requests built reaches disk.
  if (!DrainDirtyToStore().ok()) persist_errors_.fetch_add(1);
}

ServiceStats Explain3DService::Stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Cancelled tickets sit in the bands until a worker pops and
    // discards them; they are not pending work, so don't report them as
    // backlog.
    for (const auto& [priority, band] : bands_) {
      size_t depth = 0;
      for (const auto& [client, queue] : band.clients) {
        for (const TicketPtr& t : queue) {
          if (!t->done()) ++depth;
        }
      }
      s.priority_bands[priority].queue_depth = depth;
      s.queue_depth += depth;
    }
    s.running = running_requests_;
    s.health = EvaluateHealthLocked();
  }
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    s.registered_databases = registry_.size();
  }
  s.submitted = counters_->submitted.load();
  s.completed = counters_->completed.load();
  s.cancelled = counters_->cancelled.load();
  s.deadline_exceeded = counters_->deadline_exceeded.load();
  s.rejected = counters_->rejected.load();
  s.quota_rejected = counters_->quota_rejected.load();
  s.coalesced_hits = counters_->coalesced_hits.load();
  s.failed = counters_->failed.load();
  s.completed_exact = counters_->exact.load();
  s.completed_degraded = counters_->degraded.load();
  s.retries = counters_->retries.load();
  s.watchdog_fires = watchdog_fires_.load();
  s.auto_degraded = auto_degraded_.load();
  s.fault_fires = FaultInjector::Instance().TotalFires();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s.queue_seconds = Summarize(lat_queue_.samples);
    s.stage1_seconds = Summarize(lat_stage1_.samples);
    s.stage2_seconds = Summarize(lat_stage2_.samples);
    s.total_seconds = Summarize(lat_total_.samples);
    s.run_seconds = Summarize(lat_run_.samples);
    for (const auto& [priority, ring] : lat_priority_) {
      s.priority_bands[priority].total_seconds = Summarize(ring.samples);
    }
    s.bands_truncated = bands_truncated_;
    if (bands_truncated_) {
      s.priority_bands[ServiceStats::kOverflowBand].total_seconds =
          Summarize(lat_overflow_.samples);
    }
  }
  s.cache_entries = cache_.size();
  s.cache_bytes = cache_.bytes();
  s.warm_hits = cache_.hits();
  s.cold_misses = cache_.misses();
  s.cache_evictions = cache_.evictions();
  s.warm_start_hits = counters_->warm_start_hits.load();
  s.incumbent_entries = cache_.incumbent_entries();
  s.incumbent_hits = cache_.incumbent_hits();
  s.incumbent_misses = cache_.incumbent_misses();
  s.restored_entries = restored_entries_.load();
  s.restored_incumbents = restored_incumbents_.load();
  s.persisted_entries = persisted_entries_.load();
  s.persist_errors = persist_errors_.load();
  return s;
}

}  // namespace explain3d
