#include "serve/manager.h"

#include <limits>
#include <utility>

#include "common/string_util.h"
#include "core/query_spec.h"
#include "core/session.h"

namespace bayescrowd::serve {

namespace {

/// Consecutive step failures after which a session is quarantined.
constexpr std::size_t kQuarantineAfterFailures = 3;

Status NotResident(const std::string& id) {
  return Status::NotFound(StrFormat("serve: no session '%s'", id.c_str()));
}

std::vector<obs::Label> TenantLabels(const std::string& tenant) {
  return {{"tenant", tenant}};
}

std::vector<obs::Label> SessionLabels(const std::string& tenant,
                                      const std::string& id) {
  return {{"tenant", tenant}, {"session", id}};
}

std::string EventDetail(const std::string& tenant, const std::string& id,
                        const std::string& extra) {
  std::string out = StrFormat("tenant=%s session=%s", tenant.c_str(),
                              id.c_str());
  if (!extra.empty()) {
    out += ' ';
    out += extra;
  }
  return out;
}

}  // namespace

SessionManager::SessionManager(Options options)
    : options_(std::move(options)), pool_(options_.threads) {
  if (options_.max_resident_sessions == 0) options_.max_resident_sessions = 1;
  if (options_.max_sessions_per_tenant == 0) {
    options_.max_sessions_per_tenant = 1;
  }
  if (!options_.state_dir.empty()) {
    manifest_ = std::make_unique<ServeManifest>(
        ServeManifest::Options{.path = ManifestPath(), .io = io()});
  }
}

FileIo* SessionManager::io() const {
  return options_.io != nullptr ? options_.io : RealFileIo();
}

std::string SessionManager::ManifestPath() const {
  return options_.state_dir + "/serve-manifest.bin";
}

std::uint64_t SessionManager::SpecFingerprint(const SessionSpec& spec) {
  return HashBytes(spec.manifest_blob, HashBytes(spec.tenant));
}

ManifestEvent SessionManager::EventOf(const Session& session,
                                      ManifestEventKind kind,
                                      const std::string& detail) const {
  ManifestEvent event;
  event.kind = kind;
  event.session_id = session.spec.id;
  event.tenant = session.spec.tenant;
  event.rounds = session.runner != nullptr ? session.runner->rounds() : 0;
  event.qos_level = session.qos_level;
  event.spec_fingerprint = SpecFingerprint(session.spec);
  event.checkpoint_dir = session.spec.checkpoint_dir;
  event.checkpoint_keep = session.spec.checkpoint_keep;
  event.spec_blob = session.spec.manifest_blob;
  event.detail = detail;
  return event;
}

void SessionManager::Journal(const ManifestEvent& event) {
  if (manifest_ == nullptr) return;
  const Status appended = manifest_->Append(event);
  if (appended.ok()) return;
  // The manifest is a recovery aid: losing a record degrades recovery
  // fidelity for this session, it must not fail the verb that already
  // succeeded. Count it and leave a flight trace.
  metrics_.GetCounter("serve.manifest.append_failures")->Increment();
  flight_.Record(obs::FlightEventKind::kNote, 0, -1, 0.0, 0.0,
                 StrFormat("manifest append failed: %s",
                           appended.ToString().c_str()));
}

const TenantQos* SessionManager::QosFor(const std::string& tenant) const {
  const auto it = options_.qos.find(tenant);
  return it == options_.qos.end() ? nullptr : &it->second;
}

SessionManager::Session* SessionManager::FindLocked(const std::string& id) {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

Result<SessionManager::Session*> SessionManager::SteppableLocked(
    const std::string& id) {
  std::lock_guard<std::mutex> registry(registry_mu_);
  if (quarantined_.count(id) != 0) {
    return Status::FailedPrecondition(
        StrFormat("serve: session '%s' is quarantined", id.c_str()));
  }
  Session* session = FindLocked(id);
  if (session == nullptr) return NotResident(id);
  if (session->finished) {
    return Status::FailedPrecondition(
        StrFormat("serve: session '%s' already finished", id.c_str()));
  }
  return session;
}

void SessionManager::UnlinkLocked(const std::string& id,
                                  const std::string& tenant) {
  sessions_.erase(id);
  for (auto it = creation_order_.begin(); it != creation_order_.end();
       ++it) {
    if (*it == id) {
      creation_order_.erase(it);
      break;
    }
  }
  auto tenant_it = tenant_resident_.find(tenant);
  if (tenant_it != tenant_resident_.end() && tenant_it->second > 0) {
    --tenant_it->second;
  }
  metrics_.GetGauge("serve.sessions.resident")
      ->Set(static_cast<double>(sessions_.size()));
}

std::string SessionManager::SnapshotBeforeUnlink(Session* session) {
  if (session->finished || session->store == nullptr ||
      !session->runner->initialized()) {
    return "";
  }
  const Status snapshot = session->runner->WriteCheckpointNow();
  return snapshot.ok()
             ? StrFormat("checkpointed@%zu", session->runner->rounds())
             : StrFormat("checkpoint failed: %s",
                         snapshot.ToString().c_str());
}

Status SessionManager::Create(SessionSpec spec) {
  std::lock_guard<std::mutex> work(work_mu_);
  return CreateImpl(std::move(spec), /*journal=*/true);
}

Status SessionManager::Admit(const std::string& id,
                             const std::string& tenant) {
  const char* unsafe = !IsSafeName(id)       ? "id"
                       : !IsSafeName(tenant) ? "tenant"
                                             : nullptr;
  if (unsafe != nullptr) {
    return Status::InvalidArgument(
        StrFormat("serve: %s must be non-empty [A-Za-z0-9._-] (ids name "
                  "checkpoint files; ids and tenants label metrics)",
                  unsafe));
  }
  // Capacity rejections are first-class telemetry: a labeled counter
  // plus a flight event, so capacity pressure is attributable per
  // tenant after the fact.
  std::lock_guard<std::mutex> registry(registry_mu_);
  if (sessions_.count(id) != 0) {
    return Status::AlreadyExists(
        StrFormat("serve: session '%s' already resident", id.c_str()));
  }
  std::string reject;
  if (sessions_.size() >= options_.max_resident_sessions) {
    reject = StrFormat("server at capacity (%zu resident)", sessions_.size());
  } else {
    const auto it = tenant_resident_.find(tenant);
    const std::size_t tenant_now =
        it == tenant_resident_.end() ? 0 : it->second;
    if (tenant_now >= options_.max_sessions_per_tenant) {
      reject = StrFormat("tenant at capacity (%zu resident)", tenant_now);
    }
  }
  if (reject.empty()) return Status::OK();
  metrics_.GetCounter("serve.admission.rejected", TenantLabels(tenant))
      ->Increment();
  flight_.Record(obs::FlightEventKind::kAdmission, 0, -1, 0.0,
                 /*value=*/0.0, EventDetail(tenant, id, reject));
  return Status::ResourceExhausted(
      StrFormat("serve: admission rejected for '%s': %s", id.c_str(),
                reject.c_str()));
}

Status SessionManager::CreateImpl(SessionSpec spec, bool journal) {
  BAYESCROWD_RETURN_NOT_OK(Admit(spec.id, spec.tenant));
  if (spec.resume && spec.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "serve: resume requires a checkpoint_dir");
  }

  auto session = std::make_unique<Session>();
  session->platform = MakeSimulatedCrowd(
      spec.ground_truth, spec.use_marketplace, spec.platform,
      spec.marketplace, &session->metrics, &flight_);
  session->posteriors =
      spec.posteriors != nullptr
          ? spec.posteriors
          : std::make_shared<UniformPosteriorProvider>(
                spec.incomplete.schema());

  BayesCrowdOptions options = spec.options;
  options.pool = &pool_;
  options.threads = 0;
  options.metrics = &session->metrics;
  options.session = spec.id;  // cost.* series carry the session id.
  if (!spec.checkpoint_dir.empty()) {
    CheckpointStore::Options store_options;
    store_options.dir = spec.checkpoint_dir;
    store_options.session_id = spec.id;
    store_options.keep = spec.checkpoint_keep;
    store_options.io = spec.io != nullptr ? spec.io : io();
    session->store = std::make_unique<CheckpointStore>(store_options);
    options.checkpoint_sink = session->store.get();
  }
  if (spec.resume) {
    Result<SessionState> latest = session->store->LoadLatest(
        std::numeric_limits<std::size_t>::max(),
        &session->resume_fallbacks);
    BAYESCROWD_RETURN_NOT_OK(latest.status());
    session->resume_state =
        std::make_unique<SessionState>(std::move(latest).value());
    options.resume = session->resume_state.get();
    session->resumed = true;
  }
  session->current_governor = options.probability.governor;

  session->runner = std::make_unique<QueryRunner>(options);
  session->spec = std::move(spec);
  Session& ref = *session;
  BAYESCROWD_RETURN_NOT_OK(ref.runner->Init(
      ref.spec.incomplete, *ref.posteriors, *ref.platform));

  // A resumed session may already be past a QoS threshold: re-apply the
  // step its round count calls for before it advances, so resume lands
  // on the same governor the uninterrupted session would be running.
  BAYESCROWD_RETURN_NOT_OK(MaybeDegrade(&ref));

  {
    std::lock_guard<std::mutex> registry(registry_mu_);
    const std::string& tenant = ref.spec.tenant;
    const std::string& id = ref.spec.id;
    // Re-admitting a quarantined id is the operator's "the cause is
    // fixed" signal: the record gives way to the live session.
    quarantined_.erase(id);
    creation_order_.push_back(id);
    ++tenant_resident_[tenant];
    metrics_.GetCounter("serve.admission.admitted", TenantLabels(tenant))
        ->Increment();
    metrics_.GetCounter("serve.sessions.created", TenantLabels(tenant))
        ->Increment();
    flight_.Record(obs::FlightEventKind::kAdmission, ref.runner->rounds(),
                   -1, 0.0, /*value=*/1.0, EventDetail(tenant, id, ""));
    sessions_.emplace(id, std::move(session));
    metrics_.GetGauge("serve.sessions.resident")
        ->Set(static_cast<double>(sessions_.size()));
  }
  if (journal) {
    Journal(EventOf(ref, ManifestEventKind::kCreate,
                    ref.resumed ? "resumed" : ""));
  }
  return Status::OK();
}

Status SessionManager::MaybeDegrade(Session* session) {
  const TenantQos* qos = QosFor(session->spec.tenant);
  if (qos == nullptr || qos->degrade_after_rounds == 0 ||
      qos->ladder.empty()) {
    return Status::OK();
  }
  const std::size_t rounds = session->runner->rounds();
  if (rounds < qos->degrade_after_rounds) return Status::OK();
  std::size_t desired =
      1 + (qos->degrade_every_rounds > 0
               ? (rounds - qos->degrade_after_rounds) /
                     qos->degrade_every_rounds
               : 0);
  if (desired > qos->ladder.size()) desired = qos->ladder.size();
  if (desired <= session->qos_level) return Status::OK();
  const GovernorOptions& governor = qos->ladder[desired - 1];
  session->current_governor = governor;
  BAYESCROWD_RETURN_NOT_OK(ApplyGovernorNow(session));
  session->qos_level = desired;
  metrics_.GetCounter(
      "serve.qos.degrades",
      SessionLabels(session->spec.tenant, session->spec.id))
      ->Increment();
  flight_.Record(
      obs::FlightEventKind::kQosDegrade, rounds, -1, 0.0,
      static_cast<double>(desired),
      EventDetail(session->spec.tenant, session->spec.id,
                 StrFormat("level=%zu max_nodes=%llu", desired,
                           static_cast<unsigned long long>(
                               governor.max_nodes))));
  return Status::OK();
}

Status SessionManager::ApplyGovernorNow(Session* session) {
  GovernorOptions governor = session->current_governor;
  if (session->request_deadline_ms > 0 &&
      (governor.deadline_ms <= 0 ||
       session->request_deadline_ms < governor.deadline_ms)) {
    governor.deadline_ms = session->request_deadline_ms;
  }
  return session->runner->ApplyGovernor(governor);
}

class SessionManager::InflightGuard {
 public:
  explicit InflightGuard(std::atomic<std::size_t>* inflight)
      : inflight_(inflight) {}
  ~InflightGuard() {
    inflight_->fetch_sub(1, std::memory_order_relaxed);
  }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  std::atomic<std::size_t>* inflight_;
};

Status SessionManager::AdmitStep(const char* verb) {
  const auto shed = [&](const std::string& why) {
    metrics_.GetCounter("serve.shed.requests", {{"verb", verb}})
        ->Increment();
    flight_.Record(obs::FlightEventKind::kOverload, 0, -1, 0.0,
                   static_cast<double>(options_.retry_after_ms),
                   StrFormat("verb=%s %s", verb, why.c_str()));
    return Status::Unavailable(StrFormat(
        "serve: overloaded (%s): %s; retry_after_ms=%lld", verb,
        why.c_str(),
        static_cast<long long>(options_.retry_after_ms)));
  };
  if (options_.debug_shed_every > 0) {
    const std::uint64_t n =
        step_requests_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n % options_.debug_shed_every == 0) {
      return shed(StrFormat("shedding every %zu requests (chaos)",
                            options_.debug_shed_every));
    }
  }
  const std::size_t inflight =
      inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (inflight > 1 + options_.max_queued_requests) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    return shed(StrFormat("%zu stepping requests in flight (queue cap %zu)",
                          inflight, options_.max_queued_requests));
  }
  return Status::OK();
}

void SessionManager::NoteStepFailure(Session* session, const Status& error) {
  ++session->consecutive_failures;
  metrics_.GetCounter(
      "serve.step.failures",
      SessionLabels(session->spec.tenant, session->spec.id))
      ->Increment();
  if (session->consecutive_failures >= kQuarantineAfterFailures) {
    QuarantineLocked(session, error.ToString());
  }
}

void SessionManager::QuarantineLocked(Session* session,
                                      const std::string& reason) {
  const std::string id = session->spec.id;
  const std::string tenant = session->spec.tenant;
  // If the disk recovered, the quarantined session's progress survives
  // for a later re-admission; if not, the failure is already the reason
  // we're here.
  const std::string extra = SnapshotBeforeUnlink(session);
  QuarantineRecord record;
  record.tenant = tenant;
  record.rounds = session->runner->rounds();
  record.qos_level = session->qos_level;
  record.reason = reason;
  Journal(EventOf(*session, ManifestEventKind::kQuarantine, reason));
  metrics_.GetCounter("serve.quarantine.sessions",
                      SessionLabels(tenant, id))
      ->Increment();
  flight_.Record(
      obs::FlightEventKind::kQuarantine, session->runner->rounds(), -1,
      0.0, static_cast<double>(session->consecutive_failures),
      EventDetail(tenant, id,
                 StrFormat("%s%s%s", reason.c_str(),
                           extra.empty() ? "" : " ", extra.c_str())));
  {
    std::lock_guard<std::mutex> registry(registry_mu_);
    quarantined_.emplace(id, std::move(record));
    UnlinkLocked(id, tenant);
    metrics_.GetGauge("serve.sessions.quarantined")
        ->Set(static_cast<double>(quarantined_.size()));
  }
}

Status SessionManager::AdvanceLockedImpl(Session* session,
                                         std::size_t max_rounds,
                                         std::int64_t deadline_ms,
                                         AdvanceOutcome* out) {
  obs::Counter* rounds_counter = metrics_.GetCounter(
      "serve.rounds", SessionLabels(session->spec.tenant,
                                    session->spec.id));
  // A request deadline rides on whatever governor is current (and on
  // any ladder rung MaybeDegrade applies mid-loop); it is degrade-only
  // and fingerprint-excluded, so tightening and restoring it never
  // perturbs checkpoints or determinism.
  session->request_deadline_ms = deadline_ms;
  Status status = Status::OK();
  if (deadline_ms > 0) status = ApplyGovernorNow(session);
  for (std::size_t i = 0;
       status.ok() && i < max_rounds && !session->runner->Done(); ++i) {
    status = MaybeDegrade(session);
    const std::size_t rounds_before = session->runner->rounds();
    if (status.ok()) status = session->runner->Step();
    if (!status.ok()) break;
    // A step that finds nothing left to ask ends the session without
    // running a round.
    if (session->runner->rounds() == rounds_before) continue;
    rounds_counter->Increment();
    ++out->rounds_run;
  }
  session->request_deadline_ms = 0;
  if (deadline_ms > 0) {
    const Status restored = ApplyGovernorNow(session);
    if (status.ok()) status = restored;
  }
  if (status.ok()) {
    session->consecutive_failures = 0;
    out->qos_level = session->qos_level;
    out->done = session->runner->Done();
    return Status::OK();
  }
  NoteStepFailure(session, status);
  return status;
}

Result<AdvanceOutcome> SessionManager::Advance(const std::string& id,
                                               std::size_t max_rounds,
                                               std::int64_t deadline_ms) {
  BAYESCROWD_RETURN_NOT_OK(AdmitStep("advance"));
  InflightGuard admitted(&inflight_);
  std::lock_guard<std::mutex> work(work_mu_);
  BAYESCROWD_ASSIGN_OR_RETURN(Session* session, SteppableLocked(id));
  AdvanceOutcome out;
  BAYESCROWD_RETURN_NOT_OK(
      AdvanceLockedImpl(session, max_rounds, deadline_ms, &out));
  return out;
}

Result<std::size_t> SessionManager::AdvanceAll(std::size_t quantum) {
  BAYESCROWD_RETURN_NOT_OK(AdmitStep("advance_all"));
  InflightGuard admitted(&inflight_);
  std::lock_guard<std::mutex> work(work_mu_);
  std::vector<Session*> order;
  {
    std::lock_guard<std::mutex> registry(registry_mu_);
    for (const std::string& id : creation_order_) {
      Session* session = FindLocked(id);
      if (session != nullptr) order.push_back(session);
    }
  }
  std::size_t active = 0;
  for (Session* session : order) {
    if (session->finished || session->runner->Done()) continue;
    AdvanceOutcome out;
    // One session's failure is that session's problem: count it (the
    // quarantine threshold isolates a repeat offender) and keep the
    // sweep going for everyone else — the shared pool never latches.
    const Status advanced =
        AdvanceLockedImpl(session, quantum, /*deadline_ms=*/0, &out);
    if (!advanced.ok()) continue;
    if (!out.done) ++active;
  }
  return active;
}

Status SessionManager::Checkpoint(const std::string& id) {
  BAYESCROWD_RETURN_NOT_OK(AdmitStep("checkpoint"));
  InflightGuard admitted(&inflight_);
  std::lock_guard<std::mutex> work(work_mu_);
  BAYESCROWD_ASSIGN_OR_RETURN(Session* session, SteppableLocked(id));
  return session->runner->WriteCheckpointNow();
}

Result<BayesCrowdResult> SessionManager::Finish(const std::string& id) {
  BAYESCROWD_RETURN_NOT_OK(AdmitStep("finish"));
  InflightGuard admitted(&inflight_);
  std::lock_guard<std::mutex> work(work_mu_);
  BAYESCROWD_ASSIGN_OR_RETURN(Session* session, SteppableLocked(id));
  BAYESCROWD_RETURN_NOT_OK(session->runner->Finish());
  session->finished = true;
  metrics_.GetCounter("serve.sessions.finished",
                      TenantLabels(session->spec.tenant))
      ->Increment();
  Journal(EventOf(*session, ManifestEventKind::kFinish, ""));
  return session->runner->TakeResult();
}

Status SessionManager::Evict(const std::string& id) {
  std::lock_guard<std::mutex> work(work_mu_);
  Session* session;
  {
    std::lock_guard<std::mutex> registry(registry_mu_);
    // Evicting a quarantine record just drops the record; the journal
    // already carries the quarantine event, and an evict on top tells
    // recovery not to resurrect even the record.
    const auto quarantine_it = quarantined_.find(id);
    if (quarantine_it != quarantined_.end()) {
      ManifestEvent event;
      event.kind = ManifestEventKind::kEvict;
      event.session_id = id;
      event.tenant = quarantine_it->second.tenant;
      event.rounds = quarantine_it->second.rounds;
      quarantined_.erase(quarantine_it);
      metrics_.GetGauge("serve.sessions.quarantined")
          ->Set(static_cast<double>(quarantined_.size()));
      Journal(event);
      return Status::OK();
    }
    session = FindLocked(id);
  }
  if (session == nullptr) return NotResident(id);
  // An unfinished session's progress survives eviction.
  const std::string extra = SnapshotBeforeUnlink(session);
  const std::string tenant = session->spec.tenant;
  flight_.Record(obs::FlightEventKind::kEviction,
                 session->runner->rounds(), -1, 0.0,
                 session->finished ? 1.0 : 0.0,
                 EventDetail(tenant, id, extra));
  Journal(EventOf(*session, ManifestEventKind::kEvict, extra));
  {
    std::lock_guard<std::mutex> registry(registry_mu_);
    UnlinkLocked(id, tenant);
    metrics_.GetCounter("serve.sessions.evicted", TenantLabels(tenant))
        ->Increment();
  }
  return Status::OK();
}

Result<RecoveryReport> SessionManager::Recover(
    const SpecResolver& resolver) {
  if (options_.state_dir.empty()) {
    return Status::FailedPrecondition(
        "serve: recover requires a state_dir");
  }
  std::lock_guard<std::mutex> work(work_mu_);
  {
    std::lock_guard<std::mutex> registry(registry_mu_);
    if (!sessions_.empty() || !quarantined_.empty()) {
      return Status::FailedPrecondition(
          "serve: recover must run before any session is resident");
    }
  }
  BAYESCROWD_ASSIGN_OR_RETURN(const ManifestLoad load,
                              LoadManifest(io(), ManifestPath()));
  RecoveryReport report;
  report.events_replayed = load.events.size();
  report.torn_tail_records = load.torn_tail_records;
  report.unknown_event_records = load.unknown_kind_records;

  // Pass 1: fold the journal into the live set — create makes an id
  // live; finish/evict retire it; quarantine converts it to a record
  // recovery carries over but does not resume.
  std::map<std::string, ManifestEvent> live;
  std::vector<std::string> live_order;
  std::map<std::string, ManifestEvent> quarantine_events;
  const auto retire = [&](const std::string& id) {
    live.erase(id);
    for (auto it = live_order.begin(); it != live_order.end(); ++it) {
      if (*it == id) {
        live_order.erase(it);
        break;
      }
    }
  };
  for (const ManifestEvent& event : load.events) {
    switch (event.kind) {
      case ManifestEventKind::kCreate:
        if (live.count(event.session_id) != 0) {
          // A duplicate create for a live id (a crash between the
          // registry insert and the journal append replayed twice, or
          // a damaged writer). Newest wins; count it.
          ++report.duplicate_events;
        } else {
          live_order.push_back(event.session_id);
        }
        live[event.session_id] = event;
        quarantine_events.erase(event.session_id);
        break;
      case ManifestEventKind::kFinish:
      case ManifestEventKind::kEvict:
        retire(event.session_id);
        quarantine_events.erase(event.session_id);
        break;
      case ManifestEventKind::kQuarantine:
        retire(event.session_id);
        quarantine_events[event.session_id] = event;
        break;
    }
  }

  // Pass 2: re-admit every live session, newest valid checkpoint first,
  // fresh from round 0 when none survived (the simulated crowd is
  // deterministic, so a fresh re-run converges to the same state).
  for (const std::string& id : live_order) {
    const ManifestEvent& event = live.at(id);
    Result<SessionSpec> resolved = resolver(event);
    if (!resolved.ok()) {
      ++report.sessions_failed;
      flight_.Record(obs::FlightEventKind::kRecovery, event.rounds, -1,
                     0.0, /*value=*/0.0,
                     EventDetail(event.tenant, id,
                                 StrFormat("resolver failed: %s",
                                           resolved.status().ToString()
                                               .c_str())));
      continue;
    }
    SessionSpec spec = std::move(resolved).value();
    // The journal, not the resolver, is authoritative for identity and
    // the checkpoint namespace.
    spec.id = id;
    spec.tenant = event.tenant;
    if (!event.checkpoint_dir.empty()) {
      spec.checkpoint_dir = event.checkpoint_dir;
      spec.checkpoint_keep =
          static_cast<std::size_t>(event.checkpoint_keep);
    }
    if (SpecFingerprint(spec) != event.spec_fingerprint) {
      ++report.fingerprint_mismatches;
      ++report.sessions_failed;
      flight_.Record(obs::FlightEventKind::kRecovery, event.rounds, -1,
                     0.0, /*value=*/0.0,
                     EventDetail(event.tenant, id,
                                 "spec fingerprint mismatch"));
      continue;
    }
    bool try_resume = false;
    if (!spec.checkpoint_dir.empty()) {
      CheckpointStore::Options probe_options;
      probe_options.dir = spec.checkpoint_dir;
      probe_options.session_id = id;
      probe_options.keep = spec.checkpoint_keep;
      probe_options.io = spec.io != nullptr ? spec.io : io();
      CheckpointStore probe(probe_options);
      try_resume = !probe.ListGenerations().empty();
    }
    SessionSpec fresh_copy;
    if (try_resume) fresh_copy = spec;  // Copy before the move below.
    spec.resume = try_resume;
    Status created = CreateImpl(std::move(spec), /*journal=*/false);
    bool resumed = try_resume;
    if (!created.ok() && try_resume) {
      // Every generation was damaged (LoadLatest fell all the way
      // through) or the snapshot refused to load. PR 4 semantics: fall
      // back to a fresh run rather than losing the session.
      fresh_copy.resume = false;
      created = CreateImpl(std::move(fresh_copy), /*journal=*/false);
      resumed = false;
    }
    if (!created.ok()) {
      ++report.sessions_failed;
      flight_.Record(obs::FlightEventKind::kRecovery, event.rounds, -1,
                     0.0, /*value=*/0.0,
                     EventDetail(event.tenant, id,
                                 StrFormat("re-admission failed: %s",
                                           created.ToString().c_str())));
      continue;
    }
    std::size_t rounds = 0;
    {
      std::lock_guard<std::mutex> registry(registry_mu_);
      const Session* session = FindLocked(id);
      report.checkpoint_fallbacks += session->resume_fallbacks;
      rounds = session->runner->rounds();
    }
    if (resumed) {
      ++report.sessions_resumed;
    } else {
      ++report.sessions_fresh;
    }
    flight_.Record(obs::FlightEventKind::kRecovery, rounds, -1,
                   0.0, /*value=*/1.0,
                   EventDetail(event.tenant, id,
                               resumed ? "resumed" : "fresh"));
  }

  // Carry quarantine records over so list/info keep reporting them.
  {
    std::lock_guard<std::mutex> registry(registry_mu_);
    for (const auto& [id, event] : quarantine_events) {
      QuarantineRecord record;
      record.tenant = event.tenant;
      record.rounds = static_cast<std::size_t>(event.rounds);
      record.qos_level = static_cast<std::size_t>(event.qos_level);
      record.reason = event.detail;
      quarantined_.emplace(id, std::move(record));
      report.quarantined.push_back(id);
    }
    metrics_.GetGauge("serve.sessions.quarantined")
        ->Set(static_cast<double>(quarantined_.size()));
  }

  // Compact the journal: one create per live session (at its recovered
  // round count) plus the surviving quarantine records, atomically
  // rotated in. Torn tails and retired ids are gone for good.
  if (manifest_ != nullptr) {
    std::vector<ManifestEvent> compacted;
    {
      std::lock_guard<std::mutex> registry(registry_mu_);
      for (const std::string& id : creation_order_) {
        Session* session = FindLocked(id);
        if (session == nullptr) continue;
        compacted.push_back(EventOf(*session, ManifestEventKind::kCreate,
                                    "recovered"));
      }
      for (const auto& [id, event] : quarantine_events) {
        compacted.push_back(event);
      }
    }
    const Status rotated = manifest_->Rewrite(compacted);
    if (!rotated.ok()) {
      metrics_.GetCounter("serve.manifest.append_failures")->Increment();
      flight_.Record(obs::FlightEventKind::kNote, 0, -1, 0.0, 0.0,
                     StrFormat("manifest rotation failed: %s",
                               rotated.ToString().c_str()));
    }
  }

  metrics_.GetCounter("serve.recovery.events_replayed")
      ->Increment(static_cast<std::uint64_t>(report.events_replayed));
  metrics_.GetCounter("serve.recovery.sessions_resumed")
      ->Increment(static_cast<std::uint64_t>(report.sessions_resumed));
  metrics_.GetCounter("serve.recovery.sessions_fresh")
      ->Increment(static_cast<std::uint64_t>(report.sessions_fresh));
  metrics_.GetCounter("serve.recovery.sessions_failed")
      ->Increment(static_cast<std::uint64_t>(report.sessions_failed));
  metrics_.GetCounter("serve.recovery.checkpoint_fallbacks")
      ->Increment(static_cast<std::uint64_t>(report.checkpoint_fallbacks));
  metrics_.GetCounter("serve.recovery.torn_tail_records")
      ->Increment(static_cast<std::uint64_t>(report.torn_tail_records));
  metrics_.GetCounter("serve.recovery.unknown_event_records")
      ->Increment(static_cast<std::uint64_t>(report.unknown_event_records));
  return report;
}

SessionInfo SessionManager::InfoOf(const Session& session) const {
  SessionInfo info;
  info.id = session.spec.id;
  info.tenant = session.spec.tenant;
  info.rounds = session.runner->rounds();
  info.budget_left = session.runner->budget_left();
  info.qos_level = session.qos_level;
  info.done = session.finished || session.runner->Done();
  info.finished = session.finished;
  info.resumed = session.resumed;
  return info;
}

SessionInfo SessionManager::InfoOfQuarantined(
    const std::string& id, const QuarantineRecord& record) {
  SessionInfo info;
  info.id = id;
  info.tenant = record.tenant;
  info.rounds = record.rounds;
  info.qos_level = record.qos_level;
  info.done = true;  // Quarantined sessions cannot advance.
  info.quarantined = true;
  return info;
}

Result<SessionInfo> SessionManager::Info(const std::string& id) {
  std::lock_guard<std::mutex> work(work_mu_);
  std::lock_guard<std::mutex> registry(registry_mu_);
  const auto quarantine_it = quarantined_.find(id);
  if (quarantine_it != quarantined_.end()) {
    return InfoOfQuarantined(id, quarantine_it->second);
  }
  const Session* session = FindLocked(id);
  if (session == nullptr) return NotResident(id);
  return InfoOf(*session);
}

std::vector<SessionInfo> SessionManager::List() {
  std::lock_guard<std::mutex> work(work_mu_);
  std::lock_guard<std::mutex> registry(registry_mu_);
  std::vector<SessionInfo> out;
  out.reserve(creation_order_.size() + quarantined_.size());
  for (const std::string& id : creation_order_) {
    const Session* session = FindLocked(id);
    if (session != nullptr) out.push_back(InfoOf(*session));
  }
  // Quarantined records trail the live set, in id order (deterministic
  // regardless of quarantine timing).
  for (const auto& [id, record] : quarantined_) {
    out.push_back(InfoOfQuarantined(id, record));
  }
  return out;
}

std::size_t SessionManager::resident() const {
  std::lock_guard<std::mutex> registry(registry_mu_);
  return sessions_.size();
}

obs::MetricsSnapshot SessionManager::MetricsSnapshot() const {
  return metrics_.Snapshot();
}

}  // namespace bayescrowd::serve
