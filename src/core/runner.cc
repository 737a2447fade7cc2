#include "core/runner.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <utility>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/checkpoint.h"
#include "core/entropy.h"
#include "core/update.h"

namespace bayescrowd {

Status QueryRunner::Init(const Table& incomplete,
                         PosteriorProvider& posteriors,
                         CrowdPlatform& platform) {
  if (initialized_) {
    return Status::FailedPrecondition("QueryRunner::Init called twice");
  }
  if (options_.latency == 0) {
    return Status::InvalidArgument("latency must be >= 1 round");
  }
  if (options_.retry.max_attempts == 0) {
    return Status::InvalidArgument("retry.max_attempts must be >= 1");
  }
  if (options_.retry.max_barren_rounds == 0) {
    return Status::InvalidArgument("retry.max_barren_rounds must be >= 1");
  }
  if (options_.retry.attempt_seconds < 0.0 ||
      options_.retry.backoff_initial_seconds < 0.0 ||
      options_.retry.backoff_multiplier < 1.0 ||
      options_.retry.round_deadline_seconds < 0.0) {
    return Status::InvalidArgument("retry policy times must be >= 0 and "
                                   "the backoff multiplier >= 1");
  }
  if (options_.adaptive.enabled &&
      (options_.adaptive.base_votes == 0 ||
       options_.adaptive.max_votes < options_.adaptive.base_votes ||
       options_.adaptive.extra_vote_cost < 0.0)) {
    return Status::InvalidArgument(
        "adaptive votes: base_votes must be >= 1, max_votes >= "
        "base_votes, and extra_vote_cost >= 0");
  }

  Stopwatch init_watch;
  run_span_.emplace("bayescrowd.run");
  platform_ = &platform;

  // Per-run registry unless the caller injected one: repeated runs in
  // one process start from zeroed counters either way the caller set it
  // up, and the snapshot still lands in the result.
  metrics_ = options_.metrics != nullptr ? options_.metrics : &local_metrics_;
  obs::MetricsRegistry* const metrics = metrics_;

  // One pool for the whole query: the c-table build fans out over it
  // below, and so does every probability batch of the crowdsourcing
  // phase (entropy ranking, counterfactual scoring inside SelectTasks)
  // through the evaluator. Spawned before the first Step's watch
  // starts: thread startup is setup cost, not round work. A serving
  // process passes its shared pool instead (options_.pool) and no
  // thread is spawned here at all.
  if (options_.pool != nullptr) {
    pool_ = options_.pool;
  } else {
    owned_pool_ = std::make_unique<ThreadPool>(options_.threads);
    pool_ = owned_pool_.get();
  }

  // ---------------------------------------------------------------- //
  // Modeling phase (Algorithm 1, line 1).
  // ---------------------------------------------------------------- //
  obs::TraceSpan modeling_span("modeling");
  Stopwatch modeling_watch;
  BAYESCROWD_ASSIGN_OR_RETURN(
      ctable_, BuildCTable(incomplete, options_.ctable, pool_));

  // Attach distributions for every variable the c-table mentions.
  evaluator_.emplace(options_.probability);
  ProbabilityEvaluator& evaluator = *evaluator_;
  // Context before binding: BindMetrics resolves the labeled cost
  // instruments, and resolving under the default (s0, adhoc) context
  // would leave phantom zero-valued series in the run's registry.
  evaluator.SetCostContext(options_.session, "modeling");
  evaluator.BindMetrics(metrics);
  for (const CellRef& var : ctable_.AllVariables()) {
    BAYESCROWD_ASSIGN_OR_RETURN(std::vector<double> dist,
                                posteriors.Posterior(var));
    raw_posteriors_[var] = dist;
    BAYESCROWD_RETURN_NOT_OK(
        evaluator.SetDistribution(var, std::move(dist)));
  }
  out_.modeling_seconds = modeling_watch.ElapsedSeconds();
  modeling_span.End();
  out_.initial_true = ctable_.NumTrue();
  out_.initial_false = ctable_.NumFalse();
  out_.initial_undecided = ctable_.NumUndecided();

  rounds_counter_ = metrics->GetCounter("framework.rounds");
  tasks_counter_ = metrics->GetCounter(
      std::string("framework.tasks_posted.") +
      StrategyKindToString(options_.strategy.kind));
  retries_counter_ = metrics->GetCounter("framework.retries");
  transient_counter_ = metrics->GetCounter("framework.transient_failures");
  abandoned_counter_ = metrics->GetCounter("framework.rounds_abandoned");
  unanswered_counter_ = metrics->GetCounter("framework.tasks_unanswered");
  breaker_trips_counter_ = metrics->GetCounter("framework.breaker.trips");
  breaker_skips_counter_ = metrics->GetCounter("framework.breaker.skips");

  // Crowd-side deterministic cost units, labeled like the evaluator's:
  // the "crowd" phase has no solver tier.
  const auto crowd_cost = [&](const char* name) {
    return metrics->GetCounter(name, {{"session", options_.session},
                                      {"phase", "crowd"},
                                      {"solver_tier", "none"}});
  };
  cost_crowd_tasks_ = crowd_cost("cost.crowd_tasks");
  cost_retry_refunds_ = crowd_cost("cost.retry_refunds");
  cost_extra_votes_ = crowd_cost("cost.extra_votes");

  flight_ = options_.flight;
  solver_before_ = evaluator.solver_stats();

  // ---------------------------------------------------------------- //
  // Crowdsourcing-phase setup (Algorithm 4).
  // ---------------------------------------------------------------- //
  evaluator.set_thread_pool(pool_);
  knowledge_.emplace(incomplete.schema());

  mu_ = (options_.budget + options_.latency - 1) /
        options_.latency;  // ceil(B / L)
  cost_model_ =
      options_.cost_model != nullptr ? options_.cost_model : &unit_cost_;
  budget_left_ = static_cast<double>(options_.budget);
  consecutive_barren_ = 0;

  // Per-object solver circuit breakers (breaker_threshold). Only a
  // governed evaluator produces non-exact grades, so the map stays
  // empty — and the round loop byte-identical — on ungoverned runs.
  breakers_enabled_ = options_.breaker_threshold > 0 &&
                      evaluator.options().governor.enabled();

  // ---------------------------------------------------------------- //
  // Resume from a checkpoint snapshot. The modeling phase above rebuilt
  // the pristine c-table, raw posteriors and initial counts
  // (deterministic from the inputs). The conditions and the knowledge
  // base follow from those and the answers folded, so each delivered
  // round's answers are folded again, in the live order: newest-wins
  // interval facts depend on it. A fold error (an answer that
  // contradicts a recorded order, which no live round records) refuses
  // the checkpoint. Then the breakers and the platform stack are
  // restored, and the metrics snapshot last so setup-time and replay
  // increments are reset to the checkpointed counts.
  // ---------------------------------------------------------------- //
  if (options_.resume != nullptr) {
    const SessionState& st = *options_.resume;
    // Validated before any answer reaches the knowledge base, which
    // indexes the schema by attribute unchecked.
    for (const FoldedAnswer& answer : st.answers) {
      for (const CellRef& var : answer.expression.Variables()) {
        if (var.object >= incomplete.num_objects() ||
            var.attribute >= incomplete.num_attributes()) {
          return Status::InvalidArgument(StrFormat(
              "resume: checkpoint answer names Var(%zu,%zu) outside the "
              "%zu x %zu dataset",
              var.object, var.attribute, incomplete.num_objects(),
              incomplete.num_attributes()));
        }
      }
    }
    std::size_t unclaimed = st.answers.size();
    for (const RoundLog& log : st.round_logs) {
      if (log.answered > unclaimed || (log.abandoned && log.answered > 0)) {
        return Status::InvalidArgument(StrFormat(
            "resume: round %zu claims %zu answer(s) the checkpoint does "
            "not hold",
            log.round, log.answered));
      }
      unclaimed -= log.answered;
    }
    if (unclaimed != 0) {
      return Status::InvalidArgument(StrFormat(
          "resume: checkpoint holds %zu answer(s) no round log claims",
          unclaimed));
    }
    const std::span<const FoldedAnswer> folded(st.answers);
    std::size_t next = 0;
    for (const RoundLog& log : st.round_logs) {
      if (log.abandoned) continue;  // A live abandoned round folds nothing.
      BAYESCROWD_RETURN_NOT_OK(Fold(folded.subspan(next, log.answered)));
      next += log.answered;
    }
    answers_ = st.answers;
    for (const SolverBreakerRecord& b : st.solver_breakers) {
      breakers_[b.object] = b;
    }
    if (!st.platform_state.empty()) {
      BinReader platform_reader(st.platform_state);
      BAYESCROWD_RETURN_NOT_OK(platform.LoadState(&platform_reader));
    }
    metrics->Restore(st.metrics);
    solver_before_ = evaluator.solver_stats();
    budget_left_ = st.budget_left;
    consecutive_barren_ = st.consecutive_barren();
    out_.rounds = st.rounds();
    out_.cost_spent = st.cost_spent;
    for (const RoundLog& log : st.round_logs) AddRound(log);
    out_.resumed = true;
    // The snapshot follows its round's barren accounting: a session
    // that stopped there stays stopped.
    if (consecutive_barren_ >= options_.retry.max_barren_rounds) {
      out_.degraded = true;
      done_ = true;
    }
    obs::RecordFlight(flight_, obs::FlightEventKind::kResume, out_.rounds,
                      -1, out_.simulated_seconds,
                      static_cast<double>(out_.rounds),
                      "session restored from checkpoint snapshot");
  }

  checkpoint_sink_ = options_.checkpoint_sink;
  checkpoint_every_ =
      checkpoint_sink_ != nullptr ? options_.checkpoint_every : 0;

  initialized_ = true;
  out_.total_seconds += init_watch.ElapsedSeconds();
  return Status::OK();
}

// Snapshots the session at a round boundary and hands it to the
// checkpoint sink. Its round logs name the generation.
Status QueryRunner::WriteCheckpoint() {
  SessionState state;
  state.budget_left = budget_left_;
  state.cost_spent = out_.cost_spent;
  state.round_logs = out_.round_logs;
  state.answers = answers_;
  state.solver_breakers.reserve(breakers_.size());
  for (const auto& [id, b] : breakers_) state.solver_breakers.push_back(b);
  state.metrics = metrics_->Snapshot();
  platform_->SaveState(&state.platform_state);
  state.platform_tasks = platform_->total_tasks();
  state.platform_rounds = platform_->total_rounds();
  BAYESCROWD_RETURN_NOT_OK(checkpoint_sink_->Write(state));
  obs::RecordFlight(flight_, obs::FlightEventKind::kCheckpointWrite,
                    out_.rounds, -1, out_.simulated_seconds,
                    static_cast<double>(out_.rounds),
                    "session snapshot persisted");
  return Status::OK();
}

Status QueryRunner::WriteCheckpointNow() {
  if (!initialized_) {
    return Status::FailedPrecondition(
        "WriteCheckpointNow: runner not initialized");
  }
  if (checkpoint_sink_ == nullptr) {
    return Status::FailedPrecondition(
        "WriteCheckpointNow: no checkpoint sink configured");
  }
  Stopwatch export_watch;
  const Status written = WriteCheckpoint();
  out_.export_seconds += export_watch.ElapsedSeconds();
  return written;
}

Status QueryRunner::ApplyGovernor(const GovernorOptions& governor) {
  if (!initialized_ || finished_) {
    return Status::FailedPrecondition(
        "ApplyGovernor: runner not initialized or already finished");
  }
  options_.probability.governor = governor;
  evaluator_->SetGovernor(governor);
  return Status::OK();
}

// Per-round deltas of the governor counters drive the degradation
// flight event (one summary event per round, not one per solve — the
// ring is for triage, not volume).
void QueryRunner::FlightRoundSummary() {
  if (flight_ == nullptr) return;
  const GovernorTally solver_now = evaluator_->solver_stats();
  const std::uint64_t degraded =
      solver_now.budget_exhausted - solver_before_.budget_exhausted;
  if (degraded > 0) {
    flight_->Record(obs::FlightEventKind::kDegradation, out_.rounds, -1,
                    out_.simulated_seconds, static_cast<double>(degraded),
                    "solver budget exhausted below the exact tier");
  }
  solver_before_ = solver_now;
}

Status QueryRunner::RoundExports() {
  Stopwatch export_watch;
  if (checkpoint_every_ != 0 && out_.rounds % checkpoint_every_ == 0) {
    BAYESCROWD_RETURN_NOT_OK(WriteCheckpoint());
  }
  FlightRoundSummary();
  // Live export: one full snapshot per finished round, driven from the
  // stepping thread only.
  if (options_.round_sink != nullptr) {
    BAYESCROWD_RETURN_NOT_OK(
        options_.round_sink->OnRound(out_.rounds, metrics_->Snapshot()));
  }
  out_.export_seconds += export_watch.ElapsedSeconds();
  return Status::OK();
}

Status QueryRunner::Step() {
  if (!initialized_) {
    return Status::FailedPrecondition("QueryRunner::Step before Init");
  }
  if (finished_) {
    return Status::FailedPrecondition("QueryRunner::Step after Finish");
  }
  if (Done()) return Status::OK();
  Stopwatch step_watch;
  const Status status = StepImpl();
  const double elapsed = step_watch.ElapsedSeconds();
  out_.crowdsourcing_seconds += elapsed;
  out_.total_seconds += elapsed;
  return status;
}

Status QueryRunner::StepImpl() {
  ProbabilityEvaluator& evaluator = *evaluator_;
  const RetryPolicy& retry = options_.retry;

  obs::TraceSpan select_span("round.select");
  Stopwatch select_watch;
  evaluator.SetCostContext(options_.session, "select");

  // Rank undecided objects by entropy (Eq. 3), every condition solved
  // in parallel.
  std::vector<std::size_t> undecided;
  for (std::size_t i : ctable_.UndecidedObjects()) {
    if (ctable_.condition(i).NumExpressions() > 0) undecided.push_back(i);
  }
  // Objects whose breaker is open on an unchanged condition reuse
  // their last interval (re-solving would burn budget on another
  // non-answer); the rest solve as one governed batch.
  std::vector<ProbInterval> intervals(undecided.size());
  std::vector<std::size_t> to_solve;
  std::vector<std::size_t> solve_slot;
  to_solve.reserve(undecided.size());
  solve_slot.reserve(undecided.size());
  for (std::size_t u = 0; u < undecided.size(); ++u) {
    const std::size_t id = undecided[u];
    if (breakers_enabled_) {
      const auto it = breakers_.find(id);
      if (it != breakers_.end() && it->second.open &&
          it->second.fingerprint == ctable_.condition(id).Fingerprint()) {
        intervals[u] = it->second.last;
        breaker_skips_counter_->Increment();
        continue;
      }
    }
    to_solve.push_back(id);
    solve_slot.push_back(u);
  }
  BAYESCROWD_ASSIGN_OR_RETURN(
      const std::vector<ProbInterval> solved,
      evaluator.EvaluateAllIntervals(ctable_, to_solve));
  for (std::size_t s = 0; s < to_solve.size(); ++s) {
    intervals[solve_slot[s]] = solved[s];
    if (!breakers_enabled_) continue;
    SolverBreakerRecord& b = breakers_[to_solve[s]];
    b.object = to_solve[s];
    b.fingerprint = ctable_.condition(to_solve[s]).Fingerprint();
    b.last = solved[s];
    if (solved[s].exact()) {
      b.consecutive = 0;
      b.open = false;
    } else if (++b.consecutive >= options_.breaker_threshold &&
               !b.open) {
      b.open = true;
      breaker_trips_counter_->Increment();
      obs::RecordFlight(flight_, obs::FlightEventKind::kBreakerTrip,
                        out_.rounds + 1,
                        static_cast<std::int64_t>(b.object),
                        out_.simulated_seconds,
                        static_cast<double>(b.consecutive),
                        "solver breaker opened after consecutive "
                        "inexact intervals");
    }
  }
  std::vector<double> probabilities(undecided.size());
  std::vector<double> rank_points(undecided.size());
  for (std::size_t u = 0; u < undecided.size(); ++u) {
    probabilities[u] = intervals[u].midpoint();
    rank_points[u] = options_.strategy.pessimistic
                         ? PessimisticPoint(intervals[u])
                         : probabilities[u];
  }
  const std::vector<double> entropies = BinaryEntropies(rank_points);
  std::vector<ObjectEntropy> ranked;
  ranked.reserve(undecided.size());
  for (std::size_t u = 0; u < undecided.size(); ++u) {
    ObjectEntropy entry;
    entry.object = undecided[u];
    entry.probability = probabilities[u];
    entry.entropy = entropies[u];
    ranked.push_back(entry);
  }
  if (ranked.empty()) {
    // Terminal partial round: the ranking work still happened, so it
    // stays attributed to the select phase (no RoundLog — nothing
    // was bought).
    out_.select_seconds += select_watch.ElapsedSeconds();
    select_span.End();
    done_ = true;  // No expression left to crowdsource.
    return Status::OK();
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const ObjectEntropy& a, const ObjectEntropy& b) {
                     if (a.entropy != b.entropy) {
                       return a.entropy > b.entropy;
                     }
                     return a.object < b.object;
                   });
  if (options_.confidence_stop_entropy > 0.0 &&
      ranked.front().entropy < options_.confidence_stop_entropy) {
    out_.stopped_confident = true;  // Every object is near-certain.
    out_.select_seconds += select_watch.ElapsedSeconds();
    select_span.End();
    done_ = true;
    return Status::OK();
  }

  // Per-round size: latency splits the budget into ceil(B/L) task
  // slots; variable costs additionally trim the batch to what the
  // remaining budget affords.
  const std::size_t k = std::min(
      mu_, static_cast<std::size_t>(budget_left_) + 1);
  BAYESCROWD_ASSIGN_OR_RETURN(
      std::vector<Task> batch,
      SelectTasks(ctable_, ranked, k, evaluator, options_.strategy));
  // Adaptive allocation can buy up to (max - base) extra votes per
  // answered task, each at extra_vote_cost x the task's price. The trim
  // reserves for the worst case so a round can never overdraw the
  // budget, whatever the marketplace spends.
  const AdaptiveVotePolicy& adaptive = options_.adaptive;
  const double vote_reserve =
      adaptive.enabled
          ? 1.0 + adaptive.extra_vote_cost *
                      static_cast<double>(adaptive.max_votes -
                                          adaptive.base_votes)
          : 1.0;
  double batch_cost = 0.0;
  std::size_t affordable = 0;
  for (const Task& task : batch) {
    const double cost = cost_model_->Cost(task);
    if (cost <= 0.0) {
      return Status::InvalidArgument("task cost must be positive");
    }
    if (batch_cost + cost * vote_reserve > budget_left_ + 1e-9) break;
    batch_cost += cost * vote_reserve;
    ++affordable;
  }
  batch.resize(affordable);
  if (batch.empty()) {
    out_.select_seconds += select_watch.ElapsedSeconds();
    select_span.End();
    done_ = true;
    return Status::OK();
  }
  RoundLog log;
  log.round = out_.rounds + 1;
  log.select_seconds = select_watch.ElapsedSeconds();
  select_span.End();

  // Worker latency (simulated or real) is deliberately outside both
  // phase timers. Transient platform failures are retried with
  // deterministic exponential backoff on a simulated clock; the
  // per-round deadline caps how much simulated time one round may
  // burn on attempts and waits (see RetryPolicy).
  const double deadline = retry.round_deadline_seconds;
  std::vector<TaskAnswer> answers;
  bool delivered = false;
  std::size_t attempts = 0;
  double round_clock = 0.0;
  double round_backoff = 0.0;
  Stopwatch platform_watch;
  while (attempts < retry.max_attempts) {
    if (deadline > 0.0 &&
        round_clock + retry.attempt_seconds > deadline + 1e-12) {
      break;  // No time left for another attempt: abandon the round.
    }
    ++attempts;
    round_clock += retry.attempt_seconds;
    auto posted = platform_->PostBatch(batch);
    if (posted.ok()) {
      answers = std::move(posted).value();
      delivered = true;
      break;
    }
    if (!posted.status().IsUnavailable()) {
      return posted.status();  // Fatal: not a transient platform error.
    }
    transient_counter_->Increment();
    if (attempts >= retry.max_attempts) break;
    const double backoff =
        retry.backoff_initial_seconds *
        std::pow(retry.backoff_multiplier,
                 static_cast<double>(attempts - 1));
    if (deadline > 0.0 &&
        round_clock + backoff + retry.attempt_seconds > deadline + 1e-12) {
      break;  // Waiting out the backoff would blow the deadline.
    }
    round_clock += backoff;
    round_backoff += backoff;
    retries_counter_->Increment();
    obs::RecordFlight(flight_, obs::FlightEventKind::kRetry,
                      out_.rounds + 1, -1,
                      out_.simulated_seconds + round_clock, backoff,
                      "transient platform failure; backing off");
  }
  out_.platform_wall_seconds += platform_watch.ElapsedSeconds();
  log.attempts = attempts;
  log.backoff_seconds = round_backoff;
  log.simulated_seconds = round_clock;

  if (delivered) {
    BAYESCROWD_RETURN_NOT_OK(FoldAnswers(batch, answers, &log));
  } else {
    // Round abandoned: nothing was bought, nothing is charged, and
    // the batch's tasks stay in the candidate pool for later rounds.
    log.abandoned = true;
  }

  // The one end of every round, abandoned or delivered: log, totals,
  // barren accounting, then exports, so every snapshot (the cadence's
  // or an explicit WriteCheckpointNow) sees the finished round.
  log.seconds = log.select_seconds + log.update_seconds;
  out_.select_seconds += log.select_seconds;
  out_.update_seconds += log.update_seconds;
  AddRound(log);
  ++out_.rounds;
  rounds_counter_->Increment();
  tasks_counter_->Increment(log.tasks);
  if (log.abandoned) {
    abandoned_counter_->Increment();
    obs::RecordFlight(flight_, obs::FlightEventKind::kRoundAbandoned,
                      out_.rounds, -1, out_.simulated_seconds,
                      static_cast<double>(attempts),
                      "no answer batch delivered before the round "
                      "deadline");
  }
  // A round that applied nothing is barren, delivered or not: with
  // every worker abstaining, more rounds buy no information.
  if (log.answered > 0) {
    consecutive_barren_ = 0;
  } else if (++consecutive_barren_ >= retry.max_barren_rounds) {
    out_.degraded = true;  // Platform presumed down; degrade.
    done_ = true;
  }
  return RoundExports();
}

Status QueryRunner::FoldAnswers(const std::vector<Task>& batch,
                                const std::vector<TaskAnswer>& answers,
                                RoundLog* log) {
  if (answers.size() != batch.size()) {
    return Status::Internal("platform returned misaligned answers");
  }

  // Everything from budget accounting through re-simplification is
  // update-phase work; the watch starts here so the phase timers
  // explain the round's wall-clock (inspect grades the coverage).
  obs::TraceSpan update_span("round.update");
  Stopwatch update_watch;
  evaluator_->SetCostContext(options_.session, "update");

  // Budget accounting: only answered tasks are charged; abstained or
  // dropped tasks are refunded and fall back into the pool.
  const AdaptiveVotePolicy& adaptive = options_.adaptive;
  const std::size_t first = answers_.size();
  double charged = 0.0;
  double refunded = 0.0;
  std::size_t extra_votes = 0;
  for (std::size_t t = 0; t < batch.size(); ++t) {
    const double cost = cost_model_->Cost(batch[t]);
    if (answers[t].answered) {
      charged += cost;
      answers_.push_back({batch[t].expression, answers[t].relation});
      // Adaptive allocation: each vote the platform bought beyond the
      // base fan-out on an *answered* task is charged at a fraction of
      // that task's price (abstained tasks refund in full, extras
      // included — the marketplace eats its own exploration cost).
      if (adaptive.enabled &&
          answers[t].votes.size() > adaptive.base_votes) {
        const std::size_t extra =
            answers[t].votes.size() - adaptive.base_votes;
        charged += static_cast<double>(extra) *
                   adaptive.extra_vote_cost * cost;
        extra_votes += extra;
      }
    } else {
      refunded += cost;
    }
  }
  const std::size_t answered = answers_.size() - first;
  budget_left_ -= charged;
  out_.cost_spent += charged;
  unanswered_counter_->Increment(batch.size() - answered);
  cost_crowd_tasks_->Increment(answered);
  cost_retry_refunds_->Increment(batch.size() - answered);
  cost_extra_votes_->Increment(extra_votes);

  BAYESCROWD_RETURN_NOT_OK(
      Fold(std::span<const FoldedAnswer>(answers_).subspan(first)));

  log->tasks = batch.size();
  log->answered = answered;
  log->unanswered = batch.size() - answered;
  log->cost_refunded = refunded;
  log->update_seconds = update_watch.ElapsedSeconds();
  return Status::OK();
}

Status QueryRunner::Fold(std::span<const FoldedAnswer> answers) {
  KnowledgeBase& knowledge = *knowledge_;
  std::set<CellRef> touched;
  for (const FoldedAnswer& answer : answers) {
    BAYESCROWD_RETURN_NOT_OK(ApplyAnswer(answer, &knowledge));
    for (const CellRef& var : answer.expression.Variables()) {
      touched.insert(var);
    }
  }

  // Re-condition the touched distributions.
  for (const CellRef& var : touched) {
    const auto raw = raw_posteriors_.find(var);
    if (raw == raw_posteriors_.end()) continue;
    BAYESCROWD_RETURN_NOT_OK(evaluator_->SetDistribution(
        var, knowledge.ConditionDistribution(var, raw->second)));
  }

  // Re-simplify every undecided condition against the knowledge base,
  // in place on the pool: each lane edits only its own objects'
  // conditions and reads the knowledge base.
  const std::vector<std::size_t> undecided = ctable_.UndecidedObjects();
  const std::function<Truth(const Expression&)> evaluate =
      [&knowledge](const Expression& e) { return knowledge.Evaluate(e); };
  return pool_->ParallelFor(
      undecided.size(), [this, &undecided, &evaluate](std::size_t,
                                                      std::size_t u) {
        ctable_.condition(undecided[u]).Simplify(evaluate);
      });
}

void QueryRunner::AddRound(const RoundLog& log) {
  // Summed in round order, so a resumed run's totals are bit-identical
  // to the uninterrupted run's.
  out_.tasks_posted += log.tasks;
  out_.cost_refunded += log.cost_refunded;
  out_.backoff_seconds += log.backoff_seconds;
  out_.simulated_seconds += log.simulated_seconds;
  out_.round_logs.push_back(log);
}

Status QueryRunner::Finish() {
  if (!initialized_) {
    return Status::FailedPrecondition("QueryRunner::Finish before Init");
  }
  if (finished_) {
    return Status::FailedPrecondition("QueryRunner::Finish called twice");
  }
  Stopwatch finish_watch;
  ProbabilityEvaluator& evaluator = *evaluator_;
  done_ = true;

  if (budget_left_ <= 1e-9) {
    obs::RecordFlight(flight_, obs::FlightEventKind::kBudgetExhausted,
                      out_.rounds, -1, out_.simulated_seconds, budget_left_,
                      "crowdsourcing budget fully spent");
  } else if (out_.degraded) {
    obs::RecordFlight(flight_, obs::FlightEventKind::kNote, out_.rounds, -1,
                      out_.simulated_seconds,
                      static_cast<double>(consecutive_barren_),
                      "stopped after consecutive barren rounds; platform "
                      "presumed down");
  }

  // ---------------------------------------------------------------- //
  // Answer inference (Algorithm 1, line 5).
  // ---------------------------------------------------------------- //
  // The final phase always solves fresh (no breaker skip): reported
  // probabilities and their grades reflect the current conditions and
  // distributions, never a stale breaker interval.
  std::vector<std::size_t> all_objects(ctable_.num_objects());
  for (std::size_t i = 0; i < ctable_.num_objects(); ++i) {
    all_objects[i] = i;
  }
  evaluator.SetCostContext(options_.session, "answer");
  Stopwatch answer_watch;
  BAYESCROWD_ASSIGN_OR_RETURN(
      out_.probability_intervals,
      evaluator.EvaluateAllIntervals(ctable_, all_objects));
  out_.answer_seconds = answer_watch.ElapsedSeconds();
  out_.probabilities.resize(ctable_.num_objects());
  for (std::size_t i = 0; i < ctable_.num_objects(); ++i) {
    out_.probabilities[i] = out_.probability_intervals[i].midpoint();
    if (!out_.probability_intervals[i].exact()) {
      out_.degraded_objects.push_back(i);
    }
    if (out_.probabilities[i] > options_.answer_threshold ||
        ctable_.condition(i).IsTrue()) {
      out_.result_objects.push_back(i);
    }
  }
  out_.retries = retries_counter_->value();
  out_.transient_failures = transient_counter_->value();
  out_.rounds_abandoned = abandoned_counter_->value();
  out_.tasks_unanswered = unanswered_counter_->value();
  out_.extra_votes = cost_extra_votes_->value();
  out_.breaker_trips = breaker_trips_counter_->value();
  out_.breaker_skips = breaker_skips_counter_->value();
  out_.adpll = evaluator.adpll_stats();
  out_.final_ctable = std::move(ctable_);

  // Per-lane pool utilization, both on the result and as gauges so the
  // metrics rendering is self-contained. Only for a privately owned
  // pool: a shared serving pool's lane tallies mix every resident
  // session's work, and publishing them would leak scheduling order
  // into an otherwise deterministic per-session result.
  if (owned_pool_ != nullptr) {
    out_.lane_usage = owned_pool_->lane_stats();
    for (std::size_t lane = 0; lane < out_.lane_usage.size(); ++lane) {
      metrics_
          ->GetGauge(StrFormat("pool.lane%zu.busy_seconds", lane))
          ->Set(out_.lane_usage[lane].busy_seconds);
      metrics_->GetGauge(StrFormat("pool.lane%zu.tasks", lane))
          ->Set(static_cast<double>(out_.lane_usage[lane].tasks));
    }
  }
  finished_ = true;
  out_.total_seconds += finish_watch.ElapsedSeconds();
  out_.metrics = metrics_->Snapshot();
  run_span_.reset();
  return Status::OK();
}

}  // namespace bayescrowd
