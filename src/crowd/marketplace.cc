#include "crowd/marketplace.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

namespace bayescrowd {
namespace {

constexpr int kNumChoices = 3;

double QuantizeToMs(double seconds) {
  return static_cast<double>(std::llround(seconds * 1000.0)) / 1000.0;
}

void Bump(obs::Counter* counter, std::uint64_t delta = 1) {
  if (counter != nullptr && delta > 0) counter->Increment(delta);
}

}  // namespace

const char* WorkerProfileToString(WorkerProfile profile) {
  switch (profile) {
    case WorkerProfile::kHonest:
      return "honest";
    case WorkerProfile::kSloppy:
      return "sloppy";
    case WorkerProfile::kSpammer:
      return "spammer";
    case WorkerProfile::kColluder:
      return "colluder";
  }
  return "unknown";
}

MarketplaceCrowdPlatform::MarketplaceCrowdPlatform(
    Table ground_truth, MarketplaceOptions options)
    : ground_truth_(std::move(ground_truth)),
      options_(options),
      rng_(options.seed),
      // Paranoid opening: with no votes observed yet the defense has no
      // reputations to lean on, so the first round runs as if agreement
      // had already collapsed — widest fan-out, unconvincing tasks
      // abstain (and refund) instead of folding a poisoned first
      // impression into the query for good. The first healthy kappa
      // resets the ladder.
      low_kappa_streak_(options.defend ? 2 : 0) {
  for (std::size_t i = 0; i < options_.pool_size; ++i) Recruit();
}

void MarketplaceCrowdPlatform::Recruit() {
  // An arrival joins the premium pricing tier (higher skill floor;
  // preferred when widening the vote fan-out) with kPremiumFraction.
  // An adversarial arrival colludes with kCollusionFraction, else it
  // spams; a non-adversarial one is sloppy with kSloppyFraction.
  constexpr double kPremiumFraction = 0.25;
  constexpr double kCollusionFraction = 0.4;
  constexpr double kSloppyFraction = 0.25;
  Worker worker;
  worker.id = next_worker_id_++;
  worker.premium = rng_.NextBool(kPremiumFraction) ? 1 : 0;
  if (rng_.NextBool(options_.spam_rate)) {
    if (rng_.NextBool(kCollusionFraction)) {
      worker.profile = WorkerProfile::kColluder;
      // Colluders mimic honest work habits: only the answers betray them.
      worker.skill = 0.0;
      worker.base_work_seconds = 20.0 + 30.0 * rng_.NextDouble();
    } else {
      worker.profile = WorkerProfile::kSpammer;
      worker.skill = 0.0;
      // Click-through fast: well under the kMinWorkSeconds gate.
      worker.base_work_seconds = 0.8 + 2.2 * rng_.NextDouble();
    }
  } else if (rng_.NextBool(kSloppyFraction)) {
    worker.profile = WorkerProfile::kSloppy;
    worker.skill = 0.52 + 0.18 * rng_.NextDouble();
    worker.base_work_seconds = 12.0 + 20.0 * rng_.NextDouble();
  } else {
    worker.profile = WorkerProfile::kHonest;
    worker.skill = 0.82 + 0.15 * rng_.NextDouble();
    if (worker.premium != 0) worker.skill = std::max(worker.skill, 0.9);
    worker.base_work_seconds = 25.0 + 35.0 * rng_.NextDouble();
  }
  quality_.EnsureWorkers(static_cast<std::size_t>(worker.id) + 1);
  workers_.push_back(worker);
  stats_.arrivals += 1;
  Bump(ins_.arrivals);
}

void MarketplaceCrowdPlatform::AdvanceClock() {
  // Poisson arrivals (Knuth) with mean kArrivalRate per round:
  // deterministic given the RNG stream.
  constexpr double kArrivalRate = 0.5;
  // Per-worker, per-round departure probability.
  constexpr double kChurnRate = 0.02;
  const double limit = std::exp(-kArrivalRate);
  double p = 1.0;
  int k = 0;
  do {
    ++k;
    p *= rng_.NextDouble();
  } while (p > limit);
  for (int i = 0; i < k - 1; ++i) Recruit();
  // Churn: every active worker flips the same seeded coin, in roster
  // order, so the stream is stable under pool growth.
  for (Worker& worker : workers_) {
    if (worker.active == 0) continue;
    if (rng_.NextBool(kChurnRate)) {
      worker.active = 0;
      stats_.departures += 1;
      Bump(ins_.departures);
    }
  }
  // The marketplace never goes dark: recruit replacements until a base
  // batch is assignable again (quarantine + churn can drain the pool).
  const auto floor_needed =
      static_cast<std::size_t>(std::max(options_.base_votes, 1));
  while (EligibleWorkers().size() < floor_needed) Recruit();
}

std::vector<std::size_t> MarketplaceCrowdPlatform::EligibleWorkers()
    const {
  std::vector<std::size_t> eligible;
  eligible.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i].active == 0) continue;
    if (options_.defend && quality_.Quarantined(workers_[i].id)) continue;
    eligible.push_back(i);
  }
  return eligible;
}

VoteRecord MarketplaceCrowdPlatform::CastVote(const Worker& worker,
                                              Ordering truth) {
  VoteRecord vote;
  vote.worker = worker.id;
  switch (worker.profile) {
    case WorkerProfile::kHonest:
    case WorkerProfile::kSloppy:
      vote.answer = NoisyVote(truth, worker.skill, rng_);
      break;
    case WorkerProfile::kSpammer:
      vote.answer = static_cast<Ordering>(rng_.NextBelow(3));
      break;
    case WorkerProfile::kColluder: {
      // Every colluder gives the *same* wrong answer (rotating with the
      // round so the signal is not a fixed bias): coordinated attacks
      // are exactly what plain majority cannot survive.
      const int rotate = 1 + static_cast<int>(total_rounds_ % 2);
      vote.answer = static_cast<Ordering>(
          (static_cast<int>(truth) + rotate) % kNumChoices);
      break;
    }
  }
  vote.work_seconds = QuantizeToMs(worker.base_work_seconds *
                                   (0.75 + 0.5 * rng_.NextDouble()));
  return vote;
}

double MarketplaceCrowdPlatform::LeaderConfidence(
    const std::vector<VoteRecord>& votes) const {
  if (votes.empty()) return 0.0;
  double scores[kNumChoices] = {0.0, 0.0, 0.0};
  for (const VoteRecord& vote : votes) {
    const double accuracy =
        options_.defend ? quality_.Accuracy(vote.worker) : 0.7;
    scores[static_cast<int>(vote.answer)] += LogOddsWeight(accuracy);
  }
  const double top = std::max({scores[0], scores[1], scores[2]});
  double denom = 0.0;
  for (double s : scores) denom += std::exp(s - top);
  return 1.0 / denom;  // exp(top - top) / sum.
}

Ordering MarketplaceCrowdPlatform::Aggregate(
    const std::vector<VoteRecord>& votes) const {
  std::vector<Ordering> answers;
  answers.reserve(votes.size());
  for (const VoteRecord& vote : votes) answers.push_back(vote.answer);
  if (options_.defend) {
    std::vector<double> weights;
    weights.reserve(votes.size());
    for (const VoteRecord& vote : votes) {
      weights.push_back(quality_.Accuracy(vote.worker));
    }
    const auto weighted = WeightedVote(answers, weights);
    if (weighted.ok()) return weighted.value();
  }
  return MajorityVote(answers);
}

Result<std::vector<TaskAnswer>> MarketplaceCrowdPlatform::PostBatch(
    const std::vector<Task>& tasks) {
  if (tasks.empty()) return Status::InvalidArgument("empty batch");
  // Stop buying extra votes (and, after two collapsed rounds, abstain)
  // below this posterior confidence of the leading answer.
  constexpr double kConfidenceThreshold = 0.85;
  // Fraction of completed tasks the operator audits (learning their
  // true answer after the fact). Audited tasks anchor the joint
  // inference as gold: without an anchor, a coordinated colluder bloc
  // can capture the Dawid-Skene consensus and invert every accuracy
  // estimate.
  constexpr double kGoldFraction = 0.12;
  // A round whose Fleiss kappa falls below this counts as an agreement
  // collapse (wide fan-out next round; two in a row enable abstention).
  constexpr double kKappaCollapseThreshold = 0.30;

  AdvanceClock();

  // Degradation ladder, driven by the *previous* rounds' agreement:
  // one collapsed round widens every task to the max fan-out; two in a
  // row additionally let still-unconfident tasks abstain.
  const bool wide = low_kappa_streak_ >= 1;
  const bool may_abstain = low_kappa_streak_ >= 2;
  if (wide) stats_.wide_rounds += 1;

  const auto base_votes =
      static_cast<std::size_t>(std::max(options_.base_votes, 1));
  const auto max_votes = static_cast<std::size_t>(
      std::max(options_.max_votes, options_.base_votes));
  const std::size_t opening = wide ? max_votes : base_votes;
  const bool adaptive = max_votes > base_votes;

  std::vector<TaskAnswer> answers;
  answers.reserve(tasks.size());
  std::vector<std::vector<Ordering>> round_votes;
  round_votes.reserve(tasks.size());
  double round_work_seconds = 0.0;

  for (const Task& task : tasks) {
    BAYESCROWD_ASSIGN_OR_RETURN(const Ordering truth,
                                TrueRelation(ground_truth_, task.expression));
    const std::vector<std::size_t> eligible = EligibleWorkers();

    // Opening fan-out: distinct workers, uniformly drawn.
    std::vector<std::size_t> chosen;
    const std::size_t open_k = std::min(opening, eligible.size());
    chosen.reserve(open_k);
    while (chosen.size() < open_k) {
      const std::size_t idx = eligible[rng_.NextBelow(eligible.size())];
      bool duplicate = false;
      for (std::size_t c : chosen) duplicate |= (c == idx);
      if (!duplicate) chosen.push_back(idx);
    }
    std::vector<VoteRecord> votes;
    votes.reserve(max_votes);
    for (std::size_t idx : chosen) {
      votes.push_back(CastVote(workers_[idx], truth));
    }

    // Adaptive top-up: buy votes one at a time while the posterior
    // leader is unconvincing. With the defense on, the extra money goes
    // to the most reputable unused workers (learned accuracy, premium
    // tier as the tie-break) — spending more on a random draw from a
    // poisoned pool would just buy more poison. Baseline mode keeps the
    // naive premium-first random draw.
    if (adaptive) {
      while (votes.size() < max_votes &&
             LeaderConfidence(votes) < kConfidenceThreshold) {
        std::vector<std::size_t> pool;
        for (std::size_t idx : eligible) {
          bool used = false;
          for (std::size_t c : chosen) used |= (c == idx);
          if (!used) pool.push_back(idx);
        }
        if (pool.empty()) break;  // Marketplace exhausted.
        if (options_.defend) {
          double best = -1.0;
          for (std::size_t idx : pool) {
            best = std::max(best, quality_.Accuracy(workers_[idx].id));
          }
          std::vector<std::size_t> top;
          for (std::size_t idx : pool) {
            if (quality_.Accuracy(workers_[idx].id) >= best - 1e-9) {
              top.push_back(idx);
            }
          }
          std::vector<std::size_t> premium;
          for (std::size_t idx : top) {
            if (workers_[idx].premium != 0) premium.push_back(idx);
          }
          pool = premium.empty() ? std::move(top) : std::move(premium);
        } else {
          std::vector<std::size_t> premium;
          for (std::size_t idx : pool) {
            if (workers_[idx].premium != 0) premium.push_back(idx);
          }
          if (!premium.empty()) pool = std::move(premium);
        }
        const std::size_t idx = pool[rng_.NextBelow(pool.size())];
        chosen.push_back(idx);
        votes.push_back(CastVote(workers_[idx], truth));
      }
    }

    // Bookkeeping: every vote was bought, whatever happens next.
    stats_.votes_cast += votes.size();
    Bump(ins_.votes_cast, votes.size());
    if (votes.size() > base_votes) {
      const std::uint64_t extra = votes.size() - base_votes;
      stats_.extra_votes += extra;
      Bump(ins_.extra_votes, extra);
    }
    double task_work = 0.0;
    for (std::size_t i = 0; i < votes.size(); ++i) {
      if (workers_[chosen[i]].premium != 0) {
        stats_.premium_votes += 1;
        Bump(ins_.premium_votes);
      }
      task_work = std::max(task_work, votes[i].work_seconds);
    }
    round_work_seconds = std::max(round_work_seconds, task_work);

    // Operator audit: the coin is drawn in both modes so the defended
    // and baseline arms see identical RNG streams; only the defense
    // learns the label.
    const bool audited = rng_.NextBool(kGoldFraction);
    if (audited && options_.defend) {
      quality_.AddGoldTask(votes, truth);
      stats_.gold_tasks += 1;
    } else {
      quality_.AddTask(votes);
    }
    std::vector<Ordering> orderings;
    orderings.reserve(votes.size());
    for (const VoteRecord& vote : votes) orderings.push_back(vote.answer);
    round_votes.push_back(std::move(orderings));

    TaskAnswer answer;
    answer.votes = votes;
    if (options_.defend && may_abstain &&
        LeaderConfidence(votes) < kConfidenceThreshold) {
      // Two collapsed rounds and still no convincing leader even at the
      // widest fan-out: refuse to ingest a poisoned answer.
      answer.answered = false;
      stats_.abstained_tasks += 1;
      Bump(ins_.abstained_tasks);
    } else {
      answer.relation = Aggregate(votes);
    }
    answers.push_back(std::move(answer));
  }

  total_tasks_ += tasks.size();
  total_rounds_ += 1;
  sim_seconds_ += round_work_seconds;  // Workers vote in parallel.

  // Joint inference + gates, fed by everything up to and including this
  // round. Learned reputations steer the *next* round's assignment.
  if (options_.defend) {
    const std::size_t newly = quality_.Refresh();
    if (newly > 0) {
      Bump(ins_.quarantined, newly);
      obs::RecordFlight(flight_, obs::FlightEventKind::kWorkerQuarantine,
                        total_rounds_, -1, sim_seconds_,
                        static_cast<double>(newly),
                        "marketplace quarantined workers");
    }
  }

  // Collapse detector: per-round Fleiss kappa over the raw vote sets.
  const double kappa = FleissKappa(round_votes);
  stats_.last_kappa = kappa;
  if (kappa < kKappaCollapseThreshold) {
    stats_.low_kappa_rounds += 1;
    low_kappa_streak_ += 1;
    Bump(ins_.kappa_collapses);
    obs::RecordFlight(flight_, obs::FlightEventKind::kKappaCollapse,
                      total_rounds_, -1, sim_seconds_, kappa,
                      "crowd agreement collapsed");
  } else {
    low_kappa_streak_ = 0;
  }

  return answers;
}

void MarketplaceCrowdPlatform::BindMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    ins_ = Instruments{};
    return;
  }
  ins_.arrivals = registry->GetCounter("crowd.market.arrivals");
  ins_.departures = registry->GetCounter("crowd.market.departures");
  ins_.votes_cast = registry->GetCounter("crowd.market.votes");
  ins_.extra_votes = registry->GetCounter("crowd.market.extra_votes");
  ins_.premium_votes = registry->GetCounter("crowd.market.premium_votes");
  ins_.abstained_tasks =
      registry->GetCounter("crowd.market.abstained_tasks");
  ins_.quarantined = registry->GetCounter("crowd.market.quarantined");
  ins_.kappa_collapses =
      registry->GetCounter("crowd.market.kappa_collapses");
}

WorkerProfile MarketplaceCrowdPlatform::worker_profile(
    std::uint32_t id) const {
  for (const Worker& worker : workers_) {
    if (worker.id == id) return worker.profile;
  }
  return WorkerProfile::kHonest;
}

std::size_t MarketplaceCrowdPlatform::active_workers() const {
  std::size_t n = 0;
  for (const Worker& worker : workers_) n += worker.active != 0 ? 1 : 0;
  return n;
}

void MarketplaceCrowdPlatform::SaveState(std::string* out) const {
  BinWriter w(out);
  w.WriteU8('M');
  for (const std::uint64_t word : rng_.SaveState()) w.WriteU64(word);
  w.WriteU64(total_tasks_);
  w.WriteU64(total_rounds_);
  w.WriteDouble(sim_seconds_);
  w.WriteU32(next_worker_id_);
  w.WriteI32(low_kappa_streak_);
  w.WriteU64(stats_.arrivals);
  w.WriteU64(stats_.departures);
  w.WriteU64(stats_.votes_cast);
  w.WriteU64(stats_.extra_votes);
  w.WriteU64(stats_.premium_votes);
  w.WriteU64(stats_.abstained_tasks);
  w.WriteU64(stats_.gold_tasks);
  w.WriteU64(stats_.wide_rounds);
  w.WriteU64(stats_.low_kappa_rounds);
  w.WriteDouble(stats_.last_kappa);
  w.WriteU64(workers_.size());
  for (const Worker& worker : workers_) {
    w.WriteU32(worker.id);
    w.WriteU8(static_cast<std::uint8_t>(worker.profile));
    w.WriteDouble(worker.skill);
    w.WriteDouble(worker.base_work_seconds);
    w.WriteU8(worker.premium);
    w.WriteU8(worker.active);
  }
  quality_.Save(&w);
}

Status MarketplaceCrowdPlatform::LoadState(BinReader* reader) {
  std::uint8_t tag = 0;
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU8(&tag));
  if (tag != 'M') {
    return Status::InvalidArgument(
        "platform state: expected marketplace chunk");
  }
  std::array<std::uint64_t, 4> rng_state{};
  for (std::uint64_t& word : rng_state) {
    BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&word));
  }
  std::uint64_t tasks = 0;
  std::uint64_t rounds = 0;
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&tasks));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&rounds));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadDouble(&sim_seconds_));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU32(&next_worker_id_));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadI32(&low_kappa_streak_));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&stats_.arrivals));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&stats_.departures));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&stats_.votes_cast));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&stats_.extra_votes));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&stats_.premium_votes));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&stats_.abstained_tasks));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&stats_.gold_tasks));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&stats_.wide_rounds));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&stats_.low_kappa_rounds));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadDouble(&stats_.last_kappa));
  std::uint64_t roster = 0;
  BAYESCROWD_RETURN_NOT_OK(reader->ReadCount(&roster, 23));
  std::vector<Worker> workers(static_cast<std::size_t>(roster));
  for (Worker& worker : workers) {
    std::uint8_t profile = 0;
    BAYESCROWD_RETURN_NOT_OK(reader->ReadU32(&worker.id));
    BAYESCROWD_RETURN_NOT_OK(reader->ReadU8(&profile));
    BAYESCROWD_RETURN_NOT_OK(reader->ReadDouble(&worker.skill));
    BAYESCROWD_RETURN_NOT_OK(reader->ReadDouble(&worker.base_work_seconds));
    BAYESCROWD_RETURN_NOT_OK(reader->ReadU8(&worker.premium));
    BAYESCROWD_RETURN_NOT_OK(reader->ReadU8(&worker.active));
    if (profile > 3 || worker.id >= next_worker_id_) {
      return Status::InvalidArgument(
          "platform state: corrupt marketplace roster");
    }
    worker.profile = static_cast<WorkerProfile>(profile);
  }
  JointQualityModel quality;
  BAYESCROWD_RETURN_NOT_OK(quality.Load(reader));
  rng_.LoadState(rng_state);
  total_tasks_ = static_cast<std::size_t>(tasks);
  total_rounds_ = static_cast<std::size_t>(rounds);
  workers_ = std::move(workers);
  quality_ = std::move(quality);
  return Status::OK();
}

}  // namespace bayescrowd
