#include "crowd/quality.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace bayescrowd {
namespace {

constexpr int kNumChoices = 3;

}  // namespace

Result<Ordering> TrueRelation(const Table& truth,
                              const Expression& expression) {
  const Level lhs = truth.At(expression.lhs.object, expression.lhs.attribute);
  if (IsMissingLevel(lhs)) {
    return Status::FailedPrecondition(
        "ground-truth table is missing the asked cell");
  }
  Level rhs = expression.rhs_const;
  if (expression.rhs_is_var) {
    rhs = truth.At(expression.rhs_var.object, expression.rhs_var.attribute);
    if (IsMissingLevel(rhs)) {
      return Status::FailedPrecondition(
          "ground-truth table is missing the asked cell");
    }
  }
  if (lhs < rhs) return Ordering::kLess;
  if (lhs > rhs) return Ordering::kGreater;
  return Ordering::kEqual;
}

Ordering NoisyVote(Ordering truth, double accuracy, Rng& rng) {
  if (rng.NextBool(accuracy)) return truth;
  // The k-th wrong answer in kLess < kEqual < kGreater order.
  const int k = static_cast<int>(rng.NextBelow(2));
  return static_cast<Ordering>(k < static_cast<int>(truth) ? k : k + 1);
}

Ordering MajorityVote(const std::vector<Ordering>& votes) {
  int counts[kNumChoices] = {0, 0, 0};
  for (Ordering v : votes) counts[static_cast<int>(v)] += 1;
  int best = 0;
  for (int o = 1; o < kNumChoices; ++o) {
    if (counts[o] > counts[best]) best = o;
  }
  return static_cast<Ordering>(best);
}

double LogOddsWeight(double accuracy) {
  const double p = std::clamp(accuracy, 0.34, 0.999);
  return std::log(p / ((1.0 - p) / 2.0));
}

Result<Ordering> WeightedVote(const std::vector<Ordering>& votes,
                              const std::vector<double>& accuracies) {
  if (votes.empty()) return Status::InvalidArgument("no votes");
  if (votes.size() != accuracies.size()) {
    return Status::InvalidArgument("votes/accuracies size mismatch");
  }
  double scores[kNumChoices] = {0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < votes.size(); ++i) {
    scores[static_cast<int>(votes[i])] += LogOddsWeight(accuracies[i]);
  }
  int best = 0;
  for (int o = 1; o < kNumChoices; ++o) {
    if (scores[o] > scores[best]) best = o;
  }
  return static_cast<Ordering>(best);
}

double FleissKappa(const std::vector<std::vector<Ordering>>& task_votes) {
  double sum_pi = 0.0;
  double eligible = 0.0;
  double category[kNumChoices] = {0.0, 0.0, 0.0};
  double total_votes = 0.0;
  for (const auto& votes : task_votes) {
    if (votes.size() < 2) continue;
    double counts[kNumChoices] = {0.0, 0.0, 0.0};
    for (Ordering v : votes) counts[static_cast<int>(v)] += 1.0;
    const double n = static_cast<double>(votes.size());
    double agree_pairs = 0.0;
    for (int c = 0; c < kNumChoices; ++c) {
      agree_pairs += counts[c] * (counts[c] - 1.0);
      category[c] += counts[c];
    }
    sum_pi += agree_pairs / (n * (n - 1.0));
    total_votes += n;
    eligible += 1.0;
  }
  if (eligible == 0.0) return 1.0;  // Nothing to disagree about.
  const double p_bar = sum_pi / eligible;
  double p_e = 0.0;
  for (int c = 0; c < kNumChoices; ++c) {
    const double p = category[c] / total_votes;
    p_e += p * p;
  }
  // Unanimous single-category rounds make chance agreement total; call
  // that perfect agreement rather than dividing by zero.
  if (1.0 - p_e < 1e-12) return 1.0;
  return std::clamp((p_bar - p_e) / (1.0 - p_e), -1.0, 1.0);
}

// ------------------------------------------------------------------ //
// JointQualityModel
// ------------------------------------------------------------------ //

void JointQualityModel::EnsureWorkers(std::size_t n) {
  if (n <= accuracies_.size()) return;
  work_sum_.resize(n, 0.0);
  vote_counts_.resize(n, 0.0);
  accuracies_.resize(n, 0.7);
  quarantined_.resize(n, 0);
}

void JointQualityModel::AddTask(const std::vector<VoteRecord>& votes) {
  if (votes.empty()) return;
  std::vector<Vote> stored;
  stored.reserve(votes.size());
  for (const VoteRecord& v : votes) {
    EnsureWorkers(static_cast<std::size_t>(v.worker) + 1);
    stored.push_back({v.worker, v.answer});
    work_sum_[v.worker] += v.work_seconds;
    vote_counts_[v.worker] += 1.0;
  }
  task_votes_.push_back(std::move(stored));
  gold_.push_back(-1);
}

void JointQualityModel::AddGoldTask(const std::vector<VoteRecord>& votes,
                                    Ordering truth) {
  if (votes.empty()) return;
  AddTask(votes);
  gold_.back() = static_cast<std::int8_t>(truth);
}

std::size_t JointQualityModel::gold_tasks() const {
  std::size_t n = 0;
  for (const std::int8_t g : gold_) n += g >= 0 ? 1 : 0;
  return n;
}

std::vector<double> JointQualityModel::SmoothedAgreement(
    const std::vector<std::int8_t>& reference, double unseen) const {
  std::vector<double> agree(accuracies_.size(), 0.0);
  std::vector<double> total(accuracies_.size(), 0.0);
  for (std::size_t t = 0; t < task_votes_.size(); ++t) {
    if (reference[t] < 0) continue;
    for (const Vote& v : task_votes_[t]) {
      agree[v.worker] +=
          static_cast<std::int8_t>(v.answer) == reference[t] ? 1.0 : 0.0;
      total[v.worker] += 1.0;
    }
  }
  std::vector<double> out(accuracies_.size(), unseen);
  for (std::size_t w = 0; w < out.size(); ++w) {
    if (total[w] > 0.0) out[w] = (agree[w] + 1.0) / (total[w] + 2.0);
  }
  return out;
}

std::size_t JointQualityModel::Refresh() {
  if (accuracies_.empty() || task_votes_.empty()) return 0;
  constexpr int kEmIterations = 10;

  // Dawid-Skene EM, with gold tasks pinned at their known truth. The
  // pins are what keeps a coordinated colluder bloc (perfect mutual
  // agreement) from capturing the consensus: on gold tasks the bloc
  // *must* score as wrong, which drags its weights down everywhere.
  //
  // The starting weights are gold agreement alone (the 0.7 prior for a
  // worker with no gold vote). Pinning the gold tasks is not enough by
  // itself: with flat initial weights a large-enough bloc wins every
  // *unlabeled* task's first E-step, and 52 captured tasks outvote 8
  // pinned ones in the M-step. Scoring the audits first means the bloc
  // enters the first E-step already discounted.
  std::vector<double> accuracies = SmoothedAgreement(gold_, 0.7);
  std::vector<std::int8_t> consensus = gold_;
  std::vector<Ordering> answers;
  std::vector<double> weights;
  for (int iter = 0; iter < kEmIterations; ++iter) {
    // E-step: weighted vote on every unlabeled task (never empty, so
    // the vote cannot fail).
    for (std::size_t t = 0; t < task_votes_.size(); ++t) {
      if (gold_[t] >= 0 || task_votes_[t].empty()) continue;
      answers.clear();
      weights.clear();
      for (const Vote& v : task_votes_[t]) {
        answers.push_back(v.answer);
        weights.push_back(accuracies[v.worker]);
      }
      consensus[t] =
          static_cast<std::int8_t>(WeightedVote(answers, weights).value());
    }
    // M-step: accuracy = smoothed agreement with the consensus (0.5 for
    // a worker with no vote at all).
    accuracies = SmoothedAgreement(consensus, 0.5);
  }
  accuracies_ = std::move(accuracies);

  // Defense gates, latched: once quarantined, always quarantined.
  std::size_t newly_flagged = 0;
  for (std::size_t w = 0; w < accuracies_.size(); ++w) {
    if (quarantined_[w] != 0) continue;
    if (vote_counts_[w] < static_cast<double>(kMinObservations)) continue;
    const double mean_work = work_sum_[w] / vote_counts_[w];
    const bool flag = accuracies_[w] < kMinAccuracy ||
                      mean_work < kMinWorkSeconds ||
                      mean_work > kMaxWorkSeconds;
    if (flag) {
      quarantined_[w] = 1;
      newly_flagged += 1;
    }
  }
  return newly_flagged;
}

double JointQualityModel::Accuracy(std::size_t worker) const {
  return worker < accuracies_.size() ? accuracies_[worker] : 0.7;
}

double JointQualityModel::MeanWorkSeconds(std::size_t worker) const {
  if (worker >= work_sum_.size() || vote_counts_[worker] <= 0.0) {
    return 0.0;
  }
  return work_sum_[worker] / vote_counts_[worker];
}

std::size_t JointQualityModel::Observations(std::size_t worker) const {
  return worker < vote_counts_.size()
             ? static_cast<std::size_t>(vote_counts_[worker])
             : 0;
}

bool JointQualityModel::Quarantined(std::size_t worker) const {
  return worker < quarantined_.size() && quarantined_[worker] != 0;
}

std::size_t JointQualityModel::quarantined_count() const {
  std::size_t n = 0;
  for (std::uint8_t q : quarantined_) n += q != 0 ? 1 : 0;
  return n;
}

void JointQualityModel::Save(BinWriter* writer) const {
  writer->WriteU64(accuracies_.size());
  for (std::size_t w = 0; w < accuracies_.size(); ++w) {
    writer->WriteDouble(work_sum_[w]);
    writer->WriteDouble(vote_counts_[w]);
    writer->WriteDouble(accuracies_[w]);
    writer->WriteU8(quarantined_[w]);
  }
  writer->WriteU64(task_votes_.size());
  for (std::size_t t = 0; t < task_votes_.size(); ++t) {
    writer->WriteU32(static_cast<std::uint32_t>(task_votes_[t].size()));
    writer->WriteU8(gold_[t] < 0 ? 0xFF
                                 : static_cast<std::uint8_t>(gold_[t]));
    for (const Vote& v : task_votes_[t]) {
      writer->WriteU32(static_cast<std::uint32_t>(v.worker));
      writer->WriteU8(static_cast<std::uint8_t>(v.answer));
    }
  }
}

Status JointQualityModel::Load(BinReader* reader) {
  std::uint64_t workers = 0;
  BAYESCROWD_RETURN_NOT_OK(
      reader->ReadCount(&workers, /*min_elem_size=*/25));
  const auto n = static_cast<std::size_t>(workers);
  work_sum_.assign(n, 0.0);
  vote_counts_.assign(n, 0.0);
  accuracies_.assign(n, 0.7);
  quarantined_.assign(n, 0);
  for (std::size_t w = 0; w < n; ++w) {
    BAYESCROWD_RETURN_NOT_OK(reader->ReadDouble(&work_sum_[w]));
    BAYESCROWD_RETURN_NOT_OK(reader->ReadDouble(&vote_counts_[w]));
    BAYESCROWD_RETURN_NOT_OK(reader->ReadDouble(&accuracies_[w]));
    std::uint8_t q = 0;
    BAYESCROWD_RETURN_NOT_OK(reader->ReadU8(&q));
    quarantined_[w] = q;
  }
  std::uint64_t tasks = 0;
  BAYESCROWD_RETURN_NOT_OK(reader->ReadCount(&tasks, /*min_elem_size=*/5));
  task_votes_.assign(static_cast<std::size_t>(tasks), {});
  gold_.assign(static_cast<std::size_t>(tasks), -1);
  for (std::size_t t = 0; t < task_votes_.size(); ++t) {
    auto& task = task_votes_[t];
    std::uint32_t count = 0;
    BAYESCROWD_RETURN_NOT_OK(reader->ReadU32(&count));
    std::uint8_t gold = 0xFF;
    BAYESCROWD_RETURN_NOT_OK(reader->ReadU8(&gold));
    if (gold != 0xFF && gold > 2) {
      return Status::InvalidArgument(
          "joint quality model: corrupt gold marker");
    }
    gold_[t] = gold == 0xFF ? -1 : static_cast<std::int8_t>(gold);
    if (count > reader->remaining() / 5) {
      return Status::OutOfRange(
          "joint quality model: vote count exceeds payload");
    }
    task.resize(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint32_t worker = 0;
      std::uint8_t answer = 0;
      BAYESCROWD_RETURN_NOT_OK(reader->ReadU32(&worker));
      BAYESCROWD_RETURN_NOT_OK(reader->ReadU8(&answer));
      if (worker >= n || answer > 2) {
        return Status::InvalidArgument(
            "joint quality model: corrupt vote record");
      }
      task[i] = {worker, static_cast<Ordering>(answer)};
    }
  }
  return Status::OK();
}

}  // namespace bayescrowd
