#include "crowd/quality.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace bayescrowd {
namespace {

constexpr int kNumChoices = 3;

double ClampAccuracy(double accuracy) {
  return std::clamp(accuracy, 0.34, 0.999);
}

// Log-odds weight of one worker under the symmetric 3-choice error
// model: correct with probability p, each wrong option with (1-p)/2.
double LogOddsWeight(double accuracy) {
  const double p = ClampAccuracy(accuracy);
  return std::log(p / ((1.0 - p) / 2.0));
}

}  // namespace

Ordering MajorityVote(const std::vector<Ordering>& votes) {
  int counts[kNumChoices] = {0, 0, 0};
  for (Ordering v : votes) counts[static_cast<int>(v)] += 1;
  int best = 0;
  for (int o = 1; o < kNumChoices; ++o) {
    if (counts[o] > counts[best]) best = o;
  }
  return static_cast<Ordering>(best);
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

Result<std::vector<double>> EstimateAccuraciesByConsensus(
    const std::vector<std::vector<Vote>>& task_votes,
    std::size_t num_workers, int iterations) {
  if (num_workers == 0) return Status::InvalidArgument("no workers");
  if (iterations < 1) return Status::InvalidArgument("iterations < 1");
  for (const auto& votes : task_votes) {
    for (const Vote& vote : votes) {
      if (vote.worker >= num_workers) {
        return Status::OutOfRange("vote from unknown worker");
      }
    }
  }

  std::vector<double> accuracies(num_workers, 0.7);  // Neutral start.
  std::vector<Ordering> consensus(task_votes.size(), Ordering::kEqual);
  for (int iter = 0; iter < iterations; ++iter) {
    // E-step: consensus via weighted voting.
    for (std::size_t t = 0; t < task_votes.size(); ++t) {
      if (task_votes[t].empty()) continue;
      std::vector<Ordering> votes;
      std::vector<double> weights;
      votes.reserve(task_votes[t].size());
      weights.reserve(task_votes[t].size());
      for (const Vote& vote : task_votes[t]) {
        votes.push_back(vote.answer);
        weights.push_back(accuracies[vote.worker]);
      }
      BAYESCROWD_ASSIGN_OR_RETURN(consensus[t],
                                  WeightedVote(votes, weights));
    }
    // M-step: accuracy = smoothed agreement with the consensus.
    std::vector<double> agree(num_workers, 0.0);
    std::vector<double> total(num_workers, 0.0);
    for (std::size_t t = 0; t < task_votes.size(); ++t) {
      for (const Vote& vote : task_votes[t]) {
        agree[vote.worker] += vote.answer == consensus[t] ? 1.0 : 0.0;
        total[vote.worker] += 1.0;
      }
    }
    for (std::size_t w = 0; w < num_workers; ++w) {
      accuracies[w] = (agree[w] + 1.0) / (total[w] + 2.0);
    }
  }
  return accuracies;
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
  approval_.resize(n, 0.5);
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

std::size_t JointQualityModel::Refresh() {
  if (accuracies_.empty() || task_votes_.empty()) return 0;

  // Dawid-Skene EM, with gold tasks pinned at their known truth. The
  // pins are what keeps a coordinated colluder bloc (perfect mutual
  // agreement) from capturing the consensus: on gold tasks the bloc
  // *must* score as wrong, which drags its weights down everywhere.
  std::vector<double> accuracies(accuracies_.size(), 0.7);

  // Seed the starting weights from gold agreement alone. Pinning the
  // gold tasks is not enough by itself: with flat initial weights a
  // large-enough bloc wins every *unlabeled* task's first E-step, and
  // 52 captured tasks outvote 8 pinned ones in the M-step. Scoring the
  // audits first means the bloc enters the first E-step already
  // discounted.
  {
    std::vector<double> agree(accuracies.size(), 0.0);
    std::vector<double> total(accuracies.size(), 0.0);
    for (std::size_t t = 0; t < task_votes_.size(); ++t) {
      if (gold_[t] < 0) continue;
      const auto truth = static_cast<Ordering>(gold_[t]);
      for (const Vote& v : task_votes_[t]) {
        agree[v.worker] += v.answer == truth ? 1.0 : 0.0;
        total[v.worker] += 1.0;
      }
    }
    for (std::size_t w = 0; w < accuracies.size(); ++w) {
      if (total[w] > 0.0) {
        accuracies[w] = (agree[w] + 1.0) / (total[w] + 2.0);
      }
    }
  }

  std::vector<Ordering> consensus(task_votes_.size(), Ordering::kEqual);
  for (int iter = 0; iter < options_.inference_iterations; ++iter) {
    for (std::size_t t = 0; t < task_votes_.size(); ++t) {
      if (task_votes_[t].empty()) continue;
      if (gold_[t] >= 0) {
        consensus[t] = static_cast<Ordering>(gold_[t]);
        continue;
      }
      std::vector<Ordering> answers;
      std::vector<double> weights;
      answers.reserve(task_votes_[t].size());
      weights.reserve(task_votes_[t].size());
      for (const Vote& v : task_votes_[t]) {
        answers.push_back(v.answer);
        weights.push_back(accuracies[v.worker]);
      }
      const auto voted = WeightedVote(answers, weights);
      if (voted.ok()) consensus[t] = voted.value();
    }
    std::vector<double> agree(accuracies.size(), 0.0);
    std::vector<double> total(accuracies.size(), 0.0);
    for (std::size_t t = 0; t < task_votes_.size(); ++t) {
      for (const Vote& v : task_votes_[t]) {
        agree[v.worker] += v.answer == consensus[t] ? 1.0 : 0.0;
        total[v.worker] += 1.0;
      }
    }
    for (std::size_t w = 0; w < accuracies.size(); ++w) {
      accuracies[w] = (agree[w] + 1.0) / (total[w] + 2.0);
    }
  }
  accuracies_ = std::move(accuracies);

  // Approval rate: smoothed agreement with the final consensus — a
  // worker voting against every settled answer drifts toward zero even
  // if the EM accuracy stays noncommittal.
  std::vector<double> agree(accuracies_.size(), 0.0);
  std::vector<double> total(accuracies_.size(), 0.0);
  for (std::size_t t = 0; t < task_votes_.size(); ++t) {
    for (const Vote& v : task_votes_[t]) {
      agree[v.worker] += v.answer == consensus[t] ? 1.0 : 0.0;
      total[v.worker] += 1.0;
    }
  }
  for (std::size_t w = 0; w < accuracies_.size(); ++w) {
    approval_[w] = (agree[w] + 1.0) / (total[w] + 2.0);
  }

  // Defense gates, latched: once quarantined, always quarantined.
  std::size_t newly_flagged = 0;
  for (std::size_t w = 0; w < accuracies_.size(); ++w) {
    if (quarantined_[w] != 0) continue;
    if (vote_counts_[w] <
        static_cast<double>(options_.min_observations)) {
      continue;
    }
    const double mean_work = work_sum_[w] / vote_counts_[w];
    const bool flag = approval_[w] < options_.min_approval_rate ||
                      mean_work < options_.min_work_seconds ||
                      mean_work > options_.max_work_seconds ||
                      accuracies_[w] < options_.min_accuracy;
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

double JointQualityModel::ApprovalRate(std::size_t worker) const {
  return worker < approval_.size() ? approval_[worker] : 0.5;
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
    writer->WriteDouble(approval_[w]);
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
      reader->ReadCount(&workers, /*min_elem_size=*/33));
  const auto n = static_cast<std::size_t>(workers);
  work_sum_.assign(n, 0.0);
  vote_counts_.assign(n, 0.0);
  approval_.assign(n, 0.5);
  accuracies_.assign(n, 0.7);
  quarantined_.assign(n, 0);
  for (std::size_t w = 0; w < n; ++w) {
    BAYESCROWD_RETURN_NOT_OK(reader->ReadDouble(&work_sum_[w]));
    BAYESCROWD_RETURN_NOT_OK(reader->ReadDouble(&vote_counts_[w]));
    BAYESCROWD_RETURN_NOT_OK(reader->ReadDouble(&approval_[w]));
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
