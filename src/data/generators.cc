#include "data/generators.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "common/string_util.h"
#include "data/discretizer.h"

namespace bayescrowd {
namespace {

constexpr Level kM = kMissingLevel;

// Draws a level in [0, levels) from a discretized Gaussian centred at
// `mean` with standard deviation `sigma` (both in level units). This is
// the building block for the hand-built conditional distributions below:
// shifting `mean` with a parent level yields a smooth, learnable CPD.
Level GaussianLevel(Rng& rng, Level levels, double mean, double sigma) {
  std::vector<double> weights(static_cast<std::size_t>(levels));
  for (Level k = 0; k < levels; ++k) {
    const double dk = (static_cast<double>(k) - mean) / sigma;
    weights[static_cast<std::size_t>(k)] = std::exp(-0.5 * dk * dk);
  }
  return static_cast<Level>(rng.NextDiscrete(weights));
}

}  // namespace

Table MakeSampleMovieDataset() {
  Schema schema;
  schema.AddAttribute("a1", 10);
  schema.AddAttribute("a2", 10);
  schema.AddAttribute("a3", 8);
  schema.AddAttribute("a4", 6);
  schema.AddAttribute("a5", 10);
  Table table(schema);
  BAYESCROWD_CHECK_OK(table.AppendRow("Schindler's List", {5, 2, 3, 4, 1}));
  BAYESCROWD_CHECK_OK(table.AppendRow("Se7en", {6, kM, 2, 2, 2}));
  BAYESCROWD_CHECK_OK(table.AppendRow("The Godfather", {1, 1, kM, 5, 3}));
  BAYESCROWD_CHECK_OK(table.AppendRow("The Lion King", {4, 3, 1, 2, 1}));
  BAYESCROWD_CHECK_OK(table.AppendRow("Star Wars", {5, kM, kM, kM, 1}));
  return table;
}

Table MakeSampleMovieGroundTruth() {
  Table table = MakeSampleMovieDataset();
  table.SetCell(1, 1, 4);  // Var(o2, a2) = 4  (> 3, Example 4)
  table.SetCell(2, 2, 4);  // Var(o3, a3): unconstrained by Example 4.
  table.SetCell(4, 1, 3);  // Var(o5, a2) = 3  (> 2)
  table.SetCell(4, 2, 3);  // Var(o5, a3) = 3  (= 3)
  table.SetCell(4, 3, 3);  // Var(o5, a4) = 3  (< 4)
  return table;
}

std::vector<std::vector<double>> SampleMovieDistributions() {
  std::vector<std::vector<double>> dists(5);
  dists[0].assign(10, 0.1);
  dists[1].assign(10, 0.1);
  dists[2].assign(8, 0.125);
  dists[3] = {0.1, 0.1, 0.2, 0.2, 0.3, 0.1};
  dists[4].assign(10, 0.1);
  return dists;
}

Table MakeNbaLike(std::size_t n, std::uint64_t seed, Level levels) {
  Rng rng(seed);
  const std::vector<std::string> names = {
      "games",  "minutes",  "points", "rebounds", "assists", "steals",
      "blocks", "three_pm", "ftm",    "oreb",     "dreb"};
  std::vector<std::vector<double>> cols(names.size(),
                                        std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    // Latent player quality and position (big man vs guard). Stats hang
    // tightly off playing time, as in real box scores — that coupling is
    // what makes missing values inferable for the Bayesian network.
    const double skill = rng.NextGaussian();
    const double big = rng.NextGaussian();  // Position: center vs guard.
    const double minutes = 0.75 * skill + 0.5 * rng.NextGaussian();
    const double points =
        0.45 * minutes + 0.3 * skill + 0.55 * rng.NextGaussian();
    cols[0][i] = 0.6 * skill + 0.7 * rng.NextGaussian();       // games
    cols[1][i] = minutes;                                      // minutes
    cols[2][i] = points;                                       // points
    cols[3][i] = 0.45 * minutes + 0.7 * big + 0.55 * rng.NextGaussian();
    cols[4][i] = 0.45 * minutes - 0.7 * big + 0.55 * rng.NextGaussian();
    cols[5][i] = 0.45 * minutes - 0.28 * big + 0.66 * rng.NextGaussian();
    cols[6][i] = 0.36 * minutes + 0.84 * big + 0.55 * rng.NextGaussian();
    cols[7][i] = 0.45 * minutes - 0.7 * big + 0.6 * rng.NextGaussian();
    cols[8][i] = 0.7 * points + 0.44 * rng.NextGaussian();     // ftm
    cols[9][i] = 0.36 * minutes + 0.77 * big + 0.55 * rng.NextGaussian();
    cols[10][i] = 0.45 * minutes + 0.63 * big + 0.55 * rng.NextGaussian();
  }
  std::vector<std::string> object_names(n);
  for (std::size_t i = 0; i < n; ++i) {
    object_names[i] = StrFormat("player%zu", i + 1);
  }
  auto result = Discretizer::DiscretizeTable(
      names, cols, levels, BinningMethod::kEqualFrequency, object_names);
  BAYESCROWD_CHECK_OK(result.status());
  return std::move(result).value();
}

Table MakeAdultLike(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Schema schema;
  schema.AddAttribute("age", 8);
  schema.AddAttribute("education", 6);
  schema.AddAttribute("occupation", 8);
  schema.AddAttribute("hours", 6);
  schema.AddAttribute("income", 10);
  schema.AddAttribute("capital", 8);
  schema.AddAttribute("relationship", 5);
  schema.AddAttribute("workclass", 5);
  schema.AddAttribute("country", 4);
  Table table(schema);
  table.Reserve(n);
  std::vector<Level> row(9);
  for (std::size_t i = 0; i < n; ++i) {
    // A hand-built Bayesian network mirroring UCI Adult's dependency
    // structure; each CPD is a Gaussian-shaped discrete kernel whose
    // mean shifts with the parent levels.
    const Level age = GaussianLevel(rng, 8, 3.0, 2.2);
    const Level education =
        GaussianLevel(rng, 6, 1.2 + 0.35 * age, 1.2);
    const Level occupation =
        GaussianLevel(rng, 8, 0.8 + 1.0 * education, 1.5);
    const Level hours = GaussianLevel(rng, 6, 1.5 + 0.35 * occupation, 1.2);
    const Level income = GaussianLevel(
        rng, 10, 0.6 + 0.8 * education + 0.5 * hours, 1.6);
    const Level capital = GaussianLevel(rng, 8, 0.4 + 0.6 * income, 1.4);
    const Level relationship = GaussianLevel(rng, 5, 0.5 + 0.4 * age, 1.0);
    const Level workclass =
        GaussianLevel(rng, 5, 0.5 + 0.4 * occupation, 1.1);
    const Level country = GaussianLevel(rng, 4, 1.5, 1.4);
    row = {age,     education,    occupation, hours,   income,
           capital, relationship, workclass,  country};
    BAYESCROWD_CHECK_OK(
        table.AppendRow(StrFormat("r%zu", i + 1), row));
  }
  return table;
}

Table MakeIndependent(std::size_t n, std::size_t d, Level levels,
                      std::uint64_t seed) {
  Rng rng(seed);
  Schema schema;
  for (std::size_t j = 0; j < d; ++j) {
    schema.AddAttribute(StrFormat("a%zu", j + 1), levels);
  }
  Table table(schema);
  table.Reserve(n);
  std::vector<Level> row(d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      row[j] = static_cast<Level>(
          rng.NextBelow(static_cast<std::uint64_t>(levels)));
    }
    BAYESCROWD_CHECK_OK(table.AppendRow(StrFormat("o%zu", i + 1), row));
  }
  return table;
}

Table MakeCorrelated(std::size_t n, std::size_t d, Level levels,
                     std::uint64_t seed, double noise_scale) {
  Rng rng(seed);
  std::vector<std::string> names(d);
  std::vector<std::vector<double>> cols(d, std::vector<double>(n));
  for (std::size_t j = 0; j < d; ++j) names[j] = StrFormat("a%zu", j + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double base = rng.NextGaussian();
    for (std::size_t j = 0; j < d; ++j) {
      cols[j][i] = base + noise_scale * rng.NextGaussian();
    }
  }
  // Rank-based discretization keeps marginals balanced and avoids
  // probability atoms at the domain extremes (which would create masses
  // of exactly-equal top rows).
  auto result = Discretizer::DiscretizeTable(
      names, cols, levels, BinningMethod::kEqualFrequency);
  BAYESCROWD_CHECK_OK(result.status());
  return std::move(result).value();
}

Table MakeAnticorrelated(std::size_t n, std::size_t d, Level levels,
                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names(d);
  std::vector<std::vector<double>> cols(d, std::vector<double>(n));
  for (std::size_t j = 0; j < d; ++j) names[j] = StrFormat("a%zu", j + 1);
  std::vector<double> raw(d);
  for (std::size_t i = 0; i < n; ++i) {
    // Values on (a jittered) constant-sum hyperplane: an object that is
    // good in one attribute tends to be bad in the others.
    double total = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      raw[j] = -std::log(1.0 - rng.NextDouble() + 1e-12);  // Exp(1)
      total += raw[j];
    }
    for (std::size_t j = 0; j < d; ++j) {
      cols[j][i] = raw[j] / total + 0.05 * rng.NextGaussian();
    }
  }
  auto result = Discretizer::DiscretizeTable(
      names, cols, levels, BinningMethod::kEqualFrequency);
  BAYESCROWD_CHECK_OK(result.status());
  return std::move(result).value();
}

Result<Table> MakeDataset(const std::string& kind, std::size_t n,
                          std::size_t d, Level levels, std::uint64_t seed) {
  std::size_t attributes = d;
  if (kind == "nba") {
    attributes = 11;
  } else if (kind == "adult") {
    attributes = 9;
  } else if (kind != "indep" && kind != "corr" && kind != "anti") {
    return Status::InvalidArgument(
        StrFormat("unknown dataset kind '%s'", kind.c_str()));
  }
  if (attributes > 0 && n > kMaxDatasetCells / attributes) {
    return Status::InvalidArgument(StrFormat(
        "%s dataset of n=%zu rows x %zu attributes exceeds the %zu-cell "
        "limit",
        kind.c_str(), n, attributes, kMaxDatasetCells));
  }
  if (kind == "nba") return MakeNbaLike(n, seed);
  if (kind == "adult") return MakeAdultLike(n, seed);
  if (kind == "indep") return MakeIndependent(n, d, levels, seed);
  if (kind == "corr") return MakeCorrelated(n, d, levels, seed);
  return MakeAnticorrelated(n, d, levels, seed);
}

}  // namespace bayescrowd
