// Dataset generators used by the examples, tests and benchmark harness.
//
// The paper evaluates on (i) a real NBA dataset (10,000 player-season
// records, 11 attributes) and (ii) a 100,000-record, 9-attribute
// synthetic dataset sampled from the Bayesian network of the UCI Adult
// dataset. Neither raw source is redistributable here, so MakeNbaLike()
// and MakeAdultLike() sample structurally equivalent data from hand-built
// generative models with the same cardinality, dimensionality and
// correlation style (see DESIGN.md, "Substitutions"). The classic
// independent / correlated / anti-correlated skyline workloads
// (Borzsonyi et al.) are provided as well.

#ifndef BAYESCROWD_DATA_GENERATORS_H_
#define BAYESCROWD_DATA_GENERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/table.h"

namespace bayescrowd {

/// The paper's running example (Table 1): five movies, five audience
/// rating attributes, four missing cells. Returned exactly as printed —
/// already incomplete.
Table MakeSampleMovieDataset();

/// The complete version of the sample dataset consistent with the
/// crowdsourced answers of Example 4: Var(o2,a2)=4 (>3), Var(o5,a2)=3
/// (>2), Var(o5,a3)=3, Var(o5,a4)=3 (<4). Used as crowd ground truth in
/// tests and the quickstart example.
Table MakeSampleMovieGroundTruth();

/// Per-attribute marginal value distributions assumed in the paper's
/// Example 3 (a2 uniform over 0..9, a3 uniform over 0..7, a4 skewed over
/// 0..5, others uniform). Index = attribute, inner index = level.
std::vector<std::vector<double>> SampleMovieDistributions();

/// NBA-like complete table: `n` player-season records, 11 correlated
/// stat attributes (games, minutes, points, rebounds, assists, steals,
/// blocks, three_pm, ftm, low_turnovers, low_fouls), each discretized to
/// `levels` values (default 10). Larger is better on every attribute.
Table MakeNbaLike(std::size_t n, std::uint64_t seed, Level levels = 10);

/// Adult-like complete table: `n` records, 9 attributes whose dependency
/// structure mirrors UCI Adult (age -> education -> occupation ->
/// hours -> income, plus capital/relationship/sex-like attributes).
Table MakeAdultLike(std::size_t n, std::uint64_t seed);

/// Independent uniform levels.
Table MakeIndependent(std::size_t n, std::size_t d, Level levels,
                      std::uint64_t seed);

/// Correlated workload: attribute levels cluster around a per-object
/// quality score (few skyline points). `noise_scale` controls how much
/// attributes deviate from the shared score: pairwise correlation is
/// 1 / (1 + noise_scale^2), so 1.0 gives ~0.5 and larger values weaken
/// the correlation (richer skylines).
Table MakeCorrelated(std::size_t n, std::size_t d, Level levels,
                     std::uint64_t seed, double noise_scale = 1.0);

/// Anti-correlated workload: good in one attribute implies bad in others
/// (many skyline points).
Table MakeAnticorrelated(std::size_t n, std::size_t d, Level levels,
                         std::uint64_t seed);

/// Limits on a generated table, which every frontend applies to outside
/// input before anything is allocated: attributes (`d`), levels per
/// attribute, and total cells (rows × attributes).
inline constexpr std::size_t kMaxDatasetAttributes = 64;
inline constexpr Level kMaxDatasetLevels = 32;
inline constexpr std::size_t kMaxDatasetCells = 10'000'000;

/// The complete table of generator `kind`: "nba" and "adult" (fixed
/// attributes; `d` and `levels` are ignored), or "indep", "corr" and
/// "anti" (`d` attributes of `levels` levels). InvalidArgument on an
/// unknown kind, or when the table would exceed kMaxDatasetCells.
Result<Table> MakeDataset(const std::string& kind, std::size_t n,
                          std::size_t d, Level levels, std::uint64_t seed);

}  // namespace bayescrowd

#endif  // BAYESCROWD_DATA_GENERATORS_H_
