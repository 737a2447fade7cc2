#include "ctable/dominator.h"

#include <algorithm>

namespace bayescrowd {
namespace {

std::size_t PruneThreshold(std::size_t n, double alpha) {
  if (alpha < 0.0) return n;  // Never prune: |D(o)| <= n-1 always.
  return static_cast<std::size_t>(alpha * static_cast<double>(n));
}

/// Objects per work item: one claim of the pool's shared cursor covers
/// a few dozen microseconds of ANDs.
constexpr std::size_t kObjectsPerItem = 64;

/// Words ANDed side by side: eight independent dependency chains per
/// row instead of one, and the unit at which a count is checked.
constexpr std::size_t kBlockWords = 8;

/// Set bits of one word, as straight-line code: on a baseline x86-64
/// target __builtin_popcountll is a libgcc call per word.
std::size_t PopCount(std::uint64_t w) {
  w -= (w >> 1) & 0x5555555555555555ULL;
  w = (w & 0x3333333333333333ULL) + ((w >> 2) & 0x3333333333333333ULL);
  w = (w + (w >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<std::size_t>((w * 0x0101010101010101ULL) >> 56);
}

}  // namespace

Result<DominatorSets> ComputeDominatorSets(const Table& table, double alpha,
                                           ThreadPool* pool) {
  const std::size_t n = table.num_objects();
  const std::size_t d = table.num_attributes();
  if (n == 0) return Status::InvalidArgument("empty table");
  const std::size_t threshold = PruneThreshold(n, alpha);
  ThreadPool one_lane(1);  // Spawns no thread: a plain loop.
  ThreadPool& lanes = pool != nullptr ? *pool : one_lane;

  // Bitsets over object ids, `stride` words each: bit i is bit i % 64 of
  // word i / 64, and the words past bit n - 1 up to a whole block are
  // zero. Row first_row[j] + v holds GE_j[v], the objects whose j-th
  // value is missing or >= v; an attribute that declares no level (all
  // missing) still gets its one row.
  const std::size_t stride =
      (n + 64 * kBlockWords - 1) / (64 * kBlockWords) * kBlockWords;
  std::vector<std::size_t> first_row(d + 1, 0);
  for (std::size_t j = 0; j < d; ++j) {
    first_row[j + 1] =
        first_row[j] +
        std::max<std::size_t>(
            1, static_cast<std::size_t>(table.schema().domain_size(j)));
  }
  std::vector<std::uint64_t> ge(first_row[d] * stride, 0);
  BAYESCROWD_RETURN_NOT_OK(
      lanes.ParallelFor(d, [&](std::size_t /*lane*/, std::size_t j) {
        std::uint64_t* const rows = &ge[first_row[j] * stride];
        const std::size_t top = first_row[j + 1] - first_row[j] - 1;
        for (std::size_t i = 0; i < n; ++i) {
          // A missing value sits at the top level, so the suffix union
          // below puts it in every row.
          const Level v = table.At(i, j);
          const std::size_t level =
              IsMissingLevel(v) ? top : static_cast<std::size_t>(v);
          rows[level * stride + i / 64] |= std::uint64_t{1} << (i % 64);
        }
        // GE_j[v] = {objects at level v} ∪ GE_j[v+1].
        for (std::size_t v = top; v-- > 0;) {
          for (std::size_t w = 0; w < stride; ++w) {
            rows[v * stride + w] |= rows[(v + 1) * stride + w];
          }
        }
      }));
  // An object that constrains no attribute ANDs no row: every object is
  // a candidate.
  std::vector<std::uint64_t> everyone(stride, 0);
  std::fill_n(everyone.begin(), n / 64, ~std::uint64_t{0});
  if (n % 64 != 0) everyone[n / 64] = ~std::uint64_t{0} >> (64 - n % 64);
  // The AND of an object's rows always holds the object itself (its own
  // value is >= itself), so the running count includes the self bit:
  // |D(o)| > threshold once the count passes threshold + 1.
  const std::size_t limit = threshold + 1;

  DominatorSets out;
  out.dominators.assign(n, {});
  // One byte per object: std::vector<bool> packs neighbouring objects
  // into one word, which concurrent lanes must not share.
  std::vector<std::uint8_t> pruned(n, 0);
  std::vector<std::vector<std::uint64_t>> lane_words(
      lanes.size(), std::vector<std::uint64_t>(stride));
  std::vector<std::vector<const std::uint64_t*>> lane_rows(lanes.size());
  const std::size_t items = (n + kObjectsPerItem - 1) / kObjectsPerItem;
  BAYESCROWD_RETURN_NOT_OK(lanes.ParallelFor(
      items, [&](std::size_t lane, std::size_t item) {
        std::uint64_t* const words = lane_words[lane].data();
        std::vector<const std::uint64_t*>& rows = lane_rows[lane];
        const std::size_t end = std::min(n, (item + 1) * kObjectsPerItem);
        for (std::size_t i = item * kObjectsPerItem; i < end; ++i) {
          rows.clear();
          for (std::size_t j = 0; j < d; ++j) {
            // Missing or level 0: D_j(o) is everything.
            const Level v = table.At(i, j);
            if (IsMissingLevel(v) || v == 0) continue;
            rows.push_back(
                &ge[(first_row[j] + static_cast<std::size_t>(v)) * stride]);
          }
          if (rows.empty()) rows.push_back(everyone.data());
          // Count first, block by block: a pruned object stops as soon
          // as its count passes the limit and never gets a list.
          std::size_t count = 0;
          for (std::size_t w = 0; w < stride && count <= limit;
               w += kBlockWords) {
            std::uint64_t block[kBlockWords];
            std::copy_n(rows[0] + w, kBlockWords, block);
            for (std::size_t r = 1; r < rows.size(); ++r) {
              for (std::size_t k = 0; k < kBlockWords; ++k) {
                block[k] &= rows[r][w + k];
              }
            }
            for (std::size_t k = 0; k < kBlockWords; ++k) {
              words[w + k] = block[k];
              count += PopCount(block[k]);
            }
          }
          if (count > limit) {
            pruned[i] = 1;
            continue;
          }
          words[i / 64] &= ~(std::uint64_t{1} << (i % 64));  // Not itself.
          std::vector<std::uint32_t>& dom = out.dominators[i];
          dom.reserve(count - 1);
          for (std::size_t w = 0; w < stride; ++w) {
            for (std::uint64_t word = words[w]; word != 0; word &= word - 1) {
              dom.push_back(static_cast<std::uint32_t>(
                  w * 64 + static_cast<std::size_t>(__builtin_ctzll(word))));
            }
          }
        }
      }));
  out.pruned.assign(pruned.begin(), pruned.end());
  return out;
}

Result<DominatorSets> ComputeDominatorSetsBaseline(const Table& table,
                                                   double alpha) {
  const std::size_t n = table.num_objects();
  const std::size_t d = table.num_attributes();
  if (n == 0) return Status::InvalidArgument("empty table");
  const std::size_t threshold = PruneThreshold(n, alpha);

  DominatorSets out;
  out.dominators.assign(n, {});
  out.pruned.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    // Faithful to Algorithm 2's structure: derive the complete D(o) by
    // pairwise comparison (Eq. 1), then apply the α threshold. (The
    // bitset kernel counts before materializing, which is part of why
    // it wins in Figure 2.)
    auto& dom = out.dominators[i];
    for (std::size_t p = 0; p < n; ++p) {
      if (p == i) continue;
      bool possible = true;
      for (std::size_t j = 0; j < d; ++j) {
        const Level ov = table.At(i, j);
        if (IsMissingLevel(ov)) continue;
        const Level pv = table.At(p, j);
        if (IsMissingLevel(pv)) continue;
        if (pv < ov) {
          possible = false;
          break;
        }
      }
      if (possible) dom.push_back(static_cast<std::uint32_t>(p));
    }
    if (dom.size() > threshold) {
      out.pruned[i] = true;
      dom.clear();
    }
  }
  return out;
}

}  // namespace bayescrowd
