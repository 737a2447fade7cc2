#include "skyline/algorithms.h"

#include <algorithm>
#include <numeric>

#include "skyline/dominance.h"

namespace bayescrowd {
namespace {

Status RequireComplete(const Table& table) {
  if (!table.IsComplete()) {
    return Status::FailedPrecondition(
        "skyline over complete data requires a complete table");
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<std::size_t>> SkylineBnl(const Table& table) {
  BAYESCROWD_RETURN_NOT_OK(RequireComplete(table));
  std::vector<std::size_t> window;
  for (std::size_t i = 0; i < table.num_objects(); ++i) {
    bool dominated = false;
    std::size_t kept = 0;
    for (std::size_t w = 0; w < window.size(); ++w) {
      if (Dominates(table, window[w], i)) {
        dominated = true;
        // Keep the remaining window as is.
        for (; w < window.size(); ++w) window[kept++] = window[w];
        break;
      }
      if (!Dominates(table, i, window[w])) window[kept++] = window[w];
    }
    window.resize(kept);
    if (!dominated) window.push_back(i);
  }
  std::sort(window.begin(), window.end());
  return window;
}

Result<std::vector<std::size_t>> SkylineSfs(const Table& table) {
  BAYESCROWD_RETURN_NOT_OK(RequireComplete(table));
  const std::size_t n = table.num_objects();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<long long> sums(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < table.num_attributes(); ++j) {
      sums[i] += table.At(i, j);
    }
  }
  std::sort(order.begin(), order.end(),
            [&sums](std::size_t a, std::size_t b) {
              return sums[a] != sums[b] ? sums[a] > sums[b] : a < b;
            });

  // After sorting by descending sum, an object can only be dominated by
  // an *earlier* object, so one window pass is enough.
  std::vector<std::size_t> skyline;
  for (std::size_t idx : order) {
    bool dominated = false;
    for (std::size_t s : skyline) {
      if (Dominates(table, s, idx)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) skyline.push_back(idx);
  }
  std::sort(skyline.begin(), skyline.end());
  return skyline;
}

}  // namespace bayescrowd
