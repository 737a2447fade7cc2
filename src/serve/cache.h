// SharedQueryCache: the serving layer's cross-session Pr(φ) memo.
//
// A resident server answers many queries over the same few datasets;
// the expensive part of each — exact #SAT solves — is embarrassingly
// reusable across sessions of the same tenant over the same data. This
// cache holds SerializeMemoState blobs keyed by a tenant-safe scope key
// (see SessionManager's scope derivation and
// ProbabilityOptions::cache_scope): a finished session donates its memo
// state here, and a later warm-started session of the same scope
// imports it via ProbabilityEvaluator::MergeMemoState.
//
// Safety is delegated to the evaluator's stamp discipline: an imported
// entry only serves a hit when its DistStamp ^ BudgetTag ^ ScopeTag
// validates against the importing evaluator, so a stale or foreign blob
// is dead weight, never a wrong answer. The cache itself
// only bounds memory: least-recently-used scopes are evicted when the
// byte or entry budget is exceeded.

#ifndef BAYESCROWD_SERVE_CACHE_H_
#define BAYESCROWD_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <string>

namespace bayescrowd::serve {

class SharedQueryCache {
 public:
  struct Options {
    /// Total bytes of blob payload retained; the LRU tail is evicted
    /// past this. A single blob larger than the budget is refused.
    std::size_t max_bytes = 64u << 20;

    /// Scopes retained. Minimum 1.
    std::size_t max_entries = 64;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t donations = 0;  // Accepted Put() calls.
    std::uint64_t rejected = 0;   // Blobs larger than the byte budget.
    std::size_t bytes = 0;
    std::size_t entries = 0;
  };

  explicit SharedQueryCache(Options options);

  SharedQueryCache(const SharedQueryCache&) = delete;
  SharedQueryCache& operator=(const SharedQueryCache&) = delete;

  /// Donates `blob` as the freshest memo state for `scope`, replacing
  /// any previous donation (the newer blob is a superset in the common
  /// session-chain case), then evicts LRU scopes past the budgets.
  /// Oversized blobs are counted and dropped.
  void Put(std::uint64_t scope, std::string blob);

  /// Copies the blob for `scope` into `*blob` and marks the scope
  /// most-recently-used. False on miss.
  bool Get(std::uint64_t scope, std::string* blob);

  Stats stats() const;

 private:
  struct Entry {
    std::string blob;
    std::list<std::uint64_t>::iterator lru_pos;
  };

  void EvictPastBudgetsLocked();

  Options options_;
  mutable std::mutex mu_;
  std::list<std::uint64_t> lru_;  // Front = most recently used.
  std::map<std::uint64_t, Entry> entries_;
  Stats stats_;
};

}  // namespace bayescrowd::serve

#endif  // BAYESCROWD_SERVE_CACHE_H_
