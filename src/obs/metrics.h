// MetricsRegistry: named counters, gauges, and fixed-bucket histograms
// shared by every subsystem (evaluator, ADPLL, thread pool,
// Bayes-net inference, the framework round loop).
//
// Hot-path contract: instrument handles are resolved once (registry
// lookup takes a mutex) and then incremented lock-free with relaxed
// atomics — safe from any pool lane. Snapshot() and Reset() may run
// concurrently with increments; a snapshot is a point-in-time read, not
// a consistent cut across instruments.
//
// Determinism: instruments only record; nothing in the query pipeline
// reads them back, so results are bit-identical with metrics on or off
// (asserted by obs_test).

#ifndef BAYESCROWD_OBS_METRICS_H_
#define BAYESCROWD_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"

namespace bayescrowd::obs {

/// Monotone event count. Increment is one relaxed atomic add.
class Counter {
 public:
  void Increment(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  /// Overwrites the count; used when restoring a checkpointed snapshot.
  void Set(std::uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar (e.g. per-lane busy seconds, pool size).
class Gauge {
 public:
  void Set(double value) {
    bits_.store(Pack(value), std::memory_order_relaxed);
  }
  double value() const {
    return Unpack(bits_.load(std::memory_order_relaxed));
  }
  void Reset() { Set(0.0); }

  /// Bit-cast helpers, shared with Histogram's CAS-accumulated sum.
  static std::uint64_t Pack(double v);
  static double Unpack(std::uint64_t bits);

 private:
  std::atomic<std::uint64_t> bits_{0};
};

struct HistogramSnapshot;

/// Fixed-boundary histogram: bucket i counts observations <= bounds[i];
/// one overflow bucket catches the rest. Observe is a bucket scan plus
/// one relaxed atomic add (bucket lists are short, single digits).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const;
  void Reset();
  /// Overwrites bucket counts / count / sum from a snapshot whose bounds
  /// match this histogram's (extra or missing snapshot buckets are
  /// ignored / left at zero).
  void Restore(const HistogramSnapshot& snapshot);

 private:
  const std::vector<double> bounds_;  // Ascending upper bounds.
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds + overflow.
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  // double, CAS-accumulated.
};

struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;  // bounds.size() + 1 entries.
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// One dimension of a labeled series. Keys come from a small fixed
/// vocabulary (session / phase / solver_tier); values
/// must be low-cardinality — the registry caps distinct values per key
/// and collapses the overflow into "_other" (see kMaxLabelValuesPerKey).
struct Label {
  std::string key;
  std::string value;
};

/// Canonical storage key for a labeled series: `name{k1="v1",k2="v2"}`
/// with labels sorted by key. Series with no labels keep their bare
/// name, so every existing snapshot/normalize/checkpoint path handles
/// labeled and unlabeled instruments uniformly.
std::string LabeledSeriesName(const std::string& name,
                              std::vector<Label> labels);

/// Splits a canonical series key back into its base name and labels.
/// Unlabeled keys return the key itself with no labels.
void ParseSeriesName(const std::string& series, std::string* base,
                     std::vector<Label>* labels);

/// Point-in-time copy of every instrument, sorted by name (stable,
/// diffable rendering).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// The value of counter `name`, 0 when the run never created it.
  std::uint64_t CounterValue(const std::string& name) const;

  /// "name value" lines, histograms as count/sum/buckets.
  std::string ToText() const;
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  JsonValue ToJson() const;
};

/// Thread-safe instrument registry. Instruments are created on first
/// lookup and live as long as the registry; returned pointers are
/// stable. Registries are cheap — the framework creates one per run
/// unless the caller injects a longer-lived one.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` must be ascending; it is fixed on first creation (later
  /// lookups of the same name ignore the argument).
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds);

  /// Labeled lookups. Each label value is interned first (enforcing the
  /// per-key cardinality cap), then the canonical `name{k="v",...}` key
  /// indexes the same instrument maps as the unlabeled overloads — so
  /// Snapshot/Reset/Restore and every downstream consumer see labeled
  /// series as ordinary instruments. Resolution takes the registry
  /// mutex exactly like the unlabeled path; increments through the
  /// returned handle stay lock-free.
  Counter* GetCounter(const std::string& name, std::vector<Label> labels);
  Gauge* GetGauge(const std::string& name, std::vector<Label> labels);
  Histogram* GetHistogram(const std::string& name, std::vector<Label> labels,
                          std::vector<double> bounds);

  /// Interns `value` into `key`'s dense id space and returns the id.
  /// Ids are assigned first-come (deterministic given call order). Once
  /// a key holds kMaxLabelValuesPerKey distinct values, every further
  /// new value maps to the shared overflow value "_other" (id 0 of the
  /// overflow), and one warning line is logged for the key — unbounded
  /// label values are a config bug, not something to crash over.
  std::uint32_t InternLabelValue(const std::string& key,
                                 const std::string& value);

  /// The value string a prospective label would intern as (identity
  /// below the cap, "_other" once the key is saturated).
  std::string InternedLabelValue(const std::string& key,
                                 const std::string& value);

  /// Number of keys whose value space overflowed the cardinality cap.
  /// Exposed as the self-metric "obs.label_overflow" too.
  std::uint64_t label_overflow_keys() const;

  static constexpr std::size_t kMaxLabelValuesPerKey = 24;
  static constexpr const char* kLabelOverflowValue = "_other";

  MetricsSnapshot Snapshot() const;

  /// Zeroes every instrument, keeping registrations (and pointers) alive.
  void Reset();

  /// Restores every instrument in `snapshot`, creating missing ones, so
  /// a resumed session continues its counters where the checkpointed
  /// process left off. Instruments absent from the snapshot are left
  /// untouched.
  void Restore(const MetricsSnapshot& snapshot);

  /// Process-wide registry for instruments below the framework layer
  /// (Bayes-net inference, structure learning). Counts accumulate for
  /// the process lifetime; use Snapshot() deltas for per-phase rates.
  static MetricsRegistry& Default();

 private:
  struct LabelSpace {
    std::map<std::string, std::uint32_t> ids;  // value -> dense id.
    bool overflowed = false;
  };

  // Callee of the labeled Get* overloads: rewrites each label value to
  // its interned form and returns the canonical series key. Requires
  // mu_ NOT held (takes it for the interning).
  std::string CanonicalSeries(const std::string& name,
                              std::vector<Label> labels);
  std::uint32_t InternLocked(const std::string& key,
                             const std::string& value);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, LabelSpace> label_spaces_;
  std::uint64_t label_overflow_keys_ = 0;
};

}  // namespace bayescrowd::obs

#endif  // BAYESCROWD_OBS_METRICS_H_
