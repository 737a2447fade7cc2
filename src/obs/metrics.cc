#include "obs/metrics.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/string_util.h"

namespace bayescrowd::obs {

std::string LabeledSeriesName(const std::string& name,
                              std::vector<Label> labels) {
  if (labels.empty()) return name;
  std::sort(labels.begin(), labels.end(),
            [](const Label& a, const Label& b) { return a.key < b.key; });
  std::string out = name;
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].key;
    out += "=\"";
    out += labels[i].value;
    out += '"';
  }
  out += '}';
  return out;
}

void ParseSeriesName(const std::string& series, std::string* base,
                     std::vector<Label>* labels) {
  labels->clear();
  const std::size_t brace = series.find('{');
  if (brace == std::string::npos || series.back() != '}') {
    *base = series;
    return;
  }
  *base = series.substr(0, brace);
  // Label values come from the interner (identifier-ish vocabulary, no
  // embedded quotes), so a flat scan over `k="v",...` suffices.
  std::size_t pos = brace + 1;
  const std::size_t end = series.size() - 1;
  while (pos < end) {
    const std::size_t eq = series.find('=', pos);
    if (eq == std::string::npos || eq >= end) break;
    Label label;
    label.key = series.substr(pos, eq - pos);
    std::size_t vstart = eq + 1;
    if (vstart < end && series[vstart] == '"') ++vstart;
    std::size_t vend = series.find('"', vstart);
    if (vend == std::string::npos || vend > end) vend = end;
    label.value = series.substr(vstart, vend - vstart);
    labels->push_back(std::move(label));
    pos = vend + 1;
    if (pos < end && series[pos] == ',') ++pos;
  }
}

std::uint64_t Gauge::Pack(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double Gauge::Unpack(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_([&bounds] {
        std::sort(bounds.begin(), bounds.end());
        return std::move(bounds);
      }()),
      buckets_(bounds_.size() + 1) {}

void Histogram::Observe(double value) {
  std::size_t bucket = bounds_.size();  // Overflow by default.
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t observed = sum_bits_.load(std::memory_order_relaxed);
  while (true) {
    const std::uint64_t updated = Gauge::Pack(Gauge::Unpack(observed) + value);
    if (sum_bits_.compare_exchange_weak(observed, updated,
                                        std::memory_order_relaxed)) {
      break;
    }
  }
}

double Histogram::sum() const {
  return Gauge::Unpack(sum_bits_.load(std::memory_order_relaxed));
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

void Histogram::Restore(const HistogramSnapshot& snapshot) {
  Reset();
  const std::size_t n =
      std::min(buckets_.size(), snapshot.bucket_counts.size());
  for (std::size_t i = 0; i < n; ++i) {
    buckets_[i].store(snapshot.bucket_counts[i], std::memory_order_relaxed);
  }
  count_.store(snapshot.count, std::memory_order_relaxed);
  sum_bits_.store(Gauge::Pack(snapshot.sum), std::memory_order_relaxed);
}

std::uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += StrFormat("%s %llu\n", name.c_str(),
                     static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : gauges) {
    out += StrFormat("%s %g\n", name.c_str(), value);
  }
  for (const auto& [name, hist] : histograms) {
    out += StrFormat("%s count=%llu sum=%g buckets=[", name.c_str(),
                     static_cast<unsigned long long>(hist.count), hist.sum);
    for (std::size_t i = 0; i < hist.bucket_counts.size(); ++i) {
      if (i > 0) out += ", ";
      if (i < hist.bounds.size()) {
        out += StrFormat("<=%g: %llu", hist.bounds[i],
                         static_cast<unsigned long long>(
                             hist.bucket_counts[i]));
      } else {
        out += StrFormat(">%g: %llu",
                         hist.bounds.empty() ? 0.0 : hist.bounds.back(),
                         static_cast<unsigned long long>(
                             hist.bucket_counts[i]));
      }
    }
    out += "]\n";
  }
  return out;
}

JsonValue MetricsSnapshot::ToJson() const {
  JsonValue out = JsonValue::Object();
  JsonValue& counter_obj = out["counters"];
  counter_obj = JsonValue::Object();
  for (const auto& [name, value] : counters) counter_obj[name] = value;
  JsonValue& gauge_obj = out["gauges"];
  gauge_obj = JsonValue::Object();
  for (const auto& [name, value] : gauges) gauge_obj[name] = value;
  JsonValue& hist_obj = out["histograms"];
  hist_obj = JsonValue::Object();
  for (const auto& [name, hist] : histograms) {
    JsonValue entry = JsonValue::Object();
    JsonValue bounds = JsonValue::Array();
    for (const double b : hist.bounds) bounds.Append(b);
    JsonValue buckets = JsonValue::Array();
    for (const std::uint64_t c : hist.bucket_counts) buckets.Append(c);
    entry["bounds"] = std::move(bounds);
    entry["bucket_counts"] = std::move(buckets);
    entry["count"] = hist.count;
    entry["sum"] = hist.sum;
    hist_obj[name] = std::move(entry);
  }
  return out;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return slot.get();
}

std::uint32_t MetricsRegistry::InternLocked(const std::string& key,
                                            const std::string& value) {
  LabelSpace& space = label_spaces_[key];
  const auto it = space.ids.find(value);
  if (it != space.ids.end()) return it->second;
  if (space.ids.size() >= kMaxLabelValuesPerKey) {
    if (!space.overflowed) {
      space.overflowed = true;
      ++label_overflow_keys_;
      BAYESCROWD_LOG(Warning)
          << "metrics label key '" << key << "' exceeded "
          << kMaxLabelValuesPerKey
          << " distinct values; further values collapse into \""
          << kLabelOverflowValue << "\"";
    }
    const auto overflow = space.ids.find(kLabelOverflowValue);
    if (overflow != space.ids.end()) return overflow->second;
    // The cap reserves no slot for "_other"; it becomes the next id.
    const auto id = static_cast<std::uint32_t>(space.ids.size());
    space.ids.emplace(kLabelOverflowValue, id);
    return id;
  }
  const auto id = static_cast<std::uint32_t>(space.ids.size());
  space.ids.emplace(value, id);
  return id;
}

std::uint32_t MetricsRegistry::InternLabelValue(const std::string& key,
                                                const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  return InternLocked(key, value);
}

std::string MetricsRegistry::InternedLabelValue(const std::string& key,
                                                const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint32_t id = InternLocked(key, value);
  const LabelSpace& space = label_spaces_[key];
  for (const auto& [interned, interned_id] : space.ids) {
    if (interned_id == id) return interned;
  }
  return value;  // Unreachable: the id was just interned.
}

std::uint64_t MetricsRegistry::label_overflow_keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  return label_overflow_keys_;
}

std::string MetricsRegistry::CanonicalSeries(const std::string& name,
                                             std::vector<Label> labels) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Label& label : labels) {
      const std::uint32_t id = InternLocked(label.key, label.value);
      const LabelSpace& space = label_spaces_[label.key];
      if (space.overflowed) {
        // The value may have been collapsed; resolve the id back.
        for (const auto& [interned, interned_id] : space.ids) {
          if (interned_id == id) {
            label.value = interned;
            break;
          }
        }
      }
    }
    if (label_overflow_keys_ > 0) {
      auto& slot = counters_["obs.label_overflow"];
      if (slot == nullptr) slot = std::make_unique<Counter>();
      slot->Set(label_overflow_keys_);
    }
  }
  return LabeledSeriesName(name, std::move(labels));
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     std::vector<Label> labels) {
  return GetCounter(CanonicalSeries(name, std::move(labels)));
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 std::vector<Label> labels) {
  return GetGauge(CanonicalSeries(name, std::move(labels)));
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<Label> labels,
                                         std::vector<double> bounds) {
  return GetHistogram(CanonicalSeries(name, std::move(labels)),
                      std::move(bounds));
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->value();
  }
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot h;
    h.bounds = hist->bounds();
    h.bucket_counts.resize(h.bounds.size() + 1);
    for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
      h.bucket_counts[i] = hist->bucket_count(i);
    }
    h.count = hist->count();
    h.sum = hist->sum();
    snapshot.histograms[name] = std::move(h);
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

void MetricsRegistry::Restore(const MetricsSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, value] : snapshot.counters) {
    auto& slot = counters_[name];
    if (slot == nullptr) slot = std::make_unique<Counter>();
    slot->Set(value);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    auto& slot = gauges_[name];
    if (slot == nullptr) slot = std::make_unique<Gauge>();
    slot->Set(value);
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    auto& slot = histograms_[name];
    if (slot == nullptr) slot = std::make_unique<Histogram>(hist.bounds);
    slot->Restore(hist);
  }
}

MetricsRegistry& MetricsRegistry::Default() {
  static auto* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace bayescrowd::obs
