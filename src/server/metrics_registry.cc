#include "server/metrics_registry.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

namespace bix {

namespace {

size_t StripeForThisThread() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) %
         StripedLatencyHistogram::kStripes;
}

// Fixed-precision microsecond rendering shared by both exporters, so text
// and JSON agree byte-for-byte on every derived value.
std::string FormatMicros(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return std::string(buf);
}

std::string FormatGauge(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  return std::string(buf);
}

struct HistogramView {
  uint64_t count;
  std::string sum_us, p50_us, p95_us, p99_us;
};

HistogramView ViewOf(const LatencyHistogram& h) {
  return HistogramView{h.count(), FormatMicros(h.sum_seconds()),
                       FormatMicros(h.p50()), FormatMicros(h.p95()),
                       FormatMicros(h.p99())};
}

}  // namespace

void StripedLatencyHistogram::Record(double seconds) {
  Stripe& stripe = stripes_[StripeForThisThread()];
  std::lock_guard<std::mutex> lock(stripe.mu);
  stripe.histogram.Record(seconds);
}

LatencyHistogram StripedLatencyHistogram::Merged() const {
  LatencyHistogram merged;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    merged.Add(stripe.histogram);
  }
  return merged;
}

MetricsCounter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<MetricsCounter>();
  return slot.get();
}

void MetricsRegistry::RegisterGauge(const std::string& name,
                                    std::function<double()> read) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = std::move(read);
}

StripedLatencyHistogram* MetricsRegistry::GetHistogram(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<StripedLatencyHistogram>();
  return slot.get();
}

std::vector<std::pair<std::string, std::string>> MetricsRegistry::ReadGauges()
    const {
  std::vector<std::pair<std::string, std::function<double()>>> reads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    reads.assign(gauges_.begin(), gauges_.end());
  }
  std::vector<std::pair<std::string, std::string>> values;
  values.reserve(reads.size());
  for (auto& [name, read] : reads) {
    values.emplace_back(std::move(name), FormatGauge(read()));
  }
  return values;
}

std::string MetricsRegistry::DumpText() const {
  const std::vector<std::pair<std::string, std::string>> gauges =
      ReadGauges();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += name;
    out += ": ";
    out += std::to_string(counter->Value());
    out += '\n';
  }
  for (const auto& [name, value] : gauges) {
    out += name;
    out += ": ";
    out += value;
    out += '\n';
  }
  for (const auto& [name, histogram] : histograms_) {
    const HistogramView v = ViewOf(histogram->Merged());
    out += name + "_count: " + std::to_string(v.count) + '\n';
    out += name + "_sum_us: " + v.sum_us + '\n';
    out += name + "_p50_us: " + v.p50_us + '\n';
    out += name + "_p95_us: " + v.p95_us + '\n';
    out += name + "_p99_us: " + v.p99_us + '\n';
  }
  return out;
}

std::string MetricsRegistry::DumpJson() const {
  const std::vector<std::pair<std::string, std::string>> gauges =
      ReadGauges();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"' + name + "\":" + std::to_string(counter->Value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out += ',';
    first = false;
    out += '"' + name + "\":" + value;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out += ',';
    first = false;
    const HistogramView v = ViewOf(histogram->Merged());
    out += '"' + name + "\":{\"count\":" + std::to_string(v.count) +
           ",\"sum_us\":" + v.sum_us + ",\"p50_us\":" + v.p50_us +
           ",\"p95_us\":" + v.p95_us + ",\"p99_us\":" + v.p99_us + '}';
  }
  out += "}}";
  return out;
}

void SlowQueryLog::MaybeAdd(Entry entry) {
  if (capacity_ == 0) return;
  // Fast reject: once the log is full the floor holds the K-th latency
  // (it stays at the -1 sentinel until then, admitting everything), so
  // anything at or below it cannot displace an entry and returns without
  // touching the lock.
  if (entry.total_seconds <= floor_seconds_.load(std::memory_order_relaxed)) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.size() >= capacity_ &&
      entry.total_seconds <= entries_.back().total_seconds) {
    return;
  }
  // Insert before the first strictly-faster entry (ties keep arrival
  // order), then trim to capacity.
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const Entry& e) {
                           return e.total_seconds < entry.total_seconds;
                         });
  entries_.insert(it, std::move(entry));
  if (entries_.size() > capacity_) entries_.pop_back();
  if (entries_.size() >= capacity_) {
    floor_seconds_.store(entries_.back().total_seconds,
                         std::memory_order_relaxed);
  }
}

std::vector<SlowQueryLog::Entry> SlowQueryLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

std::string SlowQueryLog::Render() const {
  std::string out;
  for (const Entry& e : Snapshot()) {
    char head[160];
    std::snprintf(head, sizeof(head), "%.3fus %s status=%s\n",
                  e.total_seconds * 1e6, e.description.c_str(),
                  e.status.c_str());
    out += head;
    if (!e.trace_render.empty()) {
      // Indent the rendered span tree under its header line.
      size_t pos = 0;
      while (pos < e.trace_render.size()) {
        const size_t eol = e.trace_render.find('\n', pos);
        const size_t end =
            eol == std::string::npos ? e.trace_render.size() : eol;
        out += "    ";
        out.append(e.trace_render, pos, end - pos);
        out += '\n';
        pos = end + 1;
      }
    }
  }
  return out;
}

}  // namespace bix
