// Percentiles from exact samples, the metric table, and the result line.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace perfbench {
namespace {

// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double rank = std::ceil(q * static_cast<double>(values->size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return (*values)[std::min(index, values->size() - 1)];
}

// The tail percentile a sample supports: 0.99 with >= 1000 samples,
// otherwise the highest with at least 10 samples beyond it.
double TailQuantile(size_t samples) {
  if (samples >= 1000) return 0.99;
  if (samples == 0) return 0.5;
  return std::max(0.5, 1.0 - 10.0 / static_cast<double>(samples));
}

// Each window is cut into this many equal-count slices in completion
// order, and a metric reports the 10th percentile of all the run's slices,
// counted from the best. Interference from other tenants of a shared host
// only ever adds time, and it comes in spells that can last minutes, so
// the quieter slices, wherever in the run they fall, are the steadier
// estimate of what the code costs; a code change that slows every request
// still moves every slice.
constexpr size_t kTimeSlices = 30;

double QuietSlice(std::vector<double> values, bool higher_is_better) {
  return Quantile(&values, higher_is_better ? 0.9 : 0.1);
}

std::vector<std::vector<double>> TimeSlices(const Samples& samples,
                                            size_t count) {
  const size_t n = samples.ms.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&samples](size_t a, size_t b) {
    return samples.done_s[a] < samples.done_s[b];
  });
  std::vector<std::vector<double>> slices(count);
  for (size_t k = 0; k < count; ++k) {
    for (size_t i = k * n / count; i < (k + 1) * n / count; ++i) {
      slices[k].push_back(samples.ms[order[i]]);
    }
  }
  return slices;
}

std::string JsonNumber(double v) {
  // A failed op carries an infinite latency; JSON has no infinity.
  if (!std::isfinite(v)) v = v > 0 ? 1e308 : -1e308;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double SlicedOpsPerSecond(const std::vector<LoadResult>& windows) {
  std::vector<double> rates;
  for (const LoadResult& window : windows) {
    // Slice the completion times themselves: `ms` carries them too, so
    // each slice comes back as its list of completion times.
    Samples ok;
    for (const Samples* part : {&window.bitmap, &window.count, &window.write}) {
      for (size_t i = 0; i < part->ms.size(); ++i) {
        if (!std::isfinite(part->ms[i])) continue;
        ok.ms.push_back(part->done_s[i]);
        ok.done_s.push_back(part->done_s[i]);
      }
    }
    // Each slice's rate: its completions over the time they span.
    for (const std::vector<double>& done : TimeSlices(ok, kTimeSlices)) {
      if (done.size() < 2 || done.back() <= done.front()) continue;
      rates.push_back(static_cast<double>(done.size() - 1) /
                      (done.back() - done.front()));
    }
  }
  return QuietSlice(rates, /*higher_is_better=*/true);
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

double LowerQuartile(std::vector<double> values) {
  return Quantile(&values, 0.25);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples,
                 const std::string& note) {
  metrics_.push_back(Metric{name, value, unit, samples, note, true});
}

void Report::AddPrinted(const std::string& name, double value,
                        const std::string& unit, uint64_t samples,
                        const std::string& note) {
  metrics_.push_back(Metric{name, value, unit, samples, note, false});
}

void Report::AddLatency(const std::string& prefix,
                        const std::vector<Samples>& windows, bool gated) {
  Samples pooled;
  std::vector<double> slice_p50;
  for (const Samples& window : windows) {
    pooled.Add(window);
    for (std::vector<double>& slice : TimeSlices(window, kTimeSlices)) {
      slice_p50.push_back(Quantile(&slice, 0.5));
    }
  }
  std::vector<double> all = pooled.ms;
  const size_t n = all.size();
  metrics_.push_back(Metric{prefix + "_p50_ms",
                            QuietSlice(slice_p50, /*higher_is_better=*/false),
                            "ms", n, "p10 of time slices", gated});
  const double q = TailQuantile(n);
  char note[64];
  std::snprintf(note, sizeof(note), "pooled p%.1f", 100.0 * q);
  AddPrinted(prefix + "_p99_ms", Quantile(&all, q), "ms", n, note);
  std::printf("%s latency ms, pooled: p50 %.3f  p90 %.3f  p95 %.3f  "
              "p99 %.3f  p99.9 %.3f  max %.3f  (%zu samples)\n",
              prefix.c_str(), Quantile(&all, 0.5), Quantile(&all, 0.90),
              Quantile(&all, 0.95), Quantile(&all, 0.99),
              Quantile(&all, 0.999), Quantile(&all, 1.0), n);
}

void Report::PrintTable(const std::string& title) const {
  std::printf("\n%s (* = in the JSON result)\n  %-30s %18s %-6s %9s\n",
              title.c_str(), "metric", "value", "unit", "samples");
  for (const Metric& m : metrics_) {
    std::printf("%c %-30s %18.6f %-6s %9llu  %s\n", m.in_json ? '*' : ' ',
                m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples), m.note.c_str());
  }
}

std::string Report::Json(bool correct, const Tally& tally) const {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(tally.attempted) +
                    ", \"failed\": " + std::to_string(tally.failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!m.in_json) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

ProcessUsage ProcessUsage::Now() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  ProcessUsage now;
  now.user_s = seconds(usage.ru_utime);
  now.cpu_s = now.user_s + seconds(usage.ru_stime);
  now.minor_faults = static_cast<uint64_t>(usage.ru_minflt);
  return now;
}

ProcessUsage ProcessUsage::operator-(const ProcessUsage& earlier) const {
  return ProcessUsage{cpu_s - earlier.cpu_s, user_s - earlier.user_s,
                      minor_faults - earlier.minor_faults};
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

}  // namespace perfbench
