#include "obs/registry.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <sstream>

#include "obs/json_writer.hpp"

namespace adacheck::obs {

namespace {

std::chrono::steady_clock::time_point process_epoch() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

// Touch the epoch as early as static init allows so now_micros() is
// small-and-growing rather than anchored to the first instrumented call.
const auto g_epoch_init = process_epoch();

std::atomic<int> g_next_thread_id{0};

}  // namespace

std::uint64_t now_micros() noexcept {
  const auto elapsed = std::chrono::steady_clock::now() - process_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
}

int thread_id() noexcept {
  thread_local const int id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// ---------------------------------------------------------------------------
// LatencyHisto

void LatencyHisto::record(std::uint64_t micros) noexcept {
  const int bin = std::min(static_cast<int>(std::bit_width(micros)), kBins - 1);
  bins_[static_cast<std::size_t>(bin)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(static_cast<long long>(micros), std::memory_order_relaxed);
  long long seen = max_.load(std::memory_order_relaxed);
  const auto value = static_cast<long long>(micros);
  while (seen < value &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

long long LatencyHisto::count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}

long long LatencyHisto::sum_micros() const noexcept {
  return sum_.load(std::memory_order_relaxed);
}

long long LatencyHisto::max_micros() const noexcept {
  return max_.load(std::memory_order_relaxed);
}

double LatencyHisto::quantile_micros(double q) const noexcept {
  const long long total = count();
  if (total <= 0) return 0.0;
  const double target = q * static_cast<double>(total);
  long long seen = 0;
  for (int bin = 0; bin < kBins; ++bin) {
    seen += bins_[static_cast<std::size_t>(bin)].load(std::memory_order_relaxed);
    if (static_cast<double>(seen) >= target) {
      // Upper bound of bin i is 2^i - 1 micros (bin 0 holds zeros);
      // clamp to the observed maximum so the tail estimate never
      // exceeds a real sample.
      const double upper =
          bin == 0 ? 0.0 : std::ldexp(1.0, bin) - 1.0;
      return std::min(upper, static_cast<double>(max_micros()));
    }
  }
  return static_cast<double>(max_micros());
}

void LatencyHisto::reset() noexcept {
  for (auto& bin : bins_) bin.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry

Registry& Registry::instance() {
  static Registry* const registry = new Registry();  // never destroyed
  return *registry;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHisto& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<LatencyHisto>();
  return *slot;
}

StatsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  StatsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.counters.push_back({name, counter->value()});
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.push_back({name, gauge->value()});
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, histo] : histograms_) {
    StatsSnapshot::Histo h;
    h.name = name;
    h.count = histo->count();
    h.sum_micros = histo->sum_micros();
    h.max_micros = histo->max_micros();
    h.p50_micros = histo->quantile_micros(0.50);
    h.p90_micros = histo->quantile_micros(0.90);
    h.p99_micros = histo->quantile_micros(0.99);
    out.histograms.push_back(std::move(h));
  }
  return out;  // std::map iteration is already name-sorted
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histo] : histograms_) histo->reset();
}

// ---------------------------------------------------------------------------
// adacheck-stats-v1 encoding

namespace {

void write_scalars(JsonWriter& json,
                   const std::vector<StatsSnapshot::Scalar>& scalars) {
  json.begin_object();
  for (const auto& scalar : scalars) json.kv(scalar.name, scalar.value);
  json.end_object();
}

}  // namespace

std::string stats_json(const StatsSnapshot& snapshot, bool pretty) {
  std::ostringstream out;
  JsonWriter json(out, pretty ? JsonStyle::kPretty : JsonStyle::kCompact);
  json.begin_object();
  json.kv("schema", kStatsSchema);
  json.key("counters");
  write_scalars(json, snapshot.counters);
  json.key("gauges");
  write_scalars(json, snapshot.gauges);
  json.key("histograms");
  json.begin_object();
  for (const auto& histo : snapshot.histograms) {
    json.key(histo.name);
    json.begin_object();
    json.kv("count", histo.count);
    json.kv("sum_micros", histo.sum_micros);
    json.kv("max_micros", histo.max_micros);
    json.kv("p50_micros", histo.p50_micros);
    json.kv("p90_micros", histo.p90_micros);
    json.kv("p99_micros", histo.p99_micros);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  if (pretty) out << '\n';
  return std::move(out).str();
}

}  // namespace adacheck::obs
