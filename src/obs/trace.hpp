// Span/instant event tracing in the Chrome trace-event JSON format,
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// Same contract as the metrics registry: disabled (the default) costs
// instrumented code one relaxed load and the RAII Span helper never
// touches the clock; enabled, events are buffered in memory (mutex +
// vector — tracing targets smoke runs and incident captures, not
// always-on production recording) and flushed once via write_file()
// when the process is about to exit.  Timestamps are obs::now_micros()
// monotonic microseconds, thread ids are obs::thread_id() dense ints.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/registry.hpp"  // now_micros, thread_id

namespace adacheck::obs {

class Tracer {
 public:
  struct Event {
    std::string name;
    const char* category = "";  ///< static string: "pool", "sweep", ...
    char phase = 'X';           ///< 'X' complete span, 'i' instant
    std::uint64_t ts_micros = 0;
    std::uint64_t dur_micros = 0;
    int tid = 0;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer; never destroyed.
  static Tracer& instance();

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records a complete span ('X'); start/duration from the caller so
  /// the span can be timed without holding the tracer lock.
  void complete(std::string name, const char* category,
                std::uint64_t start_micros, std::uint64_t dur_micros);

  /// complete() with an explicit lane id instead of the calling
  /// thread's.  For simulated-time spans (the DAG executive's worker
  /// lanes): timestamps come from the simulation clock and the "tid"
  /// is the simulated worker, so Perfetto renders the schedule rather
  /// than the host threads.
  void complete(std::string name, const char* category,
                std::uint64_t start_micros, std::uint64_t dur_micros,
                int tid);

  /// Records a zero-duration instant event ('i', thread scope).
  void instant(std::string name, const char* category);

  std::size_t event_count() const;

  /// Serializes buffered events as one Chrome trace-event JSON object:
  /// {"displayTimeUnit":"ms","traceEvents":[...]}.
  void write_json(std::ostream& os) const;

  /// write_json to a file; returns false (and writes nothing else)
  /// when the file cannot be opened.
  bool write_file(const std::string& path) const;

  /// Drops all buffered events.  Tests only.
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::atomic<bool> enabled_{false};
};

/// RAII complete-span helper:
///
///   obs::Span span("chunk", "sweep");
///   ... work ...
///   // destructor emits the event if tracing was enabled at start
///
/// Gates itself on Tracer::instance().enabled() at construction; a
/// span that began while disabled stays disabled even if tracing is
/// switched on mid-flight (avoids bogus durations).
class Span {
 public:
  Span(std::string name, const char* category)
      : enabled_(Tracer::instance().enabled()) {
    if (enabled_) {
      name_ = std::move(name);
      category_ = category;
      start_ = now_micros();
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    if (enabled_) {
      Tracer::instance().complete(std::move(name_), category_, start_,
                                  now_micros() - start_);
    }
  }

 private:
  bool enabled_;
  std::string name_;
  const char* category_ = "";
  std::uint64_t start_ = 0;
};

}  // namespace adacheck::obs
