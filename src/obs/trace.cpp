#include "obs/trace.hpp"

#include <fstream>
#include <string_view>

#include "obs/json_writer.hpp"

namespace adacheck::obs {

Tracer& Tracer::instance() {
  static Tracer* const tracer = new Tracer();  // never destroyed
  return *tracer;
}

void Tracer::complete(std::string name, const char* category,
                      std::uint64_t start_micros, std::uint64_t dur_micros) {
  complete(std::move(name), category, start_micros, dur_micros, thread_id());
}

void Tracer::complete(std::string name, const char* category,
                      std::uint64_t start_micros, std::uint64_t dur_micros,
                      int tid) {
  if (!enabled()) return;
  Event event;
  event.name = std::move(name);
  event.category = category;
  event.phase = 'X';
  event.ts_micros = start_micros;
  event.dur_micros = dur_micros;
  event.tid = tid;
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

void Tracer::instant(std::string name, const char* category) {
  if (!enabled()) return;
  Event event;
  event.name = std::move(name);
  event.category = category;
  event.phase = 'i';
  event.ts_micros = now_micros();
  event.tid = thread_id();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void Tracer::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  // One event per line; the framing literals need no escaping.
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const char* separator = "\n  ";
  for (const auto& event : events_) {
    os << separator;
    separator = ",\n  ";
    JsonWriter json(os, JsonStyle::kCompact);
    json.begin_object();
    json.kv("name", event.name);
    json.kv("cat", event.category);
    json.kv("ph", std::string_view(&event.phase, 1));
    json.kv("ts", event.ts_micros);
    if (event.phase == 'X') {
      json.kv("dur", event.dur_micros);
    } else {
      json.kv("s", "t");
    }
    json.kv("pid", 1);
    json.kv("tid", event.tid);
    json.end_object();
  }
  os << "\n]}\n";
}

bool Tracer::write_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  write_json(os);
  return os.good();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

}  // namespace adacheck::obs
